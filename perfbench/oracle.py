"""Reference values computed apart from the package under test.

The curve basis comes from the textbook closed forms evaluated with
mpmath at a working precision that grows with omega, so the hyperbolic
cancellations (about exp(2*omega) for m=2) never reach the digits that
are compared.  The preimage basis and the quaternion product are plain
double-precision formulas chosen to differ from the package's own
(sinh ratios here, expm1 forms there).  Nothing here imports ephcurve.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np


def _digits(omega: float) -> int:
    # m=2 closed forms lose about 2*omega/ln(10) < omega digits
    return 30 + int(math.ceil(float(omega)))


def _g0(a):
    return 3 * a + mpmath.sinh(a) * (mpmath.cosh(a) - 4)


def curve_basis(m: int, omega: float, t: float) -> np.ndarray:
    """Normalized B-basis of the order-m curve space at one parameter."""
    with mpmath.workdps(_digits(omega)):
        w, t = mpmath.mpf(omega), mpmath.mpf(t)
        u = 1 - t
        sh, ch = mpmath.sinh, mpmath.cosh
        if m == 1:
            end = sh(w) - w
            mid = (w * mpmath.coth(w / 2) - 2) * (w - sh(w))
            vals = [
                (sh(w * u) - w * u) / end,
                (w * ch(w * u) - w * t - w * u * ch(w) + sh(w) - sh(w * t)
                 - sh(w * u)) / mid,
                (w * ch(w * t) - w * u - w * t * ch(w) + sh(w) - sh(w * u)
                 - sh(w * t)) / mid,
                (sh(w * t) - w * t) / end,
            ]
        else:
            g0 = _g0(w)
            s = sh(w / 2)
            g1 = 4 / (s * (ch(w) - 3 * w * mpmath.coth(w / 2) + 5))
            g2 = s / (3 * (3 * sh(w) - w * (ch(w) + 2)))
            s4 = s ** 4
            a, b = sh(w * u / 2), sh(w * t / 2)
            vals = [
                _g0(w * u) / g0,
                g1 * s * (a ** 4 - s4 * _g0(w * u) / g0),
                g2 * (g1 * g0 * a ** 4 - 16 * a ** 3 * b - g1 * s4 * _g0(w * u)),
                g2 * (g1 * g0 * b ** 4 - 16 * b ** 3 * a - g1 * s4 * _g0(w * t)),
                g1 * s * (b ** 4 - s4 * _g0(w * t) / g0),
                _g0(w * t) / g0,
            ]
        return np.array([float(v) for v in vals])


def curve_points(m: int, omega: float, ts, control_points) -> np.ndarray:
    """Curve points at the parameters ``ts`` from the reference basis."""
    rows = np.array([curve_basis(m, omega, t) for t in ts])
    return rows @ np.asarray(control_points, dtype=float)


def preimage_basis(m: int, omega: float, t) -> np.ndarray:
    """B-basis of the preimage space from sinh ratios, along the last axis.

    Valid for omega below about 1400, where sinh stays finite.
    """
    t = np.asarray(t, dtype=float)
    w = float(omega)
    s = math.sinh(w / 2.0)
    p0 = np.sinh(w * (1.0 - t) / 2.0) / s
    p1 = np.sinh(w * t / 2.0) / s
    if m == 1:
        return np.stack([p0, p1], axis=-1)
    v0 = p0 * p0
    v2 = p1 * p1
    # (cosh w - cosh wt - cosh w(1-t) + 1)/(cosh w - 1), written as products
    v1 = 2.0 * p0 * p1 * math.cosh(w / 2.0)
    return np.stack([v0, v1, v2], axis=-1)


def qmul(p, q) -> np.ndarray:
    """Hamilton product of (w, x, y, z) quaternions, i*j = k."""
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    return np.array([
        pw * qw - px * qx - py * qy - pz * qz,
        pw * qx + px * qw + py * qz - pz * qy,
        pw * qy - px * qz + py * qw + pz * qx,
        pw * qz + px * qy - py * qx + pz * qw,
    ])


def sandwich_i(a) -> np.ndarray:
    """Vector part of a i a* by two Hamilton products."""
    a = np.asarray(a, dtype=float)
    conj = a * np.array([1.0, -1.0, -1.0, -1.0])
    return qmul(qmul(a, (0.0, 1.0, 0.0, 0.0)), conj)[1:]


def speed(m: int, omega: float, coeffs, t) -> np.ndarray:
    """|A(t)|^2 for the preimage A(t) = sum_k coeffs[k] * psi_k(t)."""
    a = preimage_basis(m, omega, t) @ np.asarray(coeffs, dtype=float)
    return np.sum(a * a, axis=-1)


def arc_length(m: int, omega: float, coeffs, t: float,
               panels: int = 64, nodes: int = 20) -> float:
    """Composite Gauss-Legendre integral of |A|^2 over [0, t].

    Panels narrow enough (width <= 1/64) that the exp(-omega*t/2)
    features of the basis stay resolved up to omega of a few hundred.
    """
    x, wts = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(0.0, float(t), panels + 1)
    half = 0.5 * np.diff(edges)
    mids = 0.5 * (edges[1:] + edges[:-1])
    pts = (mids[:, None] + half[:, None] * x[None, :]).ravel()
    vals = speed(m, omega, coeffs, pts).reshape(panels, nodes)
    return float(np.sum(half[:, None] * wts[None, :] * vals))
