"""Independent high-precision reference implementations (test oracle only).

Everything here evaluates the textbook closed forms with mpmath at a
precision chosen so that the hyperbolic cancellations (which grow like
exp(2*omega) for m=2) never eat into the reported digits.  These
references are deliberately independent of the package's evaluation
paths: the package never imports this module.
"""

import math
from functools import lru_cache

from mpmath import mpf, sinh, cosh, coth, exp, fsum, lu_solve, matrix, workdps


def _dps(omega, t=None) -> int:
    """Working digits for the closed forms at shape omega and parameter t.

    The hyperbolic terms cancel about 2*omega digits (m=2 products reach
    exp(2*omega)).  Near an end the forms cancel further: the m=2 curve
    basis is built from g0(a) = O(a^5) with a = omega*t, whose terms are
    O(a), so at most 4*log10(1/(omega*min(t, 1-t))) more digits go.
    """
    digits = 40 + int(2.0 * float(omega))
    if t is not None and float(omega) > 0.0:
        end = min(float(t), 1.0 - float(t))
        if end > 0.0:                   # in logs: omega*t may underflow
            lost = -4.0 * (math.log10(float(omega)) + math.log10(end))
            digits += max(0, math.ceil(lost))
    return digits


def psi_ref(m, omega, t):
    with workdps(_dps(omega, t)):
        w, t = mpf(omega), mpf(t)
        if m == 1:
            out = [sinh(w / 2 * (1 - t)) / sinh(w / 2), sinh(w / 2 * t) / sinh(w / 2)]
        else:
            out = varphi_ref(1, omega, t)
        return [mpf(v) for v in out]


def varphi_ref(m, omega, t):
    with workdps(_dps(omega, t)):
        w, t = mpf(omega), mpf(t)
        if m == 1:
            return [
                (cosh(w - w * t) - 1) / (cosh(w) - 1),
                (cosh(w) - cosh(w * t) - cosh(w - w * t) + 1) / (cosh(w) - 1),
                (cosh(w * t) - 1) / (cosh(w) - 1),
            ]
        p = varphi_ref(1, omega, t)
        return [p[0] ** 2, 2 * p[0] * p[1], p[1] ** 2 + 2 * p[0] * p[2],
                2 * p[1] * p[2], p[2] ** 2]


def _g0(a):
    return 3 * a + sinh(a) * (cosh(a) - 4)


def phi_ref(m, omega, t):
    with workdps(_dps(omega, t)):
        w, t = mpf(omega), mpf(t)
        if m == 1:
            den_mid = (w * coth(w / 2) - 2) * (w - sinh(w))
            return [
                (sinh(w - w * t) - w * (1 - t)) / (sinh(w) - w),
                (-w * t - w * (1 - t) * cosh(w) + w * cosh(w - w * t) + sinh(w)
                 - sinh(w * t) - sinh(w - w * t)) / den_mid,
                (-w * (1 - t) - w * t * cosh(w) + w * cosh(w * t) + sinh(w)
                 - sinh(w - w * t) - sinh(w * t)) / den_mid,
                (sinh(w * t) - w * t) / (sinh(w) - w),
            ]
        g0w = _g0(w)
        g1w = 4 / (sinh(w / 2) * (cosh(w) - 3 * w * coth(w / 2) + 5))
        g2w = sinh(w / 2) / (3 * (3 * sinh(w) - w * (cosh(w) + 2)))
        sh4 = sinh(w / 2) ** 4
        u = 1 - t
        shu, sht = sinh(w * u / 2), sinh(w * t / 2)
        return [
            _g0(w * u) / g0w,
            g1w * sinh(w / 2) * (shu ** 4 - sh4 * _g0(w * u) / g0w),
            g2w * (-16 * shu ** 3 * sht + g1w * g0w * shu ** 4 - g1w * sh4 * _g0(w * u)),
            g2w * (-16 * sht ** 3 * shu + g1w * g0w * sht ** 4 - g1w * sh4 * _g0(w * t)),
            g1w * sinh(w / 2) * (sht ** 4 - sh4 * _g0(w * t) / g0w),
            _g0(w * t) / g0w,
        ]


def tau_ref(m, omega, t):
    with workdps(_dps(omega, t)):
        w, t = mpf(omega), mpf(t)
        p = phi_ref(m, omega, t)
        u = 1 - t
        if m == 1:
            return [
                p[0] / u ** 2,
                (p[0] + p[1] - u ** 2) / (2 * t * u),
                1 - p[3] / t ** 2,
            ]
        return [
            p[0] / u ** 4,
            (p[0] + p[1] - u ** 4) / (4 * t * u ** 3),
            (p[0] + p[1] + p[2] - u ** 4 - 4 * t * u ** 3) / (6 * t ** 2 * u ** 2),
            1 - (p[4] + p[5] - t ** 4) / (4 * t ** 3 * u),
            1 - p[5] / t ** 4,
        ]


def constants_ref(m, omega):
    with workdps(_dps(omega)):
        w = mpf(omega)
        if m == 1:
            return {
                "c1": 1 / cosh(w / 2),
                "c2": (sinh(w) - w) / (w * (cosh(w) - 1)),
                "c3": ((w / 2) * coth(w / 2) - 1) / ((w / 2) * sinh(w / 2)),
            }
        return {
            "q0": (cosh(w) + 1) / (cosh(w) + 2),
            "q1": 1 / (cosh(w) + 2),
            "q2": _g0(w) / (2 * w * (cosh(w) - 1) ** 2),
            "q3": (5 * sinh(w) - 3 * w + (sinh(w) - 3 * w) * cosh(w))
                  / (w * (cosh(w) - 1) ** 2),
            "q4": (w * (2 + cosh(w)) - 3 * sinh(w)) / (w * (cosh(w) - 1) ** 2),
            "g0": _g0(w),
            "g1": 4 / (sinh(w / 2) * (cosh(w) - 3 * w * coth(w / 2) + 5)),
            "g2": sinh(w / 2) / (3 * (3 * sinh(w) - w * (cosh(w) + 2))),
        }


def _four_space_functions(w, x, k):
    """k-th derivatives at x of 1, e^{-wt}, e^{w(t-1)}, cosh(2wt)."""
    return [mpf(k == 0), (-w) ** k * exp(-w * x), w ** k * exp(w * (x - 1)),
            (2 * w) ** k * (cosh if k % 2 == 0 else sinh)(2 * w * x)]


@lru_cache(maxsize=None)
def _four_space_coeffs(omega):
    """Coefficients of the 4-space B-basis over the spanning functions.

    B_i has a zero of order i at t=0 and of order 3-i at t=1, and the
    four functions sum to 1: twelve zero conditions plus four
    partition-of-unity conditions, solved as one linear system.  The
    extra digits cover the near-singular conditions at small omega.
    """
    with workdps(_dps(omega) + 40):
        w = mpf(omega)
        rows, rhs = [], []
        for i in range(4):
            zeros = [(0, k) for k in range(i)] + [(1, k) for k in range(3 - i)]
            for x, k in zeros:
                row = [0] * 16
                row[4 * i:4 * i + 4] = _four_space_functions(w, x, k)
                rows.append(row)
                rhs.append(0)
        for j in range(4):
            rows.append([int(col % 4 == j) for col in range(16)])
            rhs.append(int(j == 0))
        return lu_solve(matrix(rows), matrix(rhs))


def four_space_ref(omega, t):
    """Normalized B-basis of span{1, e^{wt}, e^{-wt}, cosh(2wt)}, the
    4-dimensional link of the m=2 de Casteljau chain."""
    c = _four_space_coeffs(float(omega))
    with workdps(_dps(omega) + 40):
        v = _four_space_functions(mpf(omega), mpf(t), 0)
        return [fsum(c[4 * i + j] * v[j] for j in range(4)) for i in range(4)]
