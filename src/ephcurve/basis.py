"""B-bases, normalized B-bases and corner-cut weights of the curve spaces.

Three nested families are evaluated, for order parameter ``m`` in {1, 2}
and shape parameter ``omega > 0``:

* ``preimage_basis``   -- B-basis of the (m+1)-dimensional space the
  quaternion preimage coefficients live in,
* ``hodograph_basis``  -- normalized B-basis of the (2m+1)-dimensional
  derivative space,
* ``curve_basis``      -- normalized B-basis of the (2m+2)-dimensional
  curve space,

plus ``corner_weights``, the weights of the single corner-cutting pass
that converts a curve-space control polygon into a degree-2m Bernstein
polygon with the same value at the evaluation point.

The curve basis and the corner weights exist in three arithmetic modes:
the textbook hyperbolic closed forms (``NAIVE``), rewrites using only
non-positive exponents that never overflow and stay accurate for large
``omega`` (``STABLE_LARGE_OMEGA``), and fifth-order series in ``omega``
around 0 (``TAYLOR5``).  ``AUTO`` picks, per order and quantity, the
mode with the smallest oracle error from one measured table of bands.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OverflowHazardError

__all__ = [
    "EvalMode",
    "NAIVE_OMEGA_LIMIT",
    "BasisConstantsM1",
    "BasisConstantsM2",
    "constants",
    "preimage_basis",
    "hodograph_basis",
    "curve_basis",
    "taylor_curve_basis",
    "corner_weights",
    "resolve_mode",
]


class EvalMode(enum.Enum):
    """Arithmetic path used for curve-basis / corner-weight evaluation."""

    NAIVE = "naive"
    STABLE_LARGE_OMEGA = "stable"
    TAYLOR5 = "taylor5"
    AUTO = "auto"


# AUTO's bands per (m, quantity): (series_below, closed_forms_below).
# The series serve omega below the first switch, the closed forms the
# band up to the second, the stable rewrites the rest.  Against the
# mpmath oracle, AUTO's error stays within 4x of the most accurate
# mode's (or below 1e-13) from omega = 1e-4 to 650; for "tau" the error
# counts as |dtau_j| times the degree-2m Bernstein weight b_j(t) that it
# meets in eval_new.  The m=1 stable weights beat the closed forms at
# every omega from 0.1 up, and the m=2 series band is only a range guard
# (the closed forms divide by zero near omega = 1e-70).
_AUTO_BANDS = {
    (1, "basis"): (0.16, 2.0),
    (1, "tau"): (0.1, 0.1),
    (2, "basis"): (1e-3, 2.0),
    (2, "tau"): (1e-3, 2.0),
}

# Largest omega whose naive hyperbolic forms stay inside double range.
# The m=2 forms contain products reaching exp(5*omega/2).
NAIVE_OMEGA_LIMIT = {1: 700.0, 2: 280.0}


def resolve_mode(mode: EvalMode, m: int, omega: float,
                 quantity: str = "basis") -> EvalMode:
    """Collapse AUTO to a concrete mode for ``quantity`` ("basis" or
    "tau") and police the naive overflow limit."""
    if mode is EvalMode.AUTO:
        series_below, closed_forms_below = _AUTO_BANDS[(m, quantity)]
        if omega < series_below:
            return EvalMode.TAYLOR5
        if omega < closed_forms_below:
            return EvalMode.NAIVE
        return EvalMode.STABLE_LARGE_OMEGA
    if mode is EvalMode.NAIVE and omega > NAIVE_OMEGA_LIMIT[m]:
        raise OverflowHazardError(
            "naive hyperbolic forms overflow for omega=%g (limit %g for m=%d)"
            % (omega, NAIVE_OMEGA_LIMIT[m], m))
    return mode


def _check_m(m: int) -> None:
    if m not in (1, 2):
        raise ValueError("m must be 1 or 2, got %r" % (m,))


def _check_omega(omega: float) -> float:
    omega = float(omega)
    if not (omega > 0.0) or not math.isfinite(omega):
        raise ValueError("omega must be a positive finite real, got %r" % (omega,))
    return omega


def _check_t(t, open_interval: bool = False) -> np.ndarray:
    # one all-inside reduction, which NaN fails
    t = np.asarray(t, dtype=float)
    if open_interval:
        if not np.all((t > 0.0) & (t < 1.0)):
            raise DomainError("t must lie strictly inside (0, 1)")
    elif not np.all((t >= 0.0) & (t <= 1.0)):
        raise DomainError("t must lie in [0, 1]")
    return t


# ---------------------------------------------------------------------------
# scalar constants
# ---------------------------------------------------------------------------

# Series coefficients of the cancellation-prone numerators, as functions of
# omega (odd series; k is the index of omega**(2k+1)).
_KMAX = 13
_C_SINH_MINUS = [1.0 / math.factorial(2 * k + 1) for k in range(1, _KMAX)]       # sinh(w)-w, from w^3
_C_XCOSH_MSINH = [2.0 * k / math.factorial(2 * k + 1) for k in range(1, _KMAX)]  # x cosh x - sinh x, from x^3
_C_G0 = [(4.0 ** k - 4.0) / math.factorial(2 * k + 1) for k in range(2, _KMAX)]  # from w^5
_C_Q3NUM = [(5.0 + 4.0 ** k) / math.factorial(2 * k + 1) - 3.0 / math.factorial(2 * k)
            for k in range(2, _KMAX)]                                            # from w^5
_C_Q4NUM = [1.0 / math.factorial(2 * k) - 3.0 / math.factorial(2 * k + 1)
            for k in range(2, _KMAX)]                                            # from w^5
_C_VTHIRD = [3.0 / math.factorial(2 * k + 1) - 1.0 / math.factorial(2 * k)
             for k in range(2, _KMAX)]                                           # (3 sinh w - w cosh w - 2w), from w^5
# sinh(w/2)*(cosh w + 5) - 3 w cosh(w/2)
#   = sinh(3w/2)/2 + (9/2) sinh(w/2) - 3 w cosh(w/2), from w^5 (denominator
# of the second normalization constant of the m=2 curve basis)
_C_U = [(3.0 ** (2 * k + 1) + 9.0) / (4.0 ** (k + 1) * math.factorial(2 * k + 1))
        - 3.0 / (4.0 ** k * math.factorial(2 * k)) for k in range(2, _KMAX)]

_SERIES_OMEGA = 1.0   # below this, use the series for the cancelling numerators


def _odd_series(x, coef, lead_power: int):
    """sum(coef[k] * x**(lead_power + 2k)) via Horner in x**2; ``x`` is a
    float or an array."""
    x2 = x * x
    acc = 0.0
    for c in reversed(coef):
        acc = acc * x2 + c
    return acc * x ** lead_power


@dataclass(frozen=True)
class BasisConstantsM1:
    """Scalar constants of the m=1 spaces at a fixed omega.

    ``c2`` and ``c3/c1`` are the antiderivative weights of the hodograph
    basis; ``c1`` links the preimage-basis products to the hodograph basis.
    """

    omega: float
    c1: float
    c2: float
    c3: float
    c3_over_c1: float


@dataclass(frozen=True)
class BasisConstantsM2:
    """Scalar constants of the m=2 spaces at a fixed omega.

    ``q2``, ``q3`` and ``q4/q1`` are antiderivative weights; ``q0``, ``q1``
    link preimage-basis products to the hodograph basis; ``g0``-``g2``
    normalize the curve basis (``g0``, ``g1`` leave double range for very
    large omega, while every q-combination below stays finite).
    """

    omega: float
    q0: float
    q1: float
    q2: float
    q3: float
    q4: float
    g0: float
    g1: float
    g2: float
    q0_over_q1: float
    q4_over_q1: float
    q4_q0_over_q1: float


def _constants_m1(w: float) -> BasisConstantsM1:
    x = 0.5 * w
    ex = math.exp(-x)
    ex2 = math.exp(-2.0 * x)
    ew = math.exp(-w)
    c1 = 2.0 * ex / (1.0 + ex2)
    if w < _SERIES_OMEGA:
        sh = math.sinh(x)
        c2 = _odd_series(w, _C_SINH_MINUS, 3) / (2.0 * w * sh * sh)
        num3 = _odd_series(x, _C_XCOSH_MSINH, 3)
        c3 = num3 / (x * sh * sh)
        c3_over_c1 = c3 * math.cosh(x)
    else:
        c2 = (1.0 - ew * ew - 2.0 * w * ew) / (w * (1.0 - ew) ** 2)
        c3 = 2.0 * ex * (x - 1.0 + (x + 1.0) * ex2) / (x * (1.0 - ex2) ** 2)
        c3_over_c1 = (x - 1.0 + (x + 1.0) * ex2) * (1.0 + ex2) / (x * (1.0 - ex2) ** 2)
    return BasisConstantsM1(w, c1, c2, c3, c3_over_c1)


def _constants_m2(w: float) -> BasisConstantsM2:
    ew = math.exp(-w)
    ew2 = ew * ew
    ew3 = ew2 * ew
    ew4 = ew2 * ew2
    den_q = 1.0 + 4.0 * ew + ew2
    q0 = (1.0 + 2.0 * ew + ew2) / den_q
    q1 = 2.0 * ew / den_q
    if ew > 0.0:
        q0_over_q1 = (1.0 + 2.0 * ew + ew2) / (2.0 * ew)
    else:
        q0_over_q1 = math.inf
    if w < _SERIES_OMEGA:
        sh4 = math.sinh(0.5 * w) ** 4
        g0 = _odd_series(w, _C_G0, 5)
        q2 = g0 / (8.0 * w * sh4)
        q3 = _odd_series(w, _C_Q3NUM, 5) / (4.0 * w * sh4)
        q4 = _odd_series(w, _C_Q4NUM, 5) / (4.0 * w * sh4)
        q4_over_q1 = q4 / q1
        q4_q0_over_q1 = q4 * q0_over_q1
        g1 = 4.0 / _odd_series(w, _C_U, 5)
        g2 = math.sinh(0.5 * w) / (3.0 * _odd_series(w, _C_VTHIRD, 5))
    else:
        den4 = (1.0 - ew) ** 4
        q2 = (1.0 - 8.0 * ew + 12.0 * w * ew2 + 8.0 * ew3 - ew4) / (2.0 * w * den4)
        q3 = (1.0 - (6.0 * w - 10.0) * ew - 12.0 * w * ew2
              - (6.0 * w + 10.0) * ew3 - ew4) / (w * den4)
        q4 = ((2.0 * w - 6.0) * ew + 8.0 * w * ew2 + (2.0 * w + 6.0) * ew3) / (w * den4)
        q4_over_q1 = (((2.0 * w - 6.0) + 8.0 * w * ew + (2.0 * w + 6.0) * ew2)
                      * den_q) / (2.0 * w * den4)
        q4_q0_over_q1 = (((2.0 * w - 6.0) + 8.0 * w * ew + (2.0 * w + 6.0) * ew2)
                         * (1.0 + 2.0 * ew + ew2)) / (2.0 * w * den4)
        with np.errstate(over="ignore"):
            g0 = float(np.exp(2.0 * w) / 4.0
                       * (1.0 - 8.0 * ew + 12.0 * w * ew2 + 8.0 * ew3 - ew4))
        g1 = 16.0 * ew * math.exp(-0.5 * w) / (1.0 + (9.0 - 6.0 * w) * ew
                                               - (9.0 + 6.0 * w) * ew2 - ew3)
        g2 = ((1.0 - ew) * math.exp(-0.5 * w)
              / (3.0 * ((3.0 - w) - 4.0 * w * ew - (3.0 + w) * ew2)))
    return BasisConstantsM2(w, q0, q1, q2, q3, q4, g0, g1, g2,
                            q0_over_q1, q4_over_q1, q4_q0_over_q1)


def constants(m: int, omega: float):
    """Scalar constants of the order-m spaces, safe for any omega > 0.

    Cancelling numerators switch to their series below omega = 1, so
    values stay accurate down to omega ~ 1e-8 (the polynomial limits
    1/3, 2, 1/5, 1/15 are recovered smoothly).
    """
    _check_m(m)
    omega = _check_omega(omega)
    return _constants_m1(omega) if m == 1 else _constants_m2(omega)


# ---------------------------------------------------------------------------
# B-basis of the preimage space and normalized B-basis of the hodograph space
# ---------------------------------------------------------------------------

def _exact_ends(t: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Set the rows of ``b`` at t=0 and t=1 to the unit vectors, which the
    closed forms reach only up to rounding (off by 6e-11 in the naive m=1
    curve basis at omega=0.096, by 2.2e-16 in the preimage basis at
    omega=0.111625).  Every basis an evaluator reads goes through here,
    so the evaluators need no end-point case of their own."""
    if t.size == 1 and 0.0 < t.item() < 1.0:
        return b                        # one interior point, the cheap test
    unit = np.eye(b.shape[-1])
    b[t == 0.0] = unit[0]
    b[t == 1.0] = unit[-1]
    return b


def preimage_basis(m: int, omega: float, t) -> np.ndarray:
    """B-basis of the space holding the preimage coefficient functions.

    For m=1 these are the two sinh ratios; for m=2 the three functions
    coincide with the m=1 hodograph basis.  Values are stacked along the
    last axis and are exactly (1, 0, ...) at t=0 and (..., 0, 1) at t=1;
    the forms used only ever exponentiate non-positive arguments, so any
    omega is safe.
    """
    _check_m(m)
    omega = _check_omega(omega)
    t = _check_t(t)
    if m == 2:
        return hodograph_basis(1, omega, t)
    w = omega
    den = -math.expm1(-w)
    p0 = np.exp(-0.5 * w * t) * (-np.expm1(-w * (1.0 - t))) / den
    p1 = np.exp(-0.5 * w * (1.0 - t)) * (-np.expm1(-w * t)) / den
    return _exact_ends(t, np.stack([p0, p1], axis=-1))


def hodograph_basis(m: int, omega: float, t) -> np.ndarray:
    """Normalized B-basis of the derivative (hodograph) space.

    The m=1 end functions are squares of the preimage basis; the middle
    one is their partition-of-unity complement.  The m=2 functions are
    the standard quadratic-form products of the m=1 triple.  Both are
    exact unit rows at t=0 and t=1, as the preimage basis is.
    """
    _check_m(m)
    omega = _check_omega(omega)
    t = _check_t(t)
    psi = preimage_basis(1, omega, t)
    v0 = psi[..., 0] ** 2
    v2 = psi[..., 1] ** 2
    v1 = 1.0 - v0 - v2
    if m == 1:
        return np.stack([v0, v1, v2], axis=-1)
    return _hodograph_products(v0, v1, v2)


def _hodograph_products(v0, v1, v2) -> np.ndarray:
    """The m=2 hodograph basis from the m=1 functions v0, v1, v2."""
    return np.stack([
        v0 * v0,
        2.0 * v0 * v1,
        v1 * v1 + 2.0 * v0 * v2,
        2.0 * v1 * v2,
        v2 * v2,
    ], axis=-1)


# ---------------------------------------------------------------------------
# normalized B-basis of the curve space: naive / stable / series forms
# ---------------------------------------------------------------------------

def _curve_basis_naive_m1(w: float, t: np.ndarray) -> np.ndarray:
    sh, ch = np.sinh, np.cosh
    shw = math.sinh(w)
    chw = math.cosh(w)
    den_end = shw - w
    den_mid = (w / math.tanh(0.5 * w) - 2.0) * (w - shw)
    u = 1.0 - t
    p0 = (sh(w * u) - w * u) / den_end
    p3 = (sh(w * t) - w * t) / den_end
    p1 = (-w * t - w * u * chw + w * ch(w * u) + shw - sh(w * t) - sh(w * u)) / den_mid
    p2 = (-w * u - w * t * chw + w * ch(w * t) + shw - sh(w * u) - sh(w * t)) / den_mid
    return np.stack([p0, p1, p2, p3], axis=-1)


def _g0_naive(a):
    """3a + sinh(a)(cosh(a) - 4); series below |a| = 1 (the closed form
    cancels to a**5/10 there and would cost eight digits at a ~ 0.05)."""
    a = np.asarray(a, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        literal = 3.0 * a + np.sinh(a) * (np.cosh(a) - 4.0)
    return np.where(np.abs(a) < _SERIES_OMEGA, _odd_series(a, _C_G0, 5), literal)


def _curve_basis_naive_m2(w: float, t: np.ndarray) -> np.ndarray:
    sh = np.sinh
    c = _constants_m2(w)
    g0w, g1w, g2w = c.g0, c.g1, c.g2
    sh4w = math.sinh(0.5 * w) ** 4
    u = 1.0 - t
    g0u = _g0_naive(w * u)
    g0t = _g0_naive(w * t)
    shu = sh(0.5 * w * u)
    sht = sh(0.5 * w * t)
    p0 = g0u / g0w
    p5 = g0t / g0w
    p1 = g1w * math.sinh(0.5 * w) * (shu ** 4 - sh4w * g0u / g0w)
    p4 = g1w * math.sinh(0.5 * w) * (sht ** 4 - sh4w * g0t / g0w)
    p2 = g2w * (-16.0 * shu ** 3 * sht + g1w * g0w * shu ** 4 - g1w * sh4w * g0u)
    p3 = g2w * (-16.0 * sht ** 3 * shu + g1w * g0w * sht ** 4 - g1w * sh4w * g0t)
    return np.stack([p0, p1, p2, p3, p4, p5], axis=-1)


def _stable_end_m1(w: float, t: np.ndarray) -> np.ndarray:
    """Last m=1 curve-basis function; only non-positive exponents."""
    den = math.fsum([math.exp(-2.0 * w), 2.0 * w * math.exp(-w), -1.0])
    num = _sum_terms([np.exp(-2.0 * w * t), 2.0 * w * t * np.exp(-w * t),
                      -np.ones_like(t)])
    return num / den * np.exp(w * (t - 1.0))


def _stable_mid_m1(w: float, t: np.ndarray) -> np.ndarray:
    """Third m=1 curve-basis function (index 2); non-positive exponents."""
    iw = 1.0 / w
    ew = math.exp(-w)
    e2w = ew * ew
    e3w = e2w * ew
    et = np.exp(-w * t)                 # e^{-wt}
    emt1 = et * ew                      # e^{-w(t+1)}
    emt2 = et * e2w                     # e^{-w(t+2)}
    ep1 = np.exp(w * (t - 1.0))         # e^{w(t-1)}
    ep2 = ep1 * ew                      # e^{w(t-2)}
    ep3 = ep1 * e2w                     # e^{w(t-3)}
    num = _sum_terms([
        (iw + t) * e3w,
        -iw * ep3,
        -(iw + 1.0) * emt2,
        -(iw + 3.0 * t - 2.0) * e2w,
        (2.0 * iw - 1.0) * ep2,
        (2.0 * iw + 1.0) * emt1,
        -(iw - 3.0 * t + 2.0) * ew,
        -(iw - 1.0) * ep1,
        -iw * et,
        (iw - t) * np.ones_like(t),
    ])
    den = math.fsum([(2.0 * iw + 1.0) * e3w,
                     -(2.0 * iw - 5.0 - 2.0 * w) * e2w,
                     -(2.0 * iw + 5.0 - 2.0 * w) * ew,
                     2.0 * iw - 1.0])
    return num / den


def _curve_basis_stable_m1(w: float, t: np.ndarray) -> np.ndarray:
    u = 1.0 - t
    return np.stack([
        _stable_end_m1(w, u),
        _stable_mid_m1(w, u),
        _stable_mid_m1(w, t),
        _stable_end_m1(w, t),
    ], axis=-1)


def _sum_terms(terms) -> np.ndarray:
    """Pairwise-summed total of same-shaped term arrays.

    The stable numerators cancel heavily for omega below ~1; pairwise
    summation keeps the roundoff near the per-term rounding floor.
    """
    return np.sum(np.stack(terms, axis=-1), axis=-1)


def _stable_p5_m2(w: float, t: np.ndarray) -> np.ndarray:
    den = math.fsum([math.exp(-4.0 * w), -8.0 * math.exp(-3.0 * w),
                     -12.0 * w * math.exp(-2.0 * w), 8.0 * math.exp(-w), -1.0])
    et = np.exp(-w * t)
    et2 = et * et
    num = _sum_terms([et2 * et2, -8.0 * et2 * et, -12.0 * w * t * et2,
                      8.0 * et, -np.ones_like(t)])
    return num / den * np.exp(2.0 * w * (t - 1.0))


def _stable_p3_m2(w: float, t: np.ndarray) -> np.ndarray:
    iw = 1.0 / w
    ew = math.exp(-w)
    e2 = ew * ew
    e3 = e2 * ew
    e4 = e2 * e2
    e5 = e4 * ew
    et = np.exp(-w * t)            # e^{-wt}
    ep1 = np.exp(w * (t - 1.0))
    ep2 = ep1 * ew
    ep3 = ep1 * e2
    ep4 = ep1 * e3
    ep5 = ep1 * e4
    et2 = et * et
    dp1 = ep1 * ep1                # e^{2w(t-1)}
    num = _sum_terms([
        (3.0 * iw + 2.0 * t) * e5,
        -4.0 * iw * ep5,
        iw * (dp1 * e3),                                # e^{w(2t-5)}
        -4.0 * (2.0 * iw + 1.0) * (et * e4),            # e^{-w(t+4)}
        (9.0 * iw - 2.0 * (5.0 * t - 6.0)) * e4,
        -4.0 * (iw + 3.0) * ep4,
        (3.0 * iw + 4.0) * (dp1 * e2),                  # e^{2w(t-2)}
        (5.0 * iw + 2.0) * (et2 * e3),                  # e^{-w(2t+3)}
        4.0 * (iw - 1.0) * (et * e3),                   # e^{-w(t+3)}
        -4.0 * (3.0 * iw - 5.0 * t) * e3,
        4.0 * (3.0 * iw + 1.0) * ep3,
        -(9.0 * iw + 2.0) * (dp1 * ew),                 # e^{w(2t-3)}
        -(9.0 * iw - 2.0) * (et2 * e2),                 # e^{-2w(t+1)}
        4.0 * (3.0 * iw - 1.0) * (et * e2),             # e^{-w(t+2)}
        -4.0 * (3.0 * iw + 5.0 * t) * e2,
        4.0 * (iw + 1.0) * ep2,
        (5.0 * iw - 2.0) * dp1,                         # e^{2w(t-1)}
        (3.0 * iw - 4.0) * (et2 * ew),                  # e^{-w(2t+1)}
        -4.0 * (iw - 3.0) * (et * ew),                  # e^{-w(t+1)}
        (9.0 * iw + 2.0 * (5.0 * t - 6.0)) * ew,
        -4.0 * (2.0 * iw - 1.0) * ep1,
        iw * et2,
        -4.0 * iw * et,
        (3.0 * iw - 2.0 * t) * np.ones_like(t),
    ])
    den = 2.0 * math.fsum([(3.0 * iw + 1.0) * e5,
                           (27.0 * iw + 31.0 + 6.0 * w) * e4,
                           -2.0 * (15.0 * iw - 23.0 - 15.0 * w) * e3,
                           -2.0 * (15.0 * iw + 23.0 - 15.0 * w) * e2,
                           (27.0 * iw - 31.0 + 6.0 * w) * ew,
                           3.0 * iw - 1.0])
    return num / den


def _stable_p4_m2(w: float, t: np.ndarray) -> np.ndarray:
    ew = math.exp(-w)
    e2 = ew * ew
    e3 = e2 * ew
    e4 = e2 * e2
    e5 = e4 * ew
    e6 = e3 * e3
    e7 = e4 * e3
    et = np.exp(-w * t)
    et2 = et * et
    et3 = et2 * et
    ep1 = np.exp(w * (t - 1.0))
    wt = w * t
    num = _sum_terms([
        2.0 * (et2 * e5),                       # e^{-w(2t+5)}
        3.0 * (1.0 + 2.0 * wt) * (et * e5),     # e^{-w(t+5)}
        -6.0 * e5 * np.ones_like(t),
        ep1 * e4,                               # e^{w(t-5)}
        -2.0 * (et3 * e4),                      # e^{-w(3t+4)}
        -2.0 * (et2 * e4),                      # e^{-2w(t+2)}
        -3.0 * (9.0 + 10.0 * wt) * (et * e4),   # e^{-w(t+4)}
        38.0 * e4 * np.ones_like(t),
        -7.0 * (ep1 * e3),                      # e^{w(t-4)}
        -(1.0 + 6.0 * w) * (et3 * e3),          # e^{-3w(t+1)}
        24.0 * (1.0 + w) * (et2 * e3),          # e^{-w(2t+3)}
        12.0 * (2.0 + w * (5.0 * t - 3.0)) * (et * e3),
        -8.0 * (7.0 - 3.0 * w) * e3 * np.ones_like(t),
        3.0 * (3.0 - 2.0 * w) * (ep1 * e2),     # e^{w(t-3)}
        3.0 * (3.0 + 2.0 * w) * (et3 * e2),     # e^{-w(3t+2)}
        -8.0 * (7.0 + 3.0 * w) * (et2 * e2),    # e^{-2w(t+1)}
        12.0 * (2.0 - w * (5.0 * t - 3.0)) * (et * e2),
        24.0 * (1.0 - w) * e2 * np.ones_like(t),
        -(1.0 - 6.0 * w) * (ep1 * ew),          # e^{w(t-2)}
        -7.0 * (et3 * ew),                      # e^{-w(3t+1)}
        38.0 * (et2 * ew),                      # e^{-w(2t+1)}
        -3.0 * (9.0 - 10.0 * wt) * (et * ew),   # e^{-w(t+1)}
        -2.0 * ew * np.ones_like(t),
        -2.0 * ep1,
        et3,
        -6.0 * et2,
        3.0 * (1.0 - 2.0 * wt) * et,
        2.0 * np.ones_like(t),
    ])
    den = math.fsum([e7, (1.0 + 6.0 * w) * e6, -27.0 * (3.0 + 2.0 * w) * e5,
                     (79.0 - 156.0 * w - 72.0 * w * w) * e4,
                     (79.0 + 156.0 * w - 72.0 * w * w) * e3,
                     -27.0 * (3.0 - 2.0 * w) * e2,
                     (1.0 - 6.0 * w) * ew, 1.0])
    return num / den * ep1


def _curve_basis_stable_m2(w: float, t: np.ndarray) -> np.ndarray:
    u = 1.0 - t
    return np.stack([
        _stable_p5_m2(w, u),
        _stable_p4_m2(w, u),
        _stable_p3_m2(w, u),
        _stable_p3_m2(w, t),
        _stable_p4_m2(w, t),
        _stable_p5_m2(w, t),
    ], axis=-1)


def _taylor_m1(w: float, t: np.ndarray) -> np.ndarray:
    W = w * w

    def t3(t):
        a = ((10.0 * t * t - 21.0) * t * t + 11.0)
        return t ** 3 * ((a * W + 420.0 * (t * t - 1.0)) * W + 8400.0) / 8400.0

    def t2(t):
        a = (((30.0 * t - 40.0) * t + 23.0) * t - 12.0) * t - 3.0
        b = (3.0 * t - 2.0) * t + 1.0
        return 3.0 * t * t * (1.0 - t) * ((a * W + 420.0 * b) * W + 25200.0) / 25200.0

    u = 1.0 - t
    return np.stack([t3(u), t2(u), t2(t), t3(t)], axis=-1)


def _taylor_m2(w: float, t: np.ndarray) -> np.ndarray:
    W = w * w

    def t5(t):
        a = (49.0 * t * t - 100.0) * t * t + 51.0
        return t ** 5 * ((a * W + 840.0 * (t * t - 1.0)) * W + 7056.0) / 7056.0

    def t4(t):
        a = (((245.0 * t - 196.0) * t - 96.0) * t + 44.0) * t - 1.0
        b = (5.0 * t - 2.0) * t - 1.0
        return 5.0 * t ** 4 * (1.0 - t) * ((a * W + 840.0 * b) * W + 35280.0) / 35280.0

    def t3(t):
        a = (((245.0 * t - 392.0) * t + 253.0) * t - 82.0) * t + 3.0
        b = (10.0 * t - 8.0) * t + 3.0
        return (10.0 * t ** 3 * (1.0 - t) ** 2
                * ((a * W + 420.0 * b) * W + 35280.0) / 35280.0)

    u = 1.0 - t
    return np.stack([t5(u), t4(u), t3(u), t3(t), t4(t), t5(t)], axis=-1)


def taylor_curve_basis(m: int, omega: float, t) -> np.ndarray:
    """Fifth-order series (in omega, around 0) of the curve basis.

    Exact Bernstein polynomials at omega = 0; omega = 0 is accepted here
    even though the curve spaces themselves require omega > 0.
    """
    _check_m(m)
    omega = float(omega)
    if not (omega >= 0.0 and math.isfinite(omega)):
        raise ValueError("omega must be a finite real >= 0 for the series basis, "
                         "got %r" % (omega,))
    t = _check_t(t)
    return _taylor_m1(omega, t) if m == 1 else _taylor_m2(omega, t)


def curve_basis(m: int, omega: float, t, mode: EvalMode = EvalMode.AUTO) -> np.ndarray:
    """Normalized B-basis of the curve space, stacked along the last axis.

    Nonnegative, sums to 1, mirror-symmetric under t -> 1-t, and exactly
    (1, 0, ..., 0) at t=0 and (0, ..., 0, 1) at t=1 in every mode.
    """
    _check_m(m)
    omega = _check_omega(omega)
    t = _check_t(t)
    mode = resolve_mode(mode, m, omega)
    if mode is EvalMode.TAYLOR5:
        b = _taylor_m1(omega, t) if m == 1 else _taylor_m2(omega, t)
    elif mode is EvalMode.NAIVE:
        b = _curve_basis_naive_m1(omega, t) if m == 1 else _curve_basis_naive_m2(omega, t)
    else:
        b = _curve_basis_stable_m1(omega, t) if m == 1 else _curve_basis_stable_m2(omega, t)
    return _exact_ends(t, b)


# ---------------------------------------------------------------------------
# corner-cut weights
# ---------------------------------------------------------------------------

def _tau_from_curve_basis(m: int, t: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Corner weights from curve-basis values via the defining ratios."""
    u = 1.0 - t
    if m == 1:
        tau0 = p[..., 0] / u ** 2
        tau1 = (p[..., 0] + p[..., 1] - u ** 2) / (2.0 * t * u)
        tau2 = 1.0 - p[..., 3] / t ** 2
        return np.stack([tau0, tau1, tau2], axis=-1)
    tau0 = p[..., 0] / u ** 4
    tau1 = (p[..., 0] + p[..., 1] - u ** 4) / (4.0 * t * u ** 3)
    tau2 = ((p[..., 0] + p[..., 1] + p[..., 2] - u ** 4 - 4.0 * t * u ** 3)
            / (6.0 * t ** 2 * u ** 2))
    tau3 = 1.0 - (p[..., 4] + p[..., 5] - t ** 4) / (4.0 * t ** 3 * u)
    tau4 = 1.0 - p[..., 5] / t ** 4
    return np.stack([tau0, tau1, tau2, tau3, tau4], axis=-1)


def _tau_stable_m1(w: float, t: np.ndarray) -> np.ndarray:
    # each numerator collected by its distinct array exponential, with
    # the scalar factors folded up front
    iw = 1.0 / w
    s1 = math.exp(-w)
    s2 = s1 * s1
    E = np.exp(-w * t)               # e^{-wt}
    P = np.exp(w * (t - 1.0))        # e^{w(t-1)}
    u = t - 1.0
    tu = t * u
    den_end = math.fsum([s2, 2.0 * w * s1, -1.0])
    n0 = (-2.0 * w * s1) * u - E + s1 * P
    tau0 = n0 / ((u * u) * den_end)
    qa = 2.0 * iw + 1.0
    qb = 4.0 * iw + 1.0
    p0 = ((qa * s2 - qa + 2.0) * t - (qb * s2 - qb + 2.0)) * t \
        + iw * (s2 - 1.0) + 2.0 * s1 * tu
    n1 = p0 + (iw * (1.0 + s1)) * E - (iw * (1.0 + s1)) * P
    d1 = (2.0 * (s1 + 1.0) * (qa * s1 - 2.0 * iw + 1.0)) * tu
    tau1 = n1 / d1
    n2 = (s2 - 1.0) * (t * t) + (2.0 * w * s1) * tu - s1 * E + P
    tau2 = n2 / ((t * t) * den_end)
    return np.stack([tau0, tau1, tau2], axis=-1)


def _tau_stable_m2(w: float, t: np.ndarray) -> np.ndarray:
    # each numerator collected by its distinct array exponentials
    # {1, E, E^2, P, P^2} with the scalar factors folded up front
    iw = 1.0 / w
    s1 = math.exp(-w)
    s2 = s1 * s1
    s3 = s2 * s1
    s4 = s2 * s2
    E = np.exp(-w * t)               # e^{-wt}
    E2 = E * E
    P = np.exp(w * (t - 1.0))        # e^{w(t-1)}
    D = P * P
    u = t - 1.0
    t2 = t * t
    t3 = t2 * t
    t4 = t2 * t2
    u2 = u * u
    u4 = u2 * u2
    den_end = math.fsum([-s4, 8.0 * s3, 12.0 * w * s2, -8.0 * s1, 1.0])
    den_mid = math.fsum([s3, 3.0 * (2.0 * w + 3.0) * s2,
                         3.0 * (2.0 * w - 3.0) * s1, -1.0])

    n0 = (-12.0 * w * s2) * u - (8.0 * s1) * E + E2 + (8.0 * s2) * P - s2 * D
    tau0 = n0 / ((u4) * den_end)

    poly1 = ((3.0 * t - 12.0) * t + 18.0) * t2 - 12.0 * t + 2.0
    poly1w = (2.0 * w) * t * (((t - 4.0) * t + 6.0) * t - 3.0)
    p0 = ((s3 - 1.0) * u4 + (3.0 * (s2 - s1)) * poly1
          + (3.0 * (s2 + s1)) * poly1w)
    n1 = p0 + (6.0 * s1 + 2.0) * E - E2 - (2.0 * s2 + 6.0 * s1) * P + s1 * D
    tau1 = n1 / ((4.0 * den_mid) * (t * u * u2))

    # The e^{-2w} bracket of this numerator carries a plus sign; the
    # printed source has a spurious minus there (it contradicts the
    # defining ratio of the weight, cf. the transcription tests).
    poly2a = (3.0 * iw) * (((6.0 * t - 16.0) * t + 12.0) * t2 - 1.0)
    poly2b = 2.0 * t * (((3.0 * t - 8.0) * t + 6.0) * t - 1.0)
    p0 = (s2 - 1.0) * poly2a + (s2 + 1.0 + 4.0 * s1) * poly2b
    n2 = p0 - (4.0 * iw * (s1 + 1.0)) * E + iw * E2 \
        + (4.0 * iw * (s1 + 1.0)) * P - iw * D
    d2 = (12.0 * math.fsum([(3.0 * iw + 1.0) * s2, 4.0 * s1, -3.0 * iw, 1.0])) \
        * (t2 * u2)
    tau2 = n2 / d2

    poly3 = t3 * (3.0 * t - 4.0)
    poly3a = (2.0 * w) * t * (((3.0 * t - 4.0) * t2) + 1.0)
    poly3b = (9.0 * t - 12.0) * t3 + 1.0
    p0 = (s3 - 1.0) * poly3 + (3.0 * (s2 + s1)) * poly3a + (3.0 * (s2 - s1)) * poly3b
    n3 = p0 + (2.0 * s2 + 6.0 * s1) * E - s1 * E2 - (6.0 * s1 + 2.0) * P + D
    tau3 = n3 / ((4.0 * den_mid) * (t3 * u))

    p0 = math.fsum([-s4, 8.0 * s3, -8.0 * s1, 1.0]) * t4 \
        + (12.0 * w * s2) * (t * (t3 - 1.0))
    n4 = p0 - (8.0 * s2) * E + s2 * E2 + (8.0 * s1) * P - D
    tau4 = n4 / (t4 * den_end)

    return np.stack([tau0, tau1, tau2, tau3, tau4], axis=-1)


def corner_weights(m: int, omega: float, t, mode: EvalMode = EvalMode.AUTO) -> np.ndarray:
    """Weights of the corner-cutting pass onto a degree-2m Bernstein polygon.

    Only defined strictly inside (0, 1): the defining ratios have
    removable discontinuities at the endpoints, where ``eval_new`` takes
    the end control points instead.  Near t = 0 the ratios divide by
    t^(2m), which underflows: in every mode the weights are NaN from
    about t = 1e-161 (m=1) and t = 1e-80 (m=2) down.  No series fallback
    is applied there.
    """
    _check_m(m)
    omega = _check_omega(omega)
    t = _check_t(t, open_interval=True)
    mode = resolve_mode(mode, m, omega, "tau")
    if mode is EvalMode.STABLE_LARGE_OMEGA:
        return _tau_stable_m1(omega, t) if m == 1 else _tau_stable_m2(omega, t)
    return _tau_from_curve_basis(m, t, curve_basis(m, omega, t, mode))
