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
import functools
import math
import sys
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
# m=1 needs sinh(omega); the m=2 product sinh(omega/2)**4 * g0(omega*(1-t))
# reaches exp(4*omega)/64 as t -> 0 and overflows, into a -inf or NaN
# basis, from omega = 178.4854 (measured at t = 5e-324 and on a
# 100001-point grid).
NAIVE_OMEGA_LIMIT = {1: 700.0, 2: 178.48}

# exponents of (x**3, x**4, y**3, y**4) for one np.power call, and of
# both sides' cubes and fifth to third powers for ``_mirror``
_CUBE_FOURTH = np.array([3.0, 4.0, 3.0, 4.0])
_CUBES = np.array([3.0, 3.0])
_FIFTH_TO_THIRD = np.array([5.0, 5.0, 4.0, 4.0, 3.0, 3.0])
_CUBE_FOURTH_PAIRS = np.array([3.0, 3.0, 4.0, 4.0])


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


def _check_t(t, open_interval: bool = False) -> np.ndarray | float:
    """t as a float array, or as a Python float when it is one point (a
    Python float, a numpy scalar or a 0-d array): the kernels then run
    their arithmetic on Python floats, which round + - * / as numpy does
    at a fraction of a numpy scalar's cost.  Chained comparisons check
    one point, one all-inside reduction an array; NaN fails both."""
    if isinstance(t, float) or (t := np.asarray(t, dtype=float)).ndim == 0:
        t = float(t)                    # np.float64 is a float as well
        inside = 0.0 < t < 1.0 if open_interval else 0.0 <= t <= 1.0
    elif open_interval:
        inside = np.all((t > 0.0) & (t < 1.0))
    else:
        inside = np.all((t >= 0.0) & (t <= 1.0))
    if not inside:
        raise DomainError("t must lie strictly inside (0, 1)" if open_interval
                          else "t must lie in [0, 1]")
    return t


def _stack(cols) -> np.ndarray:
    """Per-t columns as rows along a new last axis.  Columns of one point
    are floats, which ``np.array`` packs at a tenth of the cost of
    ``np.stack``; the result is a fresh, writeable array either way."""
    if isinstance(cols[0], float):
        return np.array(cols)
    return np.stack(cols, axis=-1)


def _columns(rows: np.ndarray) -> list:
    """The per-t columns of ``rows`` (``_stack``'s inverse): Python floats
    for one point's row, views along the last axis for a grid."""
    if rows.ndim == 1:
        return rows.tolist()
    return [rows[..., k] for k in range(rows.shape[-1])]


def _ufunc(f, x, *args):
    """numpy's ``f(x, *args)``, as a Python float when ``x`` is one.

    The t-dependent transcendentals and powers always come from numpy's
    own loops, so one point gets the bits of the same t in a grid
    (``math`` and a numpy scalar's ``**`` call libm, which rounds
    differently); the arithmetic around them stays on Python floats."""
    y = f(x, *args)
    return float(y) if type(x) is float else y


def _powers(xs, ks: np.ndarray) -> list:
    """``[x ** k for x, k in zip(xs, ks)]`` from one ``np.power`` call,
    whose loop rounds each value as a call of its own does: Python floats
    for Python floats, numpy scalars for numpy scalars, one row per x for
    arrays.  One call at one point costs what one power of its own does."""
    if type(xs[0]) is float:
        return np.power(xs, ks).tolist()
    return list(np.power(xs, ks.reshape(ks.shape + (1,) * np.ndim(xs[0]))))


def _mirror(half, t, ks: np.ndarray, base=None) -> np.ndarray:
    """Rows of a mirror-symmetric form, b_{n-1-k}(t) = b_k(1 - t).

    ``half(x, powers, base_y)`` gives the first n/2 functions on one side
    x (1 - t, or t for the mirror image) from x, the powers ``ks`` of the
    side's base and the other side's base.  The base is x itself, or
    ``base(x)`` on a grid (the naive m=2 basis, whose one point stays
    inline).  ``ks`` lists each exponent twice, for the 1 - t side and the
    t side.  One point calls ``half`` at 1 - t and at t, on floats (or on
    the ``np.float64`` that ``_on_floats`` retries with), after one
    ``_powers`` call for both sides.  A grid calls it once, on
    ``np.stack([1 - t, t])``, whose flip gives the other side's base, so
    each numpy call pays its fixed cost once for both sides; row 0 of
    each column it returns is b_k(t), row 1 is b_{n-1-k}(t).  Every value
    is computed as on one side alone, so the bits are the same."""
    if isinstance(t, float):
        u = 1.0 - t
        p = _powers([u, t] * (len(ks) >> 1), ks)
        return _stack(half(u, p[::2], t) + half(t, p[1::2], u)[::-1])
    x = np.stack([1.0 - t, t])
    b = x if base is None else base(x)
    p = np.power(b, ks[::2].reshape((-1,) + (1,) * b.ndim))
    cols = half(x, p, b[::-1])
    return np.stack([c[0] for c in cols] + [c[1] for c in cols[::-1]], axis=-1)


def _on_floats(form, x, t):
    """``form(x, t)``.  One point runs on Python floats, whose ``/``
    raises ZeroDivisionError where numpy's gives inf or NaN: at the powers
    of a tiny t in the corner weights, or at an omega-only denominator
    that rounds to zero (tiny omega in an explicit mode).  The form then
    runs again on an ``np.float64`` t, whose arithmetic is numpy's."""
    try:
        return form(x, t)
    except ZeroDivisionError:
        if type(t) is not float:
            raise
    return form(x, np.float64(t))


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

# Below the smallest normal double, omega * t keeps too few digits to follow
# t (at omega = 5e-324 it rounds to 0 or to omega), so the two-function
# bases return their omega -> 0 limit (1 - t, t) there.
_MIN_NORMAL_OMEGA = sys.float_info.min

# (m, omega) records kept per order: a sweep over more omegas evicts the
# least recently used, so the cache's memory stays bounded
_CONSTANTS_CACHE_SIZE = 256
# the same bounded cache for every value that depends on omega alone: per
# order, the constants and one record each of the omega-only factors of
# the stable curve basis and of the stable corner weights
_per_omega = functools.lru_cache(maxsize=_CONSTANTS_CACHE_SIZE)


def _odd_series(x, coef, lead):
    """sum(coef[k] * x**(2k)) * lead via Horner in x**2, where ``lead`` is
    x's leading odd power, raised by the caller: the constants, on omega
    alone, with Python's ``**``; a t-dependent x with ``np.power``, whose
    loop rounds as a grid's does (``**`` goes to libm's ``pow``)."""
    x2 = x * x
    acc = 0.0
    for c in reversed(coef):
        acc = acc * x2 + c
    return acc * lead


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


@_per_omega
def _constants_m1(w: float) -> BasisConstantsM1:
    x = 0.5 * w
    ex = math.exp(-x)
    ex2 = math.exp(-2.0 * x)
    ew = math.exp(-w)
    c1 = 2.0 * ex / (1.0 + ex2)
    if w < _SERIES_OMEGA:
        sh = math.sinh(x)
        try:
            c2 = _odd_series(w, _C_SINH_MINUS, w ** 3) / (2.0 * w * sh * sh)
            num3 = _odd_series(x, _C_XCOSH_MSINH, x ** 3)
            c3 = num3 / (x * sh * sh)
        except ZeroDivisionError:       # w * sinh(w/2)**2 underflows: the limits
            c2 = c3 = 1.0 / 3.0
        c3_over_c1 = c3 * math.cosh(x)
    else:
        c2 = (1.0 - ew * ew - 2.0 * w * ew) / (w * (1.0 - ew) ** 2)
        c3 = 2.0 * ex * (x - 1.0 + (x + 1.0) * ex2) / (x * (1.0 - ex2) ** 2)
        c3_over_c1 = (x - 1.0 + (x + 1.0) * ex2) * (1.0 + ex2) / (x * (1.0 - ex2) ** 2)
    return BasisConstantsM1(w, c1, c2, c3, c3_over_c1)


@_per_omega
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
        w5 = w ** 5
        g0 = _odd_series(w, _C_G0, w5)
        try:
            q2 = g0 / (8.0 * w * sh4)
            q3 = _odd_series(w, _C_Q3NUM, w5) / (4.0 * w * sh4)
            q4 = _odd_series(w, _C_Q4NUM, w5) / (4.0 * w * sh4)
            q4_over_q1 = q4 / q1
            q4_q0_over_q1 = q4 * q0_over_q1
            g1 = 4.0 / _odd_series(w, _C_U, w5)
            g2 = math.sinh(0.5 * w) / (3.0 * _odd_series(w, _C_VTHIRD, w5))
        except ZeroDivisionError:
            # w**5 underflows: the q's limits, and the normalizers of the
            # naive forms, which grow like 160/w**5 and -10/w**4, as infinite
            q2 = q3 = q4_over_q1 = 0.2
            q4 = 1.0 / 15.0
            q4_q0_over_q1 = 2.0 / 15.0
            g1, g2 = math.inf, -math.inf
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
    """Scalar constants of the order-m spaces, for any omega > 0.

    Cancelling numerators switch to their series below omega = 1, so
    values stay accurate down to omega ~ 1e-60 (the polynomial limits
    1/3, 2, 1/5, 1/15 are recovered smoothly).  Further down a series'
    denominator turns subnormal and the values lose digits (beyond 1e-14
    from omega ~ 1.5e-103 down for m=1, ~2.3e-62 for m=2); once it
    underflows to zero (below ~2.5e-108 and ~5e-65) the record holds the
    omega -> 0 limits, with the m=2 curve-basis normalizers g1, g2 as
    +inf and -inf.  The frozen record is
    cached per (m, omega), for the most recent 256 omegas of each order,
    so repeated calls return the same object.
    """
    _check_m(m)
    omega = _check_omega(omega)
    return _constants_m1(omega) if m == 1 else _constants_m2(omega)


# ---------------------------------------------------------------------------
# B-basis of the preimage space and normalized B-basis of the hodograph space
# ---------------------------------------------------------------------------

def _exact_ends(t, b: np.ndarray) -> np.ndarray:
    """Set the rows of ``b`` at t=0 and t=1 to the unit vectors, which the
    closed forms reach only up to rounding (off by 6e-11 in the naive m=1
    curve basis at omega=0.096, by 2.2e-16 in the preimage basis at
    omega=0.111625).  Every basis an evaluator reads goes through here,
    so the evaluators need no end-point case of their own."""
    if isinstance(t, float) and 0.0 < t < 1.0:
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
    if w < _MIN_NORMAL_OMEGA:
        return _omega_zero_limit(t)
    den = -math.expm1(-w)
    p0 = _ufunc(np.exp, -0.5 * w * t) * (-_ufunc(np.expm1, -w * (1.0 - t))) / den
    p1 = _ufunc(np.exp, -0.5 * w * (1.0 - t)) * (-_ufunc(np.expm1, -w * t)) / den
    return _exact_ends(t, _stack([p0, p1]))


def _two_space_basis(omega: float, t) -> np.ndarray:
    """Normalized B-basis of span{1, sinh(omega t)} on [0, 1], the second
    level of the de Casteljau-like chain."""
    if omega < _MIN_NORMAL_OMEGA:
        return _omega_zero_limit(t)
    n1 = (_ufunc(np.exp, omega * (t - 1.0))
          * _ufunc(np.expm1, -2.0 * omega * t) / math.expm1(-2.0 * omega))
    return _exact_ends(t, _stack([1.0 - n1, n1]))


def _omega_zero_limit(t) -> np.ndarray:
    """(1 - t, t), the omega -> 0 limit that the two-function bases return
    below the smallest normal omega, with the unit rows at the ends."""
    return _exact_ends(t, _stack([1.0 - t, t]))


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
    p0, p1 = _columns(preimage_basis(1, omega, t))
    v0 = p0 * p0
    v2 = p1 * p1
    v1 = 1.0 - v0 - v2
    if m == 1:
        return _stack([v0, v1, v2])
    return _hodograph_products(v0, v1, v2)


def _hodograph_products(v0, v1, v2) -> np.ndarray:
    """The m=2 hodograph basis from the m=1 functions v0, v1, v2."""
    return _stack([
        v0 * v0,
        2.0 * v0 * v1,
        v1 * v1 + 2.0 * v0 * v2,
        2.0 * v1 * v2,
        v2 * v2,
    ])


# ---------------------------------------------------------------------------
# normalized B-basis of the curve space: naive / stable / series forms
# ---------------------------------------------------------------------------

def _curve_basis_naive_m1(w: float, t: np.ndarray) -> np.ndarray:
    shw = math.sinh(w)
    chw = math.cosh(w)
    den_end = shw - w
    den_mid = (w / math.tanh(0.5 * w) - 2.0) * (w - shw)
    u = 1.0 - t
    shu, sht = _ufunc(np.sinh, w * u), _ufunc(np.sinh, w * t)
    chu, cht = _ufunc(np.cosh, w * u), _ufunc(np.cosh, w * t)
    p0 = (shu - w * u) / den_end
    p3 = (sht - w * t) / den_end
    p1 = (-w * t - w * u * chw + w * chu + shw - sht - shu) / den_mid
    p2 = (-w * u - w * t * chw + w * cht + shw - shu - sht) / den_mid
    return _stack([p0, p1, p2, p3])


def _g0_naive(a):
    """3a + sinh(a)(cosh(a) - 4); series below |a| = 1 (the closed form
    cancels to a**5/10 there and would cost eight digits at a ~ 0.05).
    One point takes one branch, an array both and picks per point."""
    if isinstance(a, float):
        if abs(a) < _SERIES_OMEGA:
            return _odd_series(a, _C_G0, _ufunc(np.power, a, 5))
        return 3.0 * a + _ufunc(np.sinh, a) * (_ufunc(np.cosh, a) - 4.0)
    with np.errstate(over="ignore", invalid="ignore"):
        literal = 3.0 * a + np.sinh(a) * (np.cosh(a) - 4.0)
    return np.where(np.abs(a) < _SERIES_OMEGA, _odd_series(a, _C_G0, np.power(a, 5)),
                    literal)


def _curve_basis_naive_m2(w: float, t: np.ndarray) -> np.ndarray:
    """The textbook m=2 forms.  A grid runs them mirror-paired, on
    sinh(w x / 2) (see ``_mirror``).  One point keeps both sides inline:
    a controller tick runs it, and two calls of ``half`` would add their
    fixed cost to every tick."""
    c = _constants_m2(w)
    g0w, g1w, g2w = c.g0, c.g1, c.g2
    sh4w = math.sinh(0.5 * w) ** 4
    k1 = g1w * math.sinh(0.5 * w)
    k2 = g1w * g0w
    k3 = g1w * sh4w
    if isinstance(t, float):
        u = 1.0 - t
        g0u = _g0_naive(w * u)
        g0t = _g0_naive(w * t)
        shu = _ufunc(np.sinh, 0.5 * w * u)
        sht = _ufunc(np.sinh, 0.5 * w * t)
        p0 = g0u / g0w
        p5 = g0t / g0w
        shu3, shu4, sht3, sht4 = _powers([shu, shu, sht, sht], _CUBE_FOURTH)
        p1 = k1 * (shu4 - sh4w * g0u / g0w)
        p4 = k1 * (sht4 - sh4w * g0t / g0w)
        p2 = g2w * (-16.0 * shu3 * sht + k2 * shu4 - k3 * g0u)
        p3 = g2w * (-16.0 * sht3 * shu + k2 * sht4 - k3 * g0t)
        return _stack([p0, p1, p2, p3, p4, p5])

    def half(x, powers, shy):
        shx3, shx4 = powers
        g0x = _g0_naive(w * x)
        return [g0x / g0w,
                k1 * (shx4 - sh4w * g0x / g0w),
                g2w * (-16.0 * shx3 * shy + k2 * shx4 - k3 * g0x)]

    return _mirror(half, t, _CUBE_FOURTH_PAIRS, lambda x: np.sinh(0.5 * w * x))


def _sum_terms(terms) -> np.ndarray:
    """Pairwise-summed total of same-shaped term arrays; a term free of t
    may be a plain float, which adds the same bits as an array of it.

    The stable numerators cancel heavily for omega below ~1; pairwise
    summation keeps the roundoff near the per-term rounding floor.

    The order is the one ``np.sum(np.stack(terms, -1), -1)`` uses, spelled
    out so that no (..., n) stack is built: below 8 terms a sequential
    sum from +0.0; otherwise eight named partials r0..r7, each running
    over its lane of the full blocks of 8, combined as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the remaining terms one by
    one, and +0.0 added last (numpy's sum of -0.0 terms is +0.0).
    Keeping that order keeps every output bit, and with it criterion 8's
    WC/de Casteljau breakpoints, which roundoff decides.  No term is
    added into in place: callers pass live arrays, and a partial is
    rebound to a fresh sum, never updated.
    """
    n = len(terms)
    if n < 8:
        total = 0.0 + terms[0]
        for term in terms[1:]:
            total += term
        return total
    full = n - n % 8
    r0, r1, r2, r3, r4, r5, r6, r7 = terms[:8]
    for i in range(8, full, 8):
        a0, a1, a2, a3, a4, a5, a6, a7 = terms[i:i + 8]
        r0, r1, r2, r3 = r0 + a0, r1 + a1, r2 + a2, r3 + a3
        r4, r5, r6, r7 = r4 + a4, r5 + a5, r6 + a6, r7 + a7
    total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for term in terms[full:]:
        total += term
    total += 0.0
    return total


@_per_omega
def _omega_stable_m1(w: float) -> tuple:
    """The omega-only factors of ``_stable_m1``: 2w and b_3's denominator;
    1/w, e^{-w}, e^{-2w}, e^{-3w}, the whole coefficients of b_2's terms
    1, 2, 4, 5, 7 and 8, and b_2's denominator.  Each is the value the
    term's own left-to-right evaluation gives."""
    iw = 1.0 / w
    ew = math.exp(-w)
    e2w = ew * ew
    e3w = e2w * ew
    den3 = math.fsum([math.exp(-2.0 * w), 2.0 * w * ew, -1.0])
    den2 = math.fsum([(2.0 * iw + 1.0) * e3w,
                      -(2.0 * iw - 5.0 - 2.0 * w) * e2w,
                      -(2.0 * iw + 5.0 - 2.0 * w) * ew,
                      2.0 * iw - 1.0])
    return (2.0 * w, den3, iw, ew, e2w, e3w, -iw, -(iw + 1.0), 2.0 * iw - 1.0,
            2.0 * iw + 1.0, -(iw - 1.0), den2)


def _stable_m1(w: float, x):
    """[b_3, b_2] of the m=1 curve basis at x, from non-positive exponents
    only; at x = 1 - t the same values are [b_0, b_1] of t (mirror
    symmetry).  The side computes each of its exponentials once:
    e^{-wx}, e^{w(x-1)} and e^{-2wx}."""
    w2, den3, iw, ew, e2w, e3w, k1, k2, k4, k5, k7, den2 = _omega_stable_m1(w)
    ex = _ufunc(np.exp, -w * x)          # e^{-wx}
    p1 = _ufunc(np.exp, w * (x - 1.0))   # e^{w(x-1)}
    ex2 = _ufunc(np.exp, -2.0 * w * x)   # e^{-2wx}
    b3 = _sum_terms([ex2, w2 * x * ex, -1.0]) / den3 * p1
    num = _sum_terms([
        (iw + x) * e3w,
        k1 * (p1 * e2w),                 # e^{w(x-3)}
        k2 * (ex * e2w),                 # e^{-w(x+2)}
        -(iw + 3.0 * x - 2.0) * e2w,
        k4 * (p1 * ew),                  # e^{w(x-2)}
        k5 * (ex * ew),                  # e^{-w(x+1)}
        -(iw - 3.0 * x + 2.0) * ew,
        k7 * p1,
        k1 * ex,
        iw - x,
    ])
    return [b3, num / den2]


def _curve_basis_stable_m1(w: float, t: np.ndarray) -> np.ndarray:
    """The m=1 stable basis: the per-side form at 1 - t, then at t in
    reverse order.  Each side is its own call, unpaired (see README)."""
    return _stack(_stable_m1(w, 1.0 - t) + _stable_m1(w, t)[::-1])


@_per_omega
def _omega_stable_m2(w: float) -> tuple:
    """The omega-only factors of ``_stable_m2``: e^{-w} ... e^{-5w}; -12w
    and b_5's denominator; b_4's c_i, the whole coefficient of its term i,
    or the whole term where it is free of t, wherever it depends on omega
    alone, and b_4's denominator; 1/w, 3/w and 9/w (inside t-dependent
    coefficients of b_3), b_3's a_i, the whole coefficient of its term i
    where it depends on omega alone, and b_3's denominator.  Each is the
    value the term's own left-to-right evaluation gives."""
    iw = 1.0 / w
    ew = math.exp(-w)
    e2 = ew * ew
    e3 = e2 * ew
    e4 = e2 * e2
    e5 = e4 * ew
    e6 = e3 * e3
    e7 = e4 * e3
    den5 = math.fsum([math.exp(-4.0 * w), -8.0 * math.exp(-3.0 * w),
                      -12.0 * w * math.exp(-2.0 * w), 8.0 * ew, -1.0])
    den4 = math.fsum([e7, (1.0 + 6.0 * w) * e6, -27.0 * (3.0 + 2.0 * w) * e5,
                      (79.0 - 156.0 * w - 72.0 * w * w) * e4,
                      (79.0 + 156.0 * w - 72.0 * w * w) * e3,
                      -27.0 * (3.0 - 2.0 * w) * e2,
                      (1.0 - 6.0 * w) * ew, 1.0])
    den3 = 2.0 * math.fsum([(3.0 * iw + 1.0) * e5,
                            (27.0 * iw + 31.0 + 6.0 * w) * e4,
                            -2.0 * (15.0 * iw - 23.0 - 15.0 * w) * e3,
                            -2.0 * (15.0 * iw + 23.0 - 15.0 * w) * e2,
                            (27.0 * iw - 31.0 + 6.0 * w) * ew,
                            3.0 * iw - 1.0])
    return (ew, e2, e3, e4, e5,
            -12.0 * w, den5,
            -6.0 * e5,                          # c2
            38.0 * e4,                          # c7
            -(1.0 + 6.0 * w),                   # c9
            24.0 * (1.0 + w),                   # c10
            -8.0 * (7.0 - 3.0 * w) * e3,        # c12
            3.0 * (3.0 - 2.0 * w),              # c13
            3.0 * (3.0 + 2.0 * w),              # c14
            -8.0 * (7.0 + 3.0 * w),             # c15
            24.0 * (1.0 - w) * e2,              # c17
            -(1.0 - 6.0 * w),                   # c18
            -2.0 * ew,                          # c22
            den4,
            iw, 3.0 * iw, 9.0 * iw,
            -4.0 * iw,                          # a1, and a22
            -4.0 * (2.0 * iw + 1.0),            # a3
            -4.0 * (iw + 3.0),                  # a5
            3.0 * iw + 4.0,                     # a6
            5.0 * iw + 2.0,                     # a7
            4.0 * (iw - 1.0),                   # a8
            4.0 * (3.0 * iw + 1.0),             # a10
            -(9.0 * iw + 2.0),                  # a11
            -(9.0 * iw - 2.0),                  # a12
            4.0 * (3.0 * iw - 1.0),             # a13
            4.0 * (iw + 1.0),                   # a15
            5.0 * iw - 2.0,                     # a16
            3.0 * iw - 4.0,                     # a17
            -4.0 * (iw - 3.0),                  # a18
            -4.0 * (2.0 * iw - 1.0),            # a20
            den3)


def _stable_m2(w: float, x):
    """[b_5, b_4, b_3] of the m=2 curve basis at x, from non-positive
    exponents only; at x = 1 - t the same values are [b_0, b_1, b_2] of t
    (mirror symmetry).  The side computes each of its exponentials once:
    e^{-wx}, e^{w(x-1)} and e^{2w(x-1)}, and e^{-2wx} as e^{-wx} squared."""
    (ew, e2, e3, e4, e5, mw12, den5,
     c2, c7, c9, c10, c12, c13, c14, c15, c17, c18, c22, den4,
     iw, iw3, iw9, a1, a3, a5, a6, a7, a8, a10, a11, a12, a13, a15, a16, a17,
     a18, a20, den3) = _omega_stable_m2(w)
    ex = _ufunc(np.exp, -w * x)                  # e^{-wx}
    p1 = _ufunc(np.exp, w * (x - 1.0))           # e^{w(x-1)}
    d1 = _ufunc(np.exp, 2.0 * w * (x - 1.0))     # e^{2w(x-1)}
    ex2 = ex * ex                                # e^{-2wx}
    num = _sum_terms([ex2 * ex2, -8.0 * ex2 * ex, mw12 * x * ex2, 8.0 * ex, -1.0])
    b5 = num / den5 * d1

    ex3 = ex2 * ex
    p2 = p1 * ew                       # e^{w(x-2)}
    p3 = p1 * e2                       # e^{w(x-3)}
    p4 = p1 * e3                       # e^{w(x-4)}
    p5 = p1 * e4                       # e^{w(x-5)}
    wx = w * x
    lin4 = w * (5.0 * x - 3.0)
    num = _sum_terms([
        2.0 * (ex2 * e5),                       # e^{-w(2x+5)}
        3.0 * (1.0 + 2.0 * wx) * (ex * e5),     # e^{-w(x+5)}
        c2,
        p5,
        -2.0 * (ex3 * e4),                      # e^{-w(3x+4)}
        -2.0 * (ex2 * e4),                      # e^{-2w(x+2)}
        -3.0 * (9.0 + 10.0 * wx) * (ex * e4),   # e^{-w(x+4)}
        c7,
        -7.0 * p4,
        c9 * (ex3 * e3),                        # e^{-3w(x+1)}
        c10 * (ex2 * e3),                       # e^{-w(2x+3)}
        12.0 * (2.0 + lin4) * (ex * e3),
        c12,
        c13 * p3,
        c14 * (ex3 * e2),                       # e^{-w(3x+2)}
        c15 * (ex2 * e2),                       # e^{-2w(x+1)}
        12.0 * (2.0 - lin4) * (ex * e2),
        c17,
        c18 * p2,
        -7.0 * (ex3 * ew),                      # e^{-w(3x+1)}
        38.0 * (ex2 * ew),                      # e^{-w(2x+1)}
        -3.0 * (9.0 - 10.0 * wx) * (ex * ew),   # e^{-w(x+1)}
        c22,
        -2.0 * p1,
        ex3,
        -6.0 * ex2,
        3.0 * (1.0 - 2.0 * wx) * ex,
        2.0,
    ])
    b4 = num / den4 * p1

    pp = p1 * p1                       # e^{2w(x-1)}, with other bits than d1
    lin3 = 2.0 * (5.0 * x - 6.0)
    num = _sum_terms([
        (iw3 + 2.0 * x) * e5,
        a1 * p5,
        iw * (pp * e3),            # e^{w(2x-5)}
        a3 * (ex * e4),            # e^{-w(x+4)}
        (iw9 - lin3) * e4,
        a5 * p4,
        a6 * (pp * e2),            # e^{2w(x-2)}
        a7 * (ex2 * e3),           # e^{-w(2x+3)}
        a8 * (ex * e3),            # e^{-w(x+3)}
        -4.0 * (iw3 - 5.0 * x) * e3,
        a10 * p3,
        a11 * (pp * ew),           # e^{w(2x-3)}
        a12 * (ex2 * e2),          # e^{-2w(x+1)}
        a13 * (ex * e2),           # e^{-w(x+2)}
        -4.0 * (iw3 + 5.0 * x) * e2,
        a15 * p2,
        a16 * pp,
        a17 * (ex2 * ew),          # e^{-w(2x+1)}
        a18 * (ex * ew),           # e^{-w(x+1)}
        (iw9 + lin3) * ew,
        a20 * p1,
        iw * ex2,
        a1 * ex,
        iw3 - 2.0 * x,
    ])
    return [b5, b4, num / den3]


def _curve_basis_stable_m2(w: float, t: np.ndarray) -> np.ndarray:
    """The m=2 stable basis: the per-side form at 1 - t, then at t in
    reverse order.  Each side is its own call, unpaired (see README)."""
    return _stack(_stable_m2(w, 1.0 - t) + _stable_m2(w, t)[::-1])


def _taylor_m1(w: float, t: np.ndarray) -> np.ndarray:
    """The m=1 series, mirror-paired (see ``_mirror``)."""
    W = w * w

    def half(x, powers, _):
        x_3, = powers
        a = ((10.0 * x * x - 21.0) * x * x + 11.0)
        b0 = x_3 * ((a * W + 420.0 * (x * x - 1.0)) * W + 8400.0) / 8400.0
        a = (((30.0 * x - 40.0) * x + 23.0) * x - 12.0) * x - 3.0
        b = (3.0 * x - 2.0) * x + 1.0
        b1 = 3.0 * x * x * (1.0 - x) * ((a * W + 420.0 * b) * W + 25200.0) / 25200.0
        return [b0, b1]

    return _mirror(half, t, _CUBES)


def _taylor_m2(w: float, t: np.ndarray) -> np.ndarray:
    """The m=2 series, mirror-paired (see ``_mirror``)."""
    W = w * w

    def half(x, powers, _):
        x_5, x_4, x_3 = powers
        a = (49.0 * x * x - 100.0) * x * x + 51.0
        b0 = x_5 * ((a * W + 840.0 * (x * x - 1.0)) * W + 7056.0) / 7056.0
        a = (((245.0 * x - 196.0) * x - 96.0) * x + 44.0) * x - 1.0
        b = (5.0 * x - 2.0) * x - 1.0
        b1 = 5.0 * x_4 * (1.0 - x) * ((a * W + 840.0 * b) * W + 35280.0) / 35280.0
        a = (((245.0 * x - 392.0) * x + 253.0) * x - 82.0) * x + 3.0
        b = (10.0 * x - 8.0) * x + 3.0
        y = 1.0 - x
        b2 = 10.0 * x_3 * (y * y) * ((a * W + 420.0 * b) * W + 35280.0) / 35280.0
        return [b0, b1, b2]

    return _mirror(half, t, _FIFTH_TO_THIRD)


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
        form = _taylor_m1 if m == 1 else _taylor_m2
    elif mode is EvalMode.NAIVE:
        form = _curve_basis_naive_m1 if m == 1 else _curve_basis_naive_m2
    else:
        form = _curve_basis_stable_m1 if m == 1 else _curve_basis_stable_m2
    return _exact_ends(t, _on_floats(form, omega, t))


# ---------------------------------------------------------------------------
# corner-cut weights
# ---------------------------------------------------------------------------

def _tau_from_curve_basis(b: np.ndarray, t) -> np.ndarray:
    """Corner weights from curve-basis rows ``b`` via the defining ratios."""
    p = _columns(b)
    u = 1.0 - t
    u2 = u * u
    t2 = t * t
    if len(p) == 4:                     # m = 1
        tau0 = p[0] / u2
        tau1 = (p[0] + p[1] - u2) / (2.0 * t * u)
        tau2 = 1.0 - p[3] / t2
        return _stack([tau0, tau1, tau2])
    u3, u4, t3, t4 = _powers([u, u, t, t], _CUBE_FOURTH)
    tau0 = p[0] / u4
    tau1 = (p[0] + p[1] - u4) / (4.0 * t * u3)
    tau2 = ((p[0] + p[1] + p[2] - u4 - 4.0 * t * u3)
            / (6.0 * t2 * u2))
    tau3 = 1.0 - (p[4] + p[5] - t4) / (4.0 * t3 * u)
    tau4 = 1.0 - p[5] / t4
    return _stack([tau0, tau1, tau2, tau3, tau4])


@_per_omega
def _omega_tau_m1(w: float) -> tuple:
    """The omega-only factors of the stable m=1 weights: e^{-w}, the
    denominators, and every scalar factor their numerators fold up front.
    Each is the value the numerator's own left-to-right evaluation gives."""
    iw = 1.0 / w
    s1 = math.exp(-w)
    s2 = s1 * s1
    den_end = math.fsum([s1 * s1, 2.0 * w * s1, -1.0])
    d1 = 2.0 * (s1 + 1.0) * ((2.0 * iw + 1.0) * s1 - 2.0 * iw + 1.0)
    qa = 2.0 * iw + 1.0
    qb = 4.0 * iw + 1.0
    return (s1, den_end, d1, -2.0 * w * s1, 2.0 * w * s1, s2 - 1.0,
            qa * s2 - qa + 2.0, qb * s2 - qb + 2.0, iw * (s2 - 1.0), 2.0 * s1,
            iw * (1.0 + s1))


def _tau_stable_m1(w: float, t: np.ndarray) -> np.ndarray:
    # each numerator collected by its distinct array exponential, with
    # the scalar factors folded up front
    s1, den_end, d1, a0, a2, s2m1, pa, pb, pc, s1x2, k1 = _omega_tau_m1(w)
    E = _ufunc(np.exp, -w * t)           # e^{-wt}
    P = _ufunc(np.exp, w * (t - 1.0))    # e^{w(t-1)}
    u = t - 1.0
    tu = t * u
    n0 = a0 * u - E + s1 * P
    tau0 = n0 / ((u * u) * den_end)
    p0 = (pa * t - pb) * t + pc + s1x2 * tu
    n1 = p0 + k1 * E - k1 * P
    tau1 = n1 / (d1 * tu)
    n2 = s2m1 * (t * t) + a2 * tu - s1 * E + P
    tau2 = n2 / ((t * t) * den_end)
    return _stack([tau0, tau1, tau2])


@_per_omega
def _omega_tau_m2(w: float) -> tuple:
    """The omega-only factors of the stable m=2 weights: e^{-w}, e^{-2w},
    1/w, 2w, the denominators, the t^4 coefficient of tau_4's numerator,
    and every scalar factor the numerators fold up front.  Each is the
    value the numerator's own left-to-right evaluation gives."""
    iw = 1.0 / w
    s1 = math.exp(-w)
    s2 = s1 * s1
    s3 = s2 * s1
    s4 = s2 * s2
    den_end = math.fsum([-s4, 8.0 * s3, 12.0 * w * s2, -8.0 * s1, 1.0])
    den_mid = 4.0 * math.fsum([s3, 3.0 * (2.0 * w + 3.0) * s2,
                               3.0 * (2.0 * w - 3.0) * s1, -1.0])
    d2 = 12.0 * math.fsum([(3.0 * iw + 1.0) * s2, 4.0 * s1, -3.0 * iw, 1.0])
    c4 = math.fsum([-s4, 8.0 * s3, -8.0 * s1, 1.0])
    return (s1, s2, iw, 2.0 * w, den_end, den_mid, d2, c4,
            -12.0 * w * s2, 12.0 * w * s2, 8.0 * s1, 8.0 * s2, s3 - 1.0,
            3.0 * (s2 - s1), 3.0 * (s2 + s1), 6.0 * s1 + 2.0, 2.0 * s2 + 6.0 * s1,
            3.0 * iw, s2 - 1.0, s2 + 1.0 + 4.0 * s1, 4.0 * iw * (s1 + 1.0))


def _tau_stable_m2(w: float, t: np.ndarray) -> np.ndarray:
    # each numerator collected by its distinct array exponentials
    # {1, E, E^2, P, P^2} with the scalar factors folded up front
    (s1, s2, iw, w2, den_end, den_mid, d2, c4, a0, a4, s1x8, s2x8, s3m1, dif3,
     sum3, kE, kP, iw3, s2m1, k2b, k2) = _omega_tau_m2(w)
    E = _ufunc(np.exp, -w * t)           # e^{-wt}
    E2 = E * E
    P = _ufunc(np.exp, w * (t - 1.0))    # e^{w(t-1)}
    D = P * P
    u = t - 1.0
    t2 = t * t
    t3 = t2 * t
    t4 = t2 * t2
    u2 = u * u
    u4 = u2 * u2

    n0 = a0 * u - s1x8 * E + E2 + s2x8 * P - s2 * D
    tau0 = n0 / ((u4) * den_end)

    poly1 = ((3.0 * t - 12.0) * t + 18.0) * t2 - 12.0 * t + 2.0
    poly1w = w2 * t * (((t - 4.0) * t + 6.0) * t - 3.0)
    p0 = s3m1 * u4 + dif3 * poly1 + sum3 * poly1w
    n1 = p0 + kE * E - E2 - kP * P + s1 * D
    tau1 = n1 / (den_mid * (t * u * u2))

    # The e^{-2w} bracket of this numerator carries a plus sign; the
    # printed source has a spurious minus there (it contradicts the
    # defining ratio of the weight, cf. the transcription tests).
    poly2a = iw3 * (((6.0 * t - 16.0) * t + 12.0) * t2 - 1.0)
    poly2b = 2.0 * t * (((3.0 * t - 8.0) * t + 6.0) * t - 1.0)
    p0 = s2m1 * poly2a + k2b * poly2b
    n2 = p0 - k2 * E + iw * E2 + k2 * P - iw * D
    tau2 = n2 / (d2 * (t2 * u2))

    poly3 = t3 * (3.0 * t - 4.0)
    poly3a = w2 * t * (((3.0 * t - 4.0) * t2) + 1.0)
    poly3b = (9.0 * t - 12.0) * t3 + 1.0
    p0 = s3m1 * poly3 + sum3 * poly3a + dif3 * poly3b
    n3 = p0 + kP * E - s1 * E2 - kE * P + D
    tau3 = n3 / (den_mid * (t3 * u))

    p0 = c4 * t4 + a4 * (t * (t3 - 1.0))
    n4 = p0 - s2x8 * E + s2 * E2 + s1x8 * P - D
    tau4 = n4 / (t4 * den_end)

    return _stack([tau0, tau1, tau2, tau3, tau4])


def corner_weights(m: int, omega: float, t, mode: EvalMode = EvalMode.AUTO) -> np.ndarray:
    """Weights of the corner-cutting pass onto a degree-2m Bernstein polygon.

    Only defined strictly inside (0, 1): the defining ratios have
    removable discontinuities at the endpoints, where ``eval_new`` takes
    the end control points instead.  Near t = 0 the ratios divide by
    t^(2m), which underflows: in AUTO, NAIVE and TAYLOR5 mode the
    weights are NaN from about t = 1e-161 (m=1) and t = 1e-81 (m=2)
    down; explicit stable weights below their omega band turn NaN
    earlier (m=2: from 5.6e-78 at omega = 1e-3).  Well before that the
    stable m=1 tau_1 is wrong: its numerator cancels, so its error grows
    like 1e-16 / t (tau_1 = -1.05e33 at omega = 4, t = 1e-50, where the
    true value is about 1), and ``eval_new`` is O(1) wrong there.  No
    series fallback is applied.

    The m=1 weights lie in [0, 1], to rounding, at every omega tried
    from 1e-4 to 650.  The m=2 weights leave [0, 1] between omega = 6
    and 7: on t in [1e-3, 1 - 1e-3] the smallest is -0.083 at omega = 7,
    -0.389 at 10, -4.47 at 50 and -65.5 at 650, about -omega/10 (the
    largest is 1 minus it).  So the m=2 first stage of ``eval_new``
    extrapolates there rather than cutting corners.
    """
    _check_m(m)
    omega = _check_omega(omega)
    t = _check_t(t, open_interval=True)
    mode = resolve_mode(mode, m, omega, "tau")
    if mode is EvalMode.STABLE_LARGE_OMEGA:
        return _on_floats(_tau_stable_m1 if m == 1 else _tau_stable_m2, omega, t)
    return _on_floats(_tau_from_curve_basis, curve_basis(m, omega, t, mode), t)
