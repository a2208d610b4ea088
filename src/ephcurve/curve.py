"""Bezier-like curves over the curve spaces and their PH construction.

A curve of order m is a combination of 2m+2 control points with the
normalized curve basis.  PH curves arise from a quaternion preimage:
the hodograph is the pure-vector product ``A(t) i A*(t)``, the control
points follow from closed-form recurrences in the scalar constants, and
the parametric speed and arc length have exact coefficient expansions
over the hodograph and curve bases respectively.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import basis
from .basis import EvalMode
from .quat import Quaternion, dot, sym_sandwich_i

__all__ = [
    "EphCurve",
    "CurveBatch",
    "Preimage",
    "eval_direct",
    "derivative",
    "curve_from_preimage",
    "hodograph",
    "parametric_speed_coeffs",
    "arc_length_coeffs",
    "parametric_speed",
    "arc_length",
    "is_regular",
]

def _validate(record, stacked: bool) -> None:
    """Checks shared by ``EphCurve`` and ``CurveBatch``; freezes the points.

    A stacked record holds N >= 1 polygons, shape (N, 2m+2, dim).
    """
    basis._check_m(record.m)
    if record.dim not in (2, 3):
        raise ValueError("dim must be 2 or 3")
    omega = basis._check_omega(record.omega)
    n = 2 * record.m + 2
    pts = np.array(record.control_points, dtype=float)
    if pts.ndim != 2 + stacked or pts.shape[-2] != n:
        raise ValueError("expected %s%d control points, got array of shape %s"
                         % ("a stack of " if stacked else "", n, pts.shape))
    if stacked and len(pts) == 0:
        raise ValueError("a curve batch needs at least one polygon")
    if pts.shape[-1] != record.dim:
        raise ValueError("control points are %dD but dim=%d declared"
                         % (pts.shape[-1], record.dim))
    if not np.all(np.isfinite(pts)):
        raise ValueError("control points must be finite")
    pts.setflags(write=False)
    object.__setattr__(record, "control_points", pts)
    object.__setattr__(record, "omega", omega)


@dataclass(frozen=True)
class EphCurve:
    """Immutable Bezier-like curve: order m, shape omega, 2m+2 control points."""

    m: int
    omega: float
    dim: int
    control_points: np.ndarray

    def __post_init__(self):
        _validate(self, stacked=False)

    def to_dict(self) -> dict:
        return {"m": self.m, "omega": self.omega, "dim": self.dim,
                "control_points": self.control_points.tolist()}

    @classmethod
    def from_dict(cls, doc: dict) -> "EphCurve":
        return cls(m=int(doc["m"]), omega=float(doc["omega"]),
                   dim=int(doc["dim"]), control_points=doc["control_points"])

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "EphCurve":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class CurveBatch:
    """N curves sharing one order m and shape omega, for batched evaluation.

    ``control_points`` has shape (N, 2m+2, dim) with N >= 1, checked as
    ``EphCurve`` checks one polygon.  The evaluators compute the basis
    and weights, which depend only on (m, omega, t), once per call and
    return shape (N,) + t.shape + (dim,); row i is bitwise the result
    for the curve with polygon ``control_points[i]``.
    """

    m: int
    omega: float
    dim: int
    control_points: np.ndarray

    def __post_init__(self):
        _validate(self, stacked=True)


def _as_quaternion(c) -> Quaternion:
    if isinstance(c, Quaternion):
        return c
    w, x, y, z = (float(v) for v in c)
    return Quaternion(w, x, y, z)


@dataclass(frozen=True)
class Preimage:
    """Quaternion coefficients of the preimage over the preimage basis.

    The curve built from it is regular iff the four coefficient
    functions have no common root on [0, 1], which :func:`is_regular`
    tests exactly.  An all-zero preimage is accepted (it yields the
    degenerate point curve with zero speed and length); non-finite
    coefficients raise ``ValueError``.

    The speed coefficients sigma and the arc-length coefficients s are
    derived once per preimage, on first use, and kept read-only; fields,
    equality, hash and ``to_dict`` do not see them.
    """

    m: int
    omega: float
    coeffs: tuple

    def __post_init__(self):
        basis._check_m(self.m)
        omega = basis._check_omega(self.omega)
        cs = tuple(_as_quaternion(c) for c in self.coeffs)
        if len(cs) != self.m + 1:
            raise ValueError("preimage of order m=%d needs %d quaternion "
                             "coefficients, got %d" % (self.m, self.m + 1, len(cs)))
        if not all(math.isfinite(v) for q in cs for v in q.components()):
            raise ValueError("preimage coefficients must be finite")
        object.__setattr__(self, "coeffs", cs)
        object.__setattr__(self, "omega", omega)

    @functools.cached_property
    def _speed_length(self) -> tuple:
        """(sigma, s), read-only: the speed coefficients over the hodograph
        basis and the cumulative arc-length coefficients over the curve
        basis."""
        c = basis.constants(self.m, self.omega)
        sigma = np.array(_hodograph_coeffs(self.m, c, self.coeffs, dot))
        s = np.concatenate([[0.0], np.cumsum(_integral_weights(self.m, c) * sigma)])
        sigma.setflags(write=False)
        s.setflags(write=False)
        return sigma, s

    def coeff_array(self) -> np.ndarray:
        return np.array([c.components() for c in self.coeffs], dtype=float)

    def to_dict(self) -> dict:
        return {"m": self.m, "omega": self.omega,
                "coeffs": [list(c.components()) for c in self.coeffs]}

    @classmethod
    def from_dict(cls, doc: dict) -> "Preimage":
        return cls(m=int(doc["m"]), omega=float(doc["omega"]),
                   coeffs=tuple(doc["coeffs"]))

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "Preimage":
        return cls.from_dict(json.loads(text))


def eval_direct(curve: EphCurve | CurveBatch, t,
                mode: EvalMode = EvalMode.AUTO) -> np.ndarray:
    """Evaluate the curve by direct summation against the curve basis."""
    b = basis.curve_basis(curve.m, curve.omega, t, mode)
    cp = curve.control_points
    # one (2m+2, dim) matrix per curve, broadcast over the leading axes of t
    lift = (1,) * max(b.ndim - 2, 0)
    return b @ cp.reshape(cp.shape[:-2] + lift + cp.shape[-2:])


def _integral_weights(m: int, c) -> np.ndarray:
    """Antiderivative weights of the hodograph basis, from the constants."""
    if m == 1:
        return np.array([c.c2, c.c3_over_c1, c.c2])
    return np.array([c.q2, c.q3, c.q4_over_q1, c.q3, c.q2])


def derivative(curve: EphCurve, t) -> np.ndarray:
    """Derivative of the curve: hodograph-basis combination of the
    forward differences scaled by the basis integrals."""
    w = _integral_weights(curve.m, basis.constants(curve.m, curve.omega))
    diffs = np.diff(curve.control_points, axis=0) / w[:, None]
    b = basis.hodograph_basis(curve.m, curve.omega, t)
    return b @ diffs


def _hodograph_coeffs(m: int, c, a, product) -> list:
    """Hodograph-basis coefficients of ``A A`` under the bilinear ``product``.

    Products of preimage-basis functions are hodograph-basis
    combinations; ``c1`` (m=1) and ``q0``, ``q1`` (m=2) are the linking
    constants.  With ``product=dot`` this is the speed, with the
    symmetric sandwich it is the hodograph itself.
    """
    p = product
    if m == 1:
        return [p(a[0], a[0]), c.c1 * p(a[0], a[1]), p(a[1], a[1])]
    return [p(a[0], a[0]), p(a[0], a[1]),
            c.q0 * p(a[1], a[1]) + c.q1 * p(a[0], a[2]),
            p(a[1], a[2]), p(a[2], a[2])]


def curve_from_preimage(preimage: Preimage, r0) -> EphCurve:
    """Control points of the PH curve with hodograph ``A(t) i A*(t)``.

    ``r0`` is the free integration constant.  The result is always a
    spatial (3D) curve; planar data should be embedded with the j/k
    mixing components set to zero and projected afterwards.
    """
    r0 = np.asarray(r0, dtype=float)
    if r0.shape != (3,):
        raise ValueError("r0 must be a 3-vector")
    m = preimage.m
    c = basis.constants(m, preimage.omega)
    h = np.array(_hodograph_coeffs(m, c, preimage.coeffs, sym_sandwich_i))
    deltas = _integral_weights(m, c)[:, None] * h
    pts = np.cumsum(np.vstack([r0, deltas]), axis=0)
    return EphCurve(m=m, omega=preimage.omega, dim=3, control_points=pts)


def hodograph(preimage: Preimage, t) -> np.ndarray:
    """Evaluate ``A(t) i A*(t)`` with A expanded over the preimage basis."""
    psi = basis.preimage_basis(preimage.m, preimage.omega, t)
    A = psi @ preimage.coeff_array()          # (..., 4) components w,x,y,z
    w, x, y, z = A[..., 0], A[..., 1], A[..., 2], A[..., 3]
    return basis._stack([
        w * w + x * x - y * y - z * z,
        2.0 * (x * y + w * z),
        2.0 * (x * z - w * y),
    ])


def parametric_speed_coeffs(preimage: Preimage) -> np.ndarray:
    """Coefficients sigma of |r'(t)| over the hodograph basis.

    Returns a float array of shape (2m+1,), one real per hodograph-basis
    function: the quaternionic cross terms reduce to 4-component dot
    products, so all coefficients are plain reals.  The array is a fresh
    copy of the preimage's own.
    """
    return preimage._speed_length[0].copy()


def arc_length_coeffs(preimage: Preimage) -> np.ndarray:
    """Cumulative arc-length coefficients s over the curve basis.

    Returns a float array of shape (2m+2,), one real per curve-basis
    function, with s[0] = 0 and s[-1] the total length.  The array is a
    fresh copy of the preimage's own.
    """
    return preimage._speed_length[1].copy()


def parametric_speed(preimage: Preimage, t) -> np.ndarray:
    """|r'(t)| evaluated from the closed-form speed coefficients."""
    sigma = preimage._speed_length[0]
    return basis.hodograph_basis(preimage.m, preimage.omega, t) @ sigma


def arc_length(preimage: Preimage, t, mode: EvalMode = EvalMode.AUTO) -> np.ndarray:
    """Arc length from 0 to t evaluated from the closed-form coefficients."""
    s = preimage._speed_length[1]
    return basis.curve_basis(preimage.m, preimage.omega, t, mode) @ s


def _vanishes(c0, c1, c2) -> bool:
    """Whether the quaternion polynomial c0 + x c1 + x^2 c2, each
    coefficient given by its four components, has a root on [0, 1]: a
    point where all four components vanish at once.

    The candidates are x = 0 and every component's two roots from the
    stable quadratic formula, taken on coefficients scaled to at most 1
    so that nothing overflows.  A negative discriminant is taken as 0, so
    a double root that rounding turned complex still yields its real
    part; candidates are clamped into [0, 1].  A candidate is a root when
    every component has |c0 + x c1 + x^2 c2| <= 64 eps (|c0| + x |c1| +
    x^2 |c2|), the rounding of its own terms.
    """
    xs = [0.0]
    for a, b, c in zip(c0, c1, c2):
        s = max(abs(a), abs(b), abs(c))
        if s == 0.0:
            continue                    # this component vanishes everywhere
        a, b, c = a / s, b / s, c / s
        q = -0.5 * (b + math.copysign(math.sqrt(max(b * b - 4.0 * a * c, 0.0)), b))
        if c != 0.0:
            xs.append(q / c)
        if q != 0.0:
            xs.append(a / q)
    tol = 64.0 * sys.float_info.epsilon
    for x in xs:
        x = min(max(x, 0.0), 1.0)
        if all(abs(a + x * (b + x * c)) <= tol * (abs(a) + x * (abs(b) + x * abs(c)))
               for a, b, c in zip(c0, c1, c2)):
            return True
    return False


def is_regular(preimage: Preimage) -> bool:
    """Whether the curve's speed has no zero on [0, 1]: the exact test
    that the four coefficient functions of A(t) have no common root.

    With p0, p1 the m=1 preimage basis and x = p1/p0, which runs over
    [0, inf] as t runs over [0, 1], A = p0^m Q(x) with

        m=1:  Q = a0 + x a1,
        m=2:  Q = a0 + (2/c1) x a1 + x^2 a2,

    because the m=2 preimage basis is (p0^2, (2/c1) p0 p1, p1^2), the
    identity behind ``_hodograph_coeffs``.  p0 > 0 on [0, 1), so A
    vanishes somewhere iff Q has a root on [0, 1] or its mirror (the
    coefficients reversed, x -> 1/x) has one; the m=2 halves are
    multiplied by c1/2 so that no term grows with omega.  The m=1 verdict
    does not depend on omega: a0 and a1 must be nonzero and not
    antiparallel.  A root counts up to the rounding of Q's own terms,
    64 eps of their magnitudes (see ``_vanishes``).

    The m=2 verdict is exact to that bound while c1 = 1/cosh(omega/2) is
    a normal double, omega below about 1416.  Above, c1 loses digits, and
    from omega ~ 1490, where it underflows to 0, every m=2 preimage reads
    as singular.
    """
    # as Python floats: numpy scalars would warn where a far root overflows
    a = [[float(v) for v in q.components()] for q in preimage.coeffs]
    if preimage.m == 1:
        zero = (0.0,) * 4
        halves = ((a[0], a[1], zero), (a[1], a[0], zero))
    else:
        h = 0.5 * basis.constants(1, preimage.omega).c1
        a0, a2 = [h * v for v in a[0]], [h * v for v in a[2]]
        halves = ((a0, a[1], a2), (a2, a[1], a0))
    return not any(_vanishes(*half) for half in halves)
