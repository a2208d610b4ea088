"""Bezier-like curves over the curve spaces and their PH construction.

A curve of order m is a combination of 2m+2 control points with the
normalized curve basis.  PH curves arise from a quaternion preimage:
the hodograph is the pure-vector product ``A(t) i A*(t)``, the control
points follow from closed-form recurrences in the scalar constants, and
the parametric speed and arc length have exact coefficient expansions
over the hodograph and curve bases respectively.
"""

from __future__ import annotations

import json
import math
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

REGULARITY_GRID = 2001
REGULARITY_RTOL = 1e-12


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
    functions have no common root; see :func:`is_regular` for the
    numerical proxy.  An all-zero preimage is accepted (it yields the
    degenerate point curve with zero speed and length); non-finite
    coefficients raise ``ValueError``.
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
    return np.stack([
        w * w + x * x - y * y - z * z,
        2.0 * (x * y + w * z),
        2.0 * (x * z - w * y),
    ], axis=-1)


def parametric_speed_coeffs(preimage: Preimage) -> np.ndarray:
    """Coefficients sigma of |r'(t)| over the hodograph basis.

    Returns a float array of shape (2m+1,), one real per hodograph-basis
    function: the quaternionic cross terms reduce to 4-component dot
    products, so all coefficients are plain reals.
    """
    c = basis.constants(preimage.m, preimage.omega)
    return np.array(_hodograph_coeffs(preimage.m, c, preimage.coeffs, dot))


def arc_length_coeffs(preimage: Preimage) -> np.ndarray:
    """Cumulative arc-length coefficients s over the curve basis.

    Returns a float array of shape (2m+2,), one real per curve-basis
    function, with s[0] = 0 and s[-1] the total length.
    """
    m = preimage.m
    c = basis.constants(m, preimage.omega)
    sigma = np.array(_hodograph_coeffs(m, c, preimage.coeffs, dot))
    return np.concatenate([[0.0], np.cumsum(_integral_weights(m, c) * sigma)])


def parametric_speed(preimage: Preimage, t) -> np.ndarray:
    """|r'(t)| evaluated from the closed-form speed coefficients."""
    sigma = parametric_speed_coeffs(preimage)
    return basis.hodograph_basis(preimage.m, preimage.omega, t) @ sigma


def arc_length(preimage: Preimage, t, mode: EvalMode = EvalMode.AUTO) -> np.ndarray:
    """Arc length from 0 to t evaluated from the closed-form coefficients."""
    s = arc_length_coeffs(preimage)
    return basis.curve_basis(preimage.m, preimage.omega, t, mode) @ s


def is_regular(preimage: Preimage) -> bool:
    """Numerical proxy for regularity (speed bounded away from zero).

    Samples the parametric speed on a fixed uniform grid and requires
    the minimum to exceed a relative floor; this approximates the exact
    no-common-root condition on the preimage coefficient functions and
    can misclassify speeds vanishing only between grid nodes.
    """
    ts = np.linspace(0.0, 1.0, REGULARITY_GRID)
    sigma = parametric_speed(preimage, ts)
    top = float(np.max(sigma))
    if top <= 0.0:
        return False
    return float(np.min(sigma)) > REGULARITY_RTOL * top
