"""Quaternion arithmetic and the sandwich maps used to build hodographs.

The hodograph of a spatial PH curve is written as the pure-vector product
``A i A*``; constructing curves needs that product, its symmetric
bilinear companion ``(A i B* + B i A*)/2``, and the inverse problem of
finding ``A`` with ``A i A* = d`` for a given vector ``d``.

Quaternions are ``Quaternion`` records; a pure vector ``x*i + y*j + z*k``
is a float array ``[x, y, z]`` of shape (3,), the type the curve layer
works in.  The sandwich maps return such arrays and ``solve_sandwich``
takes any length-3 sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDirectionError, ZeroVectorError

DEGENERATE_AXIS_TOL = 1e-9


@dataclass(frozen=True)
class Quaternion:
    """Quaternion ``w + x*i + y*j + z*k`` with real components."""

    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            return mul(self, other)
        return Quaternion(self.w * other, self.x * other,
                          self.y * other, self.z * other)

    def __rmul__(self, scalar) -> "Quaternion":
        return Quaternion(self.w * scalar, self.x * scalar,
                          self.y * scalar, self.z * scalar)

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm(self) -> float:
        return math.hypot(self.w, self.x, self.y, self.z)

    def __abs__(self) -> float:
        return self.norm()

    def components(self) -> tuple:
        return (self.w, self.x, self.y, self.z)


I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


def mul(p: Quaternion, q: Quaternion) -> Quaternion:
    """Hamilton product with i*j = k, j*k = i, k*i = j."""
    return Quaternion(
        p.w * q.w - p.x * q.x - p.y * q.y - p.z * q.z,
        p.w * q.x + p.x * q.w + p.y * q.z - p.z * q.y,
        p.w * q.y - p.x * q.z + p.y * q.w + p.z * q.x,
        p.w * q.z + p.x * q.y - p.y * q.x + p.z * q.w,
    )


def dot(p: Quaternion, q: Quaternion) -> float:
    """4-component inner product; equals the scalar part of (p q* + q p*)/2."""
    return p.w * q.w + p.x * q.x + p.y * q.y + p.z * q.z


def sym_sandwich_i(a: Quaternion, b: Quaternion) -> np.ndarray:
    """Return ``(a i b* + b i a*)/2``: the bilinear form polarizing sandwich_i.

    The product is a pure quaternion; its (i, j, k) components come back
    as a float array of shape (3,).  Term grouping keeps the result
    bitwise symmetric in (a, b).
    """
    return np.array([
        (a.w * b.w + b.w * a.w) * 0.5 + (a.x * b.x + b.x * a.x) * 0.5
        - (a.y * b.y + b.y * a.y) * 0.5 - (a.z * b.z + b.z * a.z) * 0.5,
        (a.x * b.y + b.x * a.y) + (a.w * b.z + b.w * a.z),
        (a.x * b.z + b.x * a.z) - (a.w * b.y + b.w * a.y),
    ], dtype=float)


def sandwich_i(a: Quaternion) -> np.ndarray:
    """Return the (i, j, k) components of ``a i a*``, shape (3,).

    Always a pure vector with norm |a|^2; coincides bitwise with
    ``sym_sandwich_i(a, a)``.
    """
    return sym_sandwich_i(a, a)


def exp_i(eta: float) -> Quaternion:
    """Unit quaternion cos(eta) + sin(eta) i."""
    return Quaternion(math.cos(eta), math.sin(eta), 0.0, 0.0)


def solve_sandwich(d, eta: float) -> Quaternion:
    """Solve ``A i A* = d`` for A, with free angle ``eta``.

    ``d`` is any length-3 sequence of reals, the (i, j, k) components of
    the pure quaternion to match (a shape-(3,) array included).  The
    one-parameter family of solutions is
    ``A = sqrt(|d|) * (i + w)/|i + w| * exp(eta*i)`` with ``w = d/|d|``;
    ``|d|`` is taken with ``math.hypot``, so it neither overflows nor
    underflows while representable.

    Raises
    ------
    ValueError
        if ``d`` or ``eta`` is not finite.
    ZeroVectorError
        if ``|d| = 0``.
    DegenerateDirectionError
        if ``d`` is antiparallel to (1, 0, 0) within tolerance: there
        ``|i + w|`` vanishes and the formula is singular.  No silent
        reorientation is applied; callers must choose their own gauge.
    """
    x, y, z = (float(v) for v in d)
    if not all(map(math.isfinite, (x, y, z, eta))):
        raise ValueError("solve_sandwich needs finite data, got d=(%r, %r, %r), eta=%r"
                         % (x, y, z, eta))
    nd = math.hypot(x, y, z)
    if nd == 0.0:
        raise ZeroVectorError("cannot solve A i A* = d for d = 0")
    lam, mu, nu = x / nd, y / nd, z / nd
    base = Quaternion(0.0, 1.0 + lam, mu, nu)  # i + w as a pure quaternion
    nb = base.norm()
    if nb < DEGENERATE_AXIS_TOL:
        raise DegenerateDirectionError(
            "direction antiparallel to the x-axis: |i + w| = %.3e" % nb)
    scale = math.sqrt(nd) / nb
    return mul(scale * base, exp_i(eta))
