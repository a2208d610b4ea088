"""First-order Hermite interpolation by PH curves of order m=2.

Given endpoints and end derivatives, the quaternion preimage
coefficients have a closed-form one-parameter-family solution: the end
coefficients solve the sandwich equations for the end derivatives, and
the middle coefficient solves a third sandwich equation whose right
side collects the endpoint displacement.  Three free angles
parameterize the family; only their differences matter, and the planar
case collapses to four sign choices.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import basis
from .curve import EphCurve, Preimage, curve_from_preimage
from .errors import DegenerateDirectionError, ZeroVectorError
from .quat import solve_sandwich, sym_sandwich_i

__all__ = [
    "HermiteProblem",
    "AngleChoice",
    "PlanarSolutionTag",
    "HermiteSolution",
    "solve_spatial",
    "solve_planar",
    "reproduce_hyperbolic",
]

C_DEGENERACY_RTOL = 1e-14


def _as_point(v, name: str) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.shape not in ((2,), (3,)):
        raise ValueError("%s must be a 2- or 3-vector" % name)
    if not np.all(np.isfinite(a)):
        raise ValueError("%s must be finite" % name)
    return a


@dataclass(frozen=True)
class HermiteProblem:
    """Endpoints, end derivatives and the shape parameter."""

    r0: np.ndarray
    r_end: np.ndarray
    di: np.ndarray
    df: np.ndarray
    omega: float

    def __post_init__(self):
        object.__setattr__(self, "r0", _as_point(self.r0, "r0"))
        object.__setattr__(self, "r_end", _as_point(self.r_end, "r_end"))
        object.__setattr__(self, "di", _as_point(self.di, "di"))
        object.__setattr__(self, "df", _as_point(self.df, "df"))
        dims = {a.shape[0] for a in (self.r0, self.r_end, self.di, self.df)}
        if len(dims) != 1:
            raise ValueError("all problem vectors must share one dimension")
        object.__setattr__(self, "omega", basis._check_omega(self.omega))
        if math.hypot(*self.di) == 0.0 or math.hypot(*self.df) == 0.0:
            raise ZeroVectorError("end derivatives must be nonzero")

    @property
    def dim(self) -> int:
        return self.r0.shape[0]


@dataclass(frozen=True)
class AngleChoice:
    """Free angles of the solution family, stored as (eta0, eta1, eta2)."""

    eta0: float
    eta1: float
    eta2: float

    @classmethod
    def from_mean_delta(cls, eta_m: float, delta_eta: float,
                        eta1: float = 0.0) -> "AngleChoice":
        """Mean/difference parametrization: eta0,2 = eta_m -+ delta_eta/2."""
        return cls(eta_m - delta_eta / 2.0, eta1, eta_m + delta_eta / 2.0)


class PlanarSolutionTag(enum.Enum):
    """Sign choices of the two end coefficients (middle taken positive)."""

    PP = "++"
    PM = "+-"
    MP = "-+"
    MM = "--"


_TAG_ANGLES = {
    PlanarSolutionTag.PP: (0.0, 0.0),
    PlanarSolutionTag.PM: (0.0, math.pi),
    PlanarSolutionTag.MP: (math.pi, 0.0),
    PlanarSolutionTag.MM: (math.pi, math.pi),
}


@dataclass(frozen=True)
class HermiteSolution:
    """Interpolating curve together with the preimage that produced it."""

    curve: EphCurve
    preimage: Preimage


def _embed3(a: np.ndarray) -> np.ndarray:
    if a.shape == (3,):
        return a
    return np.array([a[0], a[1], 0.0])


def solve_spatial(problem: HermiteProblem, angles: AngleChoice) -> HermiteSolution:
    """Solve the four C1 conditions with the given free angles.

    Raises the sandwich-solver errors if an end derivative (or the
    derived middle direction) is zero or antiparallel to the x-axis;
    the middle direction vanishing exactly is reported rather than
    silently given an arbitrary orientation.
    """
    w = problem.omega
    r0 = _embed3(problem.r0)
    r_end = _embed3(problem.r_end)
    di = _embed3(problem.di)
    df = _embed3(problem.df)

    a0 = solve_sandwich(di, angles.eta0)
    a2 = solve_sandwich(df, angles.eta2)

    c = basis.constants(2, w)
    i0 = c.q2
    i1 = 0.5 * c.q3
    i2 = 0.5 * c.q4
    i3 = c.q4_q0_over_q1

    cross = sym_sandwich_i(a0, a2)
    cvec = (i3 * (r_end - r0) + (i1 * i1 - i0 * i3) * (di + df)
            + (i1 * i1 - i2 * i3) * 2.0 * cross)
    scale = 1.0 + max(math.hypot(*(r_end - r0)), math.hypot(*di), math.hypot(*df))
    if math.hypot(*cvec) < C_DEGENERACY_RTOL * scale:
        raise DegenerateDirectionError(
            "middle-coefficient direction vanishes for this data")
    ahat = solve_sandwich(cvec, angles.eta1)
    a1 = (1.0 / i3) * (ahat - i1 * (a0 + a2))

    preimage = Preimage(m=2, omega=w, coeffs=(a0, a1, a2))
    curve = curve_from_preimage(preimage, r0)
    return HermiteSolution(curve=curve, preimage=preimage)


def solve_planar(problem: HermiteProblem, tag: PlanarSolutionTag) -> HermiteSolution:
    """Planar solution for one of the four sign choices.

    The data is embedded in the z=0 plane, solved spatially with the
    middle angle fixed to 0 and the end angles in {0, pi} per the tag,
    and the (constant-z) result is projected back to 2D.
    """
    if problem.dim != 2:
        raise ValueError("solve_planar expects 2D problem data")
    eta0, eta2 = _TAG_ANGLES[tag]
    sol = solve_spatial(problem, AngleChoice(eta0, 0.0, eta2))
    flat = EphCurve(m=2, omega=problem.omega, dim=2,
                    control_points=sol.curve.control_points[:, :2])
    return HermiteSolution(curve=flat, preimage=sol.preimage)


def reproduce_hyperbolic(omega: float) -> EphCurve:
    """The ++ planar interpolant to data sampled from a scaled cosh.

    With endpoints and end slopes taken from y = cosh(2*omega*x)/(2*omega)
    on [0, 1], the interpolant reproduces that graph exactly (up to the
    parametrization along it).
    """
    w = basis._check_omega(omega)
    problem = HermiteProblem(
        r0=(0.0, 1.0 / (2.0 * w)),
        r_end=(1.0, math.cosh(2.0 * w) / (2.0 * w)),
        di=(1.0, 0.0),
        df=(1.0, math.sinh(2.0 * w)),
        omega=w,
    )
    return solve_planar(problem, PlanarSolutionTag.PP).curve
