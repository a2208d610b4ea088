"""Stability and timing studies of the evaluation algorithms.

The stability metric compares each evaluator against the fifth-order
series basis on a sweep of small shape parameters: for every omega the
largest relative deviation (infinity norm over a parameter grid) across
a batch of random control polygons is recorded.  Exact evaluation makes
the metric shrink with omega (series truncation only); where an
evaluator's arithmetic breaks down the metric turns back up, and the
location of the minimum is that evaluator's accuracy breakpoint.  All
polygons of the sweep share each omega, so they are evaluated together
as a ``CurveBatch``: the basis and weights are built once per omega and
block of polygons, and each curve's values are bitwise those of
evaluating it alone.

The timing harness measures wall-clock medians of repeated whole-grid
evaluations, recomputing every auxiliary function per curve just as a
caller evaluating one curve at a time would.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from . import basis
from .basis import EvalMode, taylor_curve_basis
from .curve import CurveBatch, EphCurve
from .evaluators import EvalMethod, evaluate

__all__ = [
    "RhoConfig",
    "BreakpointResult",
    "TimingRow",
    "default_omega_grid",
    "rho",
    "find_omega_bar",
    "time_methods",
]


def default_omega_grid(n: int = 500, upper: float = 2.0) -> np.ndarray:
    """n equispaced omega values in (0, upper]."""
    return upper * np.arange(1, n + 1) / n


def _check_integers(**sizes) -> None:
    """ValueError for a size that is not an integer, before numpy's
    TypeError would name a float it cannot interpret."""
    for name, size in sizes.items():
        if not isinstance(size, numbers.Integral):
            raise ValueError("%s must be an integer, got %r" % (name, size))


@dataclass(frozen=True)
class RhoConfig:
    """Configuration of the stability sweep."""

    d: int = 3
    m: int = 1
    n_curves: int = 100
    grid_points: int = 501
    omega_grid: np.ndarray = field(default_factory=default_omega_grid)
    seed: int = 0

    def __post_init__(self):
        _check_integers(d=self.d, m=self.m, n_curves=self.n_curves,
                        grid_points=self.grid_points)
        if self.d not in (2, 3):
            raise ValueError("d must be 2 or 3")
        basis._check_m(self.m)
        if self.n_curves < 1 or self.grid_points < 2:
            raise ValueError("need at least one curve and two grid points")
        grid = np.asarray(self.omega_grid, dtype=float)
        _check_omega_list(grid)
        for w in grid:
            basis._check_omega(w)
        grid.setflags(write=False)
        object.__setattr__(self, "omega_grid", grid)

    def draw_polygons(self) -> np.ndarray:
        """The fixed batch of random control polygons, coordinates in (0,1)."""
        rng = np.random.default_rng(self.seed)
        n = 2 * self.m + 2
        pts = rng.uniform(0.0, 1.0, size=(self.n_curves, n, self.d))
        # open interval: redraw exact zeros (probability ~0, but the
        # denominator positivity argument relies on it)
        while np.any(pts == 0.0):
            pts[pts == 0.0] = rng.uniform(0.0, 1.0, size=int(np.sum(pts == 0.0)))
        return pts


@dataclass(frozen=True)
class BreakpointResult:
    """argmin of the stability metric over the configured omega grid."""

    method: EvalMethod
    omega_bar: float
    rho_at_min: float


@dataclass(frozen=True)
class TimingRow:
    method: EvalMethod
    omega: float
    median_seconds: float


def _check_omega_list(omegas: np.ndarray) -> None:
    """A sweep needs a non-empty, one-dimensional list of omegas."""
    if omegas.ndim != 1 or omegas.size == 0:
        raise ValueError("need a non-empty one-dimensional list of omegas, got shape %s"
                         % (omegas.shape,))


def _rho_mode(method: EvalMethod) -> EvalMode:
    # The sweep probes each algorithm's own production arithmetic: the
    # large-omega-stable forms for the three algorithms, the plain
    # hyperbolic forms for the direct baseline.  (AUTO would hand the
    # small-omega range to the series basis, which is the metric's
    # reference, and the sweep would measure nothing.)
    if method is EvalMethod.DIRECT:
        return EvalMode.NAIVE
    return EvalMode.STABLE_LARGE_OMEGA


# Curve-points per batched evaluation in ``rho``: bounds its working
# memory whatever the number of curves, and holds the 100 x 501 of the
# acceptance sweep in one block.
_RHO_BLOCK_POINTS = 2 ** 16


def rho(config: RhoConfig, method: EvalMethod) -> np.ndarray:
    """Stability metric over the omega grid; returns (omega, rho) rows.

    At each omega the polygons go through the evaluator as ``CurveBatch``
    blocks of at most ``_RHO_BLOCK_POINTS`` curve-points (at least one
    curve per block).  Each block's deviation from the series reference is
    taken in place, in the (N, dim, t) layout the evaluators compute in,
    so the subtraction, the absolute value and the maximum run along
    contiguous t; they are elementwise, and the maximum is exact, so the
    metric has the bits of the same steps on (N, t, dim).
    """
    ts = np.linspace(0.0, 1.0, config.grid_points)
    polygons = config.draw_polygons()
    per_block = max(1, _RHO_BLOCK_POINTS // config.grid_points)
    blocks = [polygons[i:i + per_block] for i in range(0, len(polygons), per_block)]
    mode = _rho_mode(method)
    out = np.empty((len(config.omega_grid), 2))
    for i, w in enumerate(config.omega_grid):
        tmat = taylor_curve_basis(config.m, w, ts)
        worst = 0.0
        for cp in blocks:
            batch = CurveBatch(m=config.m, omega=float(w), dim=config.d,
                               control_points=cp)
            with np.errstate(all="ignore"):
                val = evaluate(batch, ts, method, mode)
            ref = tmat @ cp
            # the difference in the evaluators' own (N, dim, t) layout:
            # the corner-cut evaluators return (N, t, dim) as a transposed
            # view of it, and only ref's operand is strided then
            diff = val.swapaxes(1, 2)
            diff -= ref.swapaxes(1, 2)
            num = np.max(np.abs(diff, out=diff), axis=(1, 2))
            den = np.max(np.abs(ref), axis=(1, 2))
            # an evaluator that produces non-finite output has failed
            # outright at this omega
            ratio = np.where(np.isfinite(num), num / den, np.inf)
            worst = max(worst, float(np.max(ratio)))
        out[i] = (w, worst)
    return out


def find_omega_bar(config: RhoConfig, method: EvalMethod) -> BreakpointResult:
    """Location and value of the minimum of the stability metric."""
    series = rho(config, method)
    k = int(np.argmin(series[:, 1]))
    return BreakpointResult(method=method, omega_bar=float(series[k, 0]),
                            rho_at_min=float(series[k, 1]))


# The algorithms ``time_methods`` times, in the order of its rows.
_TIMED_METHODS = (EvalMethod.DECASTELJAU, EvalMethod.WOZNY_CHUDY, EvalMethod.NEW)


def time_methods(d: int, m: int, omega_list, n_curves: int = 1000,
                 grid_points: int = 501, repetitions: int = 5,
                 seed: int = 0) -> list:
    """Median wall time per (method, omega) for whole-grid evaluations.

    Strictly serial; every curve evaluation rebuilds its auxiliary
    functions, so the cost of basis/weight construction is part of the
    measurement.  All methods run their large-omega-stable arithmetic
    across the whole sweep (one shared policy, mirroring the stability
    study); the exponentials underflowing at very large omega are what
    makes those cells cheaper.  For m=2 at small omega those forms are
    inaccurate: against the mpmath oracle the basis is off by 1.5e-2 at
    omega = 0.097, 1.2e-5 at 0.2 and 4.4e-8 at 0.35, so there the
    timings measure cost, not correct output.  Absolute numbers are
    machine-bound; only the ordering between methods is meaningful.
    """
    _check_integers(n_curves=n_curves, grid_points=grid_points, repetitions=repetitions)
    if n_curves < 1 or grid_points < 2 or repetitions < 1:
        raise ValueError("need at least one curve, two grid points and one repetition")
    _check_omega_list(np.asarray(omega_list, dtype=float))
    polygons = np.random.default_rng(seed).uniform(0.0, 1.0, (n_curves, 2 * m + 2, d))
    ts = np.linspace(0.0, 1.0, grid_points)
    rows = []
    for method in _TIMED_METHODS:
        for w in omega_list:
            batch = [EphCurve(m=m, omega=float(w), dim=d, control_points=cp)
                     for cp in polygons]
            times = []
            for _ in range(repetitions):
                t0 = time.perf_counter()
                for curve in batch:
                    evaluate(curve, ts, method, EvalMode.STABLE_LARGE_OMEGA)
                times.append(time.perf_counter() - t0)
            rows.append(TimingRow(method=method, omega=float(w),
                                  median_seconds=float(np.median(times))))
    return rows
