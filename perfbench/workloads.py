"""The benchmark's three closed-loop workloads.

Each workload is built from a seed, then runs whole rounds: a round is
a fixed list of library calls, so every run attempts the same mix of
operations whatever its length.  A workload records into a
``Recorder`` per round: the time of every operation and of every
curve evaluation in it, and the operations that failed.  ``check`` runs after
the timed loop and returns a list of failure messages; it compares the
program's outputs with ``oracle`` and with properties, never with a
stored copy of earlier output.

The library is reached through module attributes at call time
(``lib.evaluators.evaluate``), so a tracer that swaps the functions
after set-up sees every call.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import tempfile
import time
from array import array
from types import SimpleNamespace

import numpy as np

import oracle

clock = time.perf_counter

# metric key of each evaluation method, in report order
METHOD_KEYS = (("new", "new"), ("woznychudy", "wc"),
               ("decasteljau", "dec"), ("direct", "direct"))


class Recorder:
    """The timed calls of one round, in call order.

    ``ops`` holds a (kind, 1, slot) label per operation attempted and
    ``evals`` a (method key, points, slot) label per curve evaluation;
    ``op_times`` and ``eval_times`` hold their seconds.  Every round makes
    the same calls, so entry i is the same kind of call in every round,
    and rounds can share one list of labels.  A slot names calls whose
    times are samples of one cost (the ticks along one segment); by
    default each entry has its own.
    """

    def __init__(self):
        self.ops = []
        self.evals = []
        self.op_times = array("d")
        self.eval_times = array("d")
        self.failed = 0
        self.elapsed = 0.0

    @property
    def attempted(self):
        return len(self.op_times)

    def op(self, kind, seconds, slot=None):
        self.ops.append((kind, 1, len(self.ops) if slot is None else slot))
        self.op_times.append(seconds)

    def evaluation(self, key, points, seconds, slot=None):
        self.evals.append((key, points, len(self.evals) if slot is None else slot))
        self.eval_times.append(seconds)

    def share_labels(self, first):
        """Use the labels of round ``first`` where they are the same, so a
        run's memory does not grow with its number of rounds."""
        if self.ops == first.ops and self.evals == first.evals:
            self.ops, self.evals = first.ops, first.evals


class Workload:
    """What the three workloads share: warm-up, failure count, clean-up."""

    def warm_up(self):
        """The set-up's warm-up: one round, not recorded."""
        self.round(Recorder(), 0)

    def failed(self, rec):
        """Failed operations of the round ``rec``; valid after ``check``."""
        return rec.failed

    def close(self):
        pass


def _methods(lib):
    return [(lib.evaluators.EvalMethod(v), key) for v, key in METHOD_KEYS]


def _bbox_excess(points, control_points):
    lo = control_points.min(axis=0)
    hi = control_points.max(axis=0)
    return float(max(np.max(lo - points), np.max(points - hi)))


# ---------------------------------------------------------------------------
# eval-grid
# ---------------------------------------------------------------------------

class EvalGrid(Workload):
    """Random control polygons evaluated by all four methods in AUTO mode.

    omega = 0.096 + 2^k, k = -10..10, spans the series, closed-form and
    stable-rewrite bands; every curve is evaluated on the uniform grid.
    Unit operation: one ``evaluate`` call.

    Every evaluation must reproduce the end control points exactly and
    stay in the control polygon's bounding box.  ``direct`` sums the
    basis at the ends, so it does so for every polygon only where the
    basis is exactly (1, 0, ..., 0) at t=0 and (0, ..., 0, 1) at t=1;
    ``check`` finds the (m, d, omega) where it is not with polygons that
    do not depend on the seed, and every ``direct`` call there counts as
    a failed operation.
    """

    name = "eval-grid"
    unit_op = "eval"
    # the evaluators form convex combinations of the control points, so
    # they stay in the box up to rounding
    BOX_ULPS = 4.0
    # 5x the largest AUTO error against the oracle measured at the
    # benchmark's introduction (1.9e-10, m=1 near omega=0.1)
    ORACLE_TOL = 1e-9

    def __init__(self, lib, seed, quick=False):
        self.lib = lib
        ks = range(-10, 11, 4) if quick else range(-10, 11)
        self.omegas = [0.096 + 2.0 ** k for k in ks]
        self.ts = np.linspace(0.0, 1.0, 21 if quick else 501)
        self.sub = slice(None, None, 5 if quick else 50)
        self.pool = 2 if quick else 8
        self.methods = _methods(lib)
        rng = np.random.default_rng(seed)
        EphCurve = lib.curve.EphCurve
        # curves[p] lists every (m, d, omega) curve of polygon set p
        self.curves = []
        for _ in range(self.pool):
            batch = []
            for m in (1, 2):
                for d in (2, 3):
                    cp = rng.uniform(0.0, 1.0, size=(2 * m + 2, d))
                    batch += [EphCurve(m=m, omega=w, dim=d, control_points=cp)
                              for w in self.omegas]
            self.curves.append(batch)
        self.used = 0
        self.direct_misses = set()     # (m, d, omega) where direct is inexact

    def round(self, rec, r):
        evaluate = self.lib.evaluators.evaluate
        n = self.ts.size
        for curve in self.curves[r % self.pool]:
            for method, key in self.methods:
                t0 = clock()
                evaluate(curve, self.ts, method)
                dt = clock() - t0
                rec.op("eval", dt)
                rec.evaluation(key, n, dt)
        self.used = max(self.used, min(r + 1, self.pool))

    def _direct_exact(self, m, d, omega):
        """Whether ``direct`` keeps the end points and the bounding box,
        probed with each unit polygon (one control point at (1, ..., 1),
        the others at 0): exact end points for these mean an exact basis
        at the ends, and so exact end points for every polygon."""
        n = 2 * m + 2
        tol = self.BOX_ULPS * np.finfo(float).eps
        direct = self.lib.evaluators.EvalMethod.DIRECT
        for i in range(n):
            cp = np.zeros((n, d))
            cp[i] = 1.0
            curve = self.lib.curve.EphCurve(m=m, omega=omega, dim=d, control_points=cp)
            pts = self.lib.evaluators.evaluate(curve, self.ts, direct)
            if not (np.array_equal(pts[0], cp[0]) and np.array_equal(pts[-1], cp[-1])
                    and _bbox_excess(pts, cp) <= tol):
                return False
        return True

    def failed(self, rec):
        return rec.failed + sum((c.m, c.dim, c.omega) in self.direct_misses
                                for c in self.curves[0])

    def check(self):
        errors = []
        ref_basis = {}
        ts_sub = self.ts[self.sub]
        self.direct_misses = misses = {
            (c.m, c.dim, c.omega) for c in self.curves[0]
            if not self._direct_exact(c.m, c.dim, c.omega)}
        for batch in self.curves[:self.used]:
            for curve in batch:
                cp = curve.control_points
                key = (curve.m, curve.omega)
                if key not in ref_basis:
                    ref_basis[key] = np.array([oracle.curve_basis(curve.m, curve.omega, t)
                                               for t in ts_sub])
                ref = ref_basis[key] @ cp
                scale = float(np.max(np.abs(cp)))
                for method, mkey in self.methods:
                    pts = self.lib.evaluators.evaluate(curve, self.ts, method)
                    where = "eval-grid %s m=%d d=%d omega=%.6g" % (
                        mkey, curve.m, curve.dim, curve.omega)
                    err = float(np.max(np.abs(pts[self.sub] - ref)))
                    if not err <= self.ORACLE_TOL * scale:
                        errors.append("%s: oracle error %.3e" % (where, err))
                    if mkey == "direct" and (curve.m, curve.dim, curve.omega) in misses:
                        continue        # counted as failed operations
                    box_tol = self.BOX_ULPS * np.finfo(float).eps * scale
                    if not (np.array_equal(pts[0], cp[0]) and np.array_equal(pts[-1], cp[-1])):
                        errors.append("%s: endpoints differ from end control points" % where)
                    excess = _bbox_excess(pts, cp)
                    if not excess <= box_tol:
                        errors.append("%s: point outside bounding box by %.3e"
                                      % (where, excess))
        return errors

# ---------------------------------------------------------------------------
# rho-sweep
# ---------------------------------------------------------------------------

class RhoSweep(Workload):
    """The stability study through ``bench.rho``, all methods, m in {1, 2}.

    A round takes one omega of the sweep and runs ``bench.rho`` on it for
    each (m, method); omegas are visited in a fixed stride order, so any
    stretch of rounds samples the whole of (0, 2].  Unit operation: one
    ``bench.rho`` call (all curves at one omega).
    """

    name = "rho-sweep"
    unit_op = "rho"
    SLOPE_TOL = 0.15       # first omitted series term is O(omega^6)
    TOP_RTOL = 1e-6

    def __init__(self, lib, seed, quick=False):
        self.lib = lib
        self.quick = quick
        self.n_omega = 10 if quick else 100
        self.omegas = 2.0 * np.arange(1, self.n_omega + 1) / self.n_omega
        stride = 3 if quick else 37          # coprime to n_omega
        self.order = [(i * stride) % self.n_omega for i in range(self.n_omega)]
        self.n_curves = 2 if quick else 16
        self.grid = 51 if quick else 501
        self.methods = _methods(lib)
        RhoConfig = lib.bench.RhoConfig
        self.configs = {m: [RhoConfig(d=3, m=m, n_curves=self.n_curves,
                                      grid_points=self.grid, omega_grid=[w], seed=seed)
                            for w in self.omegas]
                        for m in (1, 2)}
        self.results = {}          # (m, method key, omega index) -> rho
        self.mismatch = []

    def _one(self, m, method, i):
        return float(self.lib.bench.rho(self.configs[m][i], method)[0, 1])

    def round(self, rec, r):
        i = self.order[r % self.n_omega]
        points = self.n_curves * self.grid
        rho = self.lib.bench.rho
        for m in (1, 2):
            for method, key in self.methods:
                t0 = clock()
                out = rho(self.configs[m][i], method)
                dt = clock() - t0
                rec.op("rho", dt)
                rec.evaluation(key, points, dt)
                value = float(out[0, 1])
                seen = self.results.setdefault((m, key, i), value)
                if not (seen == value or (math.isnan(seen) and math.isnan(value))):
                    self.mismatch.append((m, key, i))

    def check(self):
        errors = ["rho-sweep m=%d %s omega=%.4g: repeated call gave a different rho"
                  % (m, key, self.omegas[i]) for m, key, i in self.mismatch]
        for m in (1, 2):
            series = {}
            for method, key in self.methods:
                vals = np.array([self.results[(m, key, i)] if (m, key, i) in self.results
                                 else self._one(m, method, i)
                                 for i in range(self.n_omega)])
                series[key] = vals
                where = "rho-sweep m=%d %s" % (m, key)
                if not np.all(np.isfinite(vals) & (vals > 0.0)):
                    errors.append("%s: rho not finite and positive" % where)
                    continue
                top = self.omegas >= 1.0
                slope = np.polyfit(np.log(self.omegas[top]), np.log(vals[top]), 1)[0]
                if not abs(slope - 6.0) <= self.SLOPE_TOL:
                    errors.append("%s: log-log slope %.3f over omega in [1, 2]"
                                  % (where, slope))
            exact = self._exact_top_rho(m)
            for key, vals in series.items():
                if not abs(vals[-1] - exact) <= self.TOP_RTOL * exact:
                    errors.append("rho-sweep m=%d %s: rho %.9e at omega=2, oracle %.9e"
                                  % (m, key, vals[-1], exact))
            if not self.quick:
                bar = {k: self.omegas[int(np.argmin(v))] for k, v in series.items()}
                if not bar["new"] < bar["wc"] <= bar["dec"]:
                    errors.append("rho-sweep m=%d: breakpoint order new %.3f, wc %.3f, "
                                  "dec %.3f" % (m, bar["new"], bar["wc"], bar["dec"]))
        return errors

    def _exact_top_rho(self, m):
        """rho at the top omega with the oracle basis in place of an evaluator."""
        config = self.configs[m][-1]
        w = float(self.omegas[-1])
        ts = np.linspace(0.0, 1.0, self.grid)
        exact_basis = np.array([oracle.curve_basis(m, w, t) for t in ts])
        series_basis = self.lib.basis.taylor_curve_basis(m, w, ts)
        worst = 0.0
        for cp in config.draw_polygons():
            ref = series_basis @ cp
            worst = max(worst, float(np.max(np.abs(exact_basis @ cp - ref))
                                     / np.max(np.abs(ref))))
        return worst

# ---------------------------------------------------------------------------
# ph-tick
# ---------------------------------------------------------------------------

def _unit(rng, dim, min_x):
    """Random unit vector with x-component at least ``min_x``."""
    while True:
        v = rng.normal(size=dim)
        v /= np.linalg.norm(v)
        if v[0] >= min_x:
            return v


# Preimages with a common root of their component functions strictly
# between nodes of is_regular's 2001-point grid; independent of the seed.
# (m, omega, t*, given coefficients); the remaining coefficient is solved
# for so that A(t*) = 0.
SINGULAR_CASES = (
    (1, 0.5, 0.123456789, ((0.3, -0.7, 0.5, 0.2),)),
    (1, 3.0, 0.7071067811, ((-0.2, 0.4, 0.9, -0.1),)),
    (2, 1.5, 0.31415926535, ((1.0, 0.2, -0.4, 0.3), (-0.5, 0.8, 0.1, 0.6))),
    (2, 8.0, 0.5772156649, ((0.6, -0.3, 0.2, 0.9), (0.4, 0.5, -0.7, 0.1))),
)


def _shortest(planned):
    """The solution of least total arc length among (length, solution) pairs."""
    return min(planned, key=lambda p: p[0])[1]


def singular_coeffs(m, omega, t_star, given):
    psi = oracle.preimage_basis(m, omega, t_star)
    given = [np.array(g, dtype=float) for g in given]
    if m == 1:
        # a0 = -lambda a1 with lambda = psi1/psi0 at t*
        return [-(psi[1] / psi[0]) * given[0], given[0]]
    a0, a2 = given
    return [a0, -(psi[0] * a0 + psi[2] * a2) / psi[1], a2]


class PhTick(Workload):
    """The CAM/robotics pipeline: Hermite solves, real-time ticks, CLI runs.

    Per omega of a log-spaced list from 0.05 to 200 a round plans two
    segments and interpolates along each.  Planning solves a Hermite
    problem, followed by the total arc length and ``is_regular``: for
    the planar segment all four sign tags, keeping the shortest
    interpolant, and for the spatial one a single solve, whose curve
    is also evaluated at one parameter with each method.  Interpolation
    runs ``TICKS_PER_SEGMENT`` ticks of ``eval_new``,
    ``parametric_speed`` and ``arc_length`` at one parameter, in order
    along the segment.  The round then runs ``cli.main`` once for
    ``hermite`` and once for ``eval``, and asks ``is_regular`` about
    each singular preimage.  Unit operation: one tick.
    """

    name = "ph-tick"
    unit_op = "tick"
    TOL = 1e-9
    CLI_GRID_SUB = 10
    # ticks per planned segment: a 0.1 s segment sampled at a 1 kHz
    # interpolation rate, the usual 1 ms position-loop period of a CNC
    # controller
    TICKS_PER_SEGMENT = 100
    TICK_CHECK_STRIDE = 10

    def __init__(self, lib, seed, quick=False, workdir=None):
        self.lib = lib
        self.omegas = [float(w) for w in np.geomspace(0.05, 200.0, 3 if quick else 8)]
        self.pool = 2 if quick else 8
        self.ticks = 3 if quick else self.TICKS_PER_SEGMENT
        self.cli_grid = 11 if quick else 101
        self.methods = _methods(lib)
        H = lib.hermite
        rng = np.random.default_rng(seed)
        self.sets = []
        for _ in range(self.pool):
            entries = []
            for w in self.omegas:
                r0 = rng.uniform(-1.0, 1.0, 2)
                planar = H.HermiteProblem(
                    r0=r0, r_end=r0 + rng.uniform(0.5, 2.0) * _unit(rng, 2, 0.0),
                    di=rng.uniform(0.5, 2.0) * _unit(rng, 2, 0.3),
                    df=rng.uniform(0.5, 2.0) * _unit(rng, 2, 0.3), omega=w)
                r0 = rng.uniform(-1.0, 1.0, 3)
                spatial = H.HermiteProblem(
                    r0=r0, r_end=r0 + rng.uniform(0.5, 2.0) * _unit(rng, 3, 0.0),
                    di=rng.uniform(0.5, 2.0) * _unit(rng, 3, 0.3),
                    df=rng.uniform(0.5, 2.0) * _unit(rng, 3, 0.3), omega=w)
                angles = H.AngleChoice(*rng.uniform(0.0, 2.0 * math.pi, 3))
                entries.append(SimpleNamespace(
                    planar=planar, spatial=spatial, angles=angles,
                    probe_t=float(rng.uniform(0.0, 1.0)),
                    # evenly spaced along each segment, at a random phase
                    tick_t=[[(k + u) / self.ticks for k in range(self.ticks)]
                            for u in rng.uniform(0.0, 1.0, 2)]))
            self.sets.append(entries)
        Preimage = lib.curve.Preimage
        self.singular = []
        for m, w, t_star, given in SINGULAR_CASES:
            coeffs = singular_coeffs(m, w, t_star, given)
            self.singular.append((Preimage(m=m, omega=w, coeffs=coeffs), t_star))
        self.tmp = tempfile.mkdtemp(prefix="ph-tick-", dir=workdir)
        self.docs = []
        tags = list(H.PlanarSolutionTag)
        for s, entries in enumerate(self.sets):
            e = entries[s % len(entries)]
            p = e.planar
            problem = {"r0": p.r0.tolist(), "r_end": p.r_end.tolist(),
                       "di": p.di.tolist(), "df": p.df.tolist(), "omega": p.omega,
                       "tag": tags[s % 4].value}
            e2 = entries[(s + 3) % len(entries)]
            curve = H.solve_spatial(e2.spatial, e2.angles).curve
            pdoc = os.path.join(self.tmp, "problem%d.json" % s)
            cdoc = os.path.join(self.tmp, "curve%d.json" % s)
            with open(pdoc, "w", encoding="utf-8") as fh:
                json.dump(problem, fh)
            with open(cdoc, "w", encoding="utf-8") as fh:
                fh.write(curve.to_json())
            self.docs.append((pdoc, cdoc, problem))
        self.hermite_out = os.path.join(self.tmp, "hermite.json")
        self.eval_out = os.path.join(self.tmp, "eval.csv")
        self.irregular = 0      # solved interpolants that is_regular rejected
        self.cli_codes = []
        self.used = 0

    def _cli_argv(self, s, r):
        pdoc, cdoc, _ = self.docs[s]
        method = METHOD_KEYS[r % 4][0]
        return (["hermite", "--problem", pdoc, "--out", self.hermite_out],
                ["eval", "--curve", cdoc, "--method", method,
                 "--grid", str(self.cli_grid), "--out", self.eval_out])

    def _solve(self, e, tag):
        H = self.lib.hermite
        if tag is None:
            return H.solve_spatial(e.spatial, e.angles)
        return H.solve_planar(e.planar, tag)

    def _plan(self, rec, e, tag):
        """One solve as a planner makes it; returns (total arc length, solution)."""
        t0 = clock()
        sol = self._solve(e, tag)
        length = float(self.lib.curve.arc_length(sol.preimage, 1.0))
        regular = self.lib.curve.is_regular(sol.preimage)
        rec.op("solve", clock() - t0)
        self.irregular += not regular
        return length, sol

    def _interpolate(self, rec, sol, ts, segment):
        lib = self.lib
        slot = ("ticks", segment)
        for t in ts:
            t0 = clock()
            lib.evaluators.eval_new(sol.curve, t)
            t1 = clock()
            lib.curve.parametric_speed(sol.preimage, t)
            lib.curve.arc_length(sol.preimage, t)
            t2 = clock()
            rec.op("tick", t2 - t0, slot)
            rec.evaluation("new", 1, t1 - t0, slot)

    def warm_up(self):
        """One round with one tick per segment: every kind of call once."""
        self.round(Recorder(), 0, n_ticks=1)

    def round(self, rec, r, n_ticks=None):
        lib = self.lib
        s = r % self.pool
        for i, e in enumerate(self.sets[s]):
            planar = [self._plan(rec, e, tag) for tag in lib.hermite.PlanarSolutionTag]
            self._interpolate(rec, _shortest(planar), e.tick_t[0][:n_ticks], 2 * i)
            _, sol = self._plan(rec, e, None)
            for method, key in self.methods:
                t0 = clock()
                lib.evaluators.evaluate(sol.curve, e.probe_t, method)
                dt = clock() - t0
                rec.op("probe", dt)
                rec.evaluation(key, 1, dt)
            self._interpolate(rec, sol, e.tick_t[1][:n_ticks], 2 * i + 1)
        for argv in self._cli_argv(s, r):
            t0 = clock()
            code = lib.cli.main(argv)
            rec.op("cli", clock() - t0)
            self.cli_codes.append(code)
        for pre, _ in self.singular:
            t0 = clock()
            verdict = lib.curve.is_regular(pre)
            rec.op("singular", clock() - t0)
            rec.failed += verdict
        self.used = max(self.used, min(r + 1, self.pool))

    # -- checks ------------------------------------------------------------

    def _check_solution(self, sol, problem, where):
        errors = []
        a = sol.preimage.coeff_array()
        cp = sol.curve.control_points
        dim = problem.dim
        scale = 1.0 + max(np.max(np.abs(problem.r_end - problem.r0)),
                          np.max(np.abs(problem.di)), np.max(np.abs(problem.df)))
        if not np.array_equal(cp[0], problem.r0):
            errors.append("%s: start point differs from r0" % where)
        if not np.max(np.abs(cp[-1] - problem.r_end)) <= self.TOL * scale:
            errors.append("%s: end point misses r_end by %.3e"
                          % (where, np.max(np.abs(cp[-1] - problem.r_end))))
        for coeff, want, end in ((a[0], problem.di, "start"), (a[-1], problem.df, "end")):
            got = oracle.sandwich_i(coeff)
            if dim == 2 and abs(got[2]) > self.TOL * scale:
                errors.append("%s: planar %s derivative leaves the plane" % (where, end))
            if not np.max(np.abs(got[:dim] - want)) <= self.TOL * scale:
                errors.append("%s: %s derivative off by %.3e"
                              % (where, end, np.max(np.abs(got[:dim] - want))))
        return errors

    def check(self):
        lib = self.lib
        errors = []
        tags = list(lib.hermite.PlanarSolutionTag) + [None]
        if self.irregular:
            errors.append("ph-tick: is_regular called %d solved interpolants singular"
                          % self.irregular)
        if any(code != 0 for code in self.cli_codes):
            errors.append("ph-tick: cli.main exit codes %s" % sorted(set(self.cli_codes)))
        for s in range(self.used):
            for e in self.sets[s]:
                planned = []
                for tag in tags:
                    problem = e.spatial if tag is None else e.planar
                    where = "ph-tick omega=%.4g %s" % (
                        problem.omega, "spatial" if tag is None else tag.value)
                    sol = self._solve(e, tag)
                    errors += self._check_solution(sol, problem, where)
                    coeffs = sol.preimage.coeff_array()
                    w = sol.preimage.omega
                    scale = float(np.max(np.sum(coeffs * coeffs, axis=-1)))
                    total = float(lib.curve.arc_length(sol.preimage, 1.0))
                    ref = oracle.arc_length(2, w, coeffs, 1.0)
                    if not abs(total - ref) <= self.TOL * scale:
                        errors.append("%s: arc length %.12g, quadrature %.12g"
                                      % (where, total, ref))
                    planned.append((total, sol))
                if s == 0:
                    errors += self._check_ticks(_shortest(planned[:-1]), e.tick_t[0])
                    errors += self._check_ticks(sol, e.tick_t[1])
        for pre, t_star in self.singular:
            coeffs = pre.coeff_array()
            grid = np.linspace(0.0, 1.0, 4001)
            top = float(np.max(oracle.speed(pre.m, pre.omega, coeffs, grid)))
            at = float(oracle.speed(pre.m, pre.omega, coeffs, t_star))
            if not at <= 1e-20 * top:
                errors.append("ph-tick: singular case m=%d omega=%g has speed %.3e at t*"
                              % (pre.m, pre.omega, at / top))
        for s in range(min(self.used, len(self.docs))):
            errors += self._check_cli(s)
        return errors

    def _check_ticks(self, sol, ts):
        lib = self.lib
        errors = []
        pre, curve = sol.preimage, sol.curve
        coeffs = pre.coeff_array()
        w = pre.omega
        scale = float(np.max(np.sum(coeffs * coeffs, axis=-1)))
        cscale = float(np.max(np.abs(curve.control_points)))
        where = "ph-tick tick omega=%.4g" % w
        for t in ts[::self.TICK_CHECK_STRIDE]:
            speed = float(lib.curve.parametric_speed(pre, t))
            ref = float(oracle.speed(2, w, coeffs, t))
            if not abs(speed - ref) <= self.TOL * scale:
                errors.append("%s t=%.6f: speed %.12g, |A|^2 %.12g" % (where, t, speed, ref))
            length = float(lib.curve.arc_length(pre, t))
            ref = oracle.arc_length(2, w, coeffs, t)
            if not abs(length - ref) <= self.TOL * scale:
                errors.append("%s t=%.6f: arc length %.12g, quadrature %.12g"
                              % (where, t, length, ref))
            pos = lib.evaluators.eval_new(curve, t)
            ref = oracle.curve_points(2, w, [t], curve.control_points)[0]
            if not np.max(np.abs(pos - ref)) <= self.TOL * cscale:
                errors.append("%s t=%.6f: position off by %.3e"
                              % (where, t, np.max(np.abs(pos - ref))))
        return errors

    def _check_cli(self, s):
        errors = []
        pdoc, cdoc, problem_doc = self.docs[s]
        hermite_argv, eval_argv = self._cli_argv(s, s)
        if self.lib.cli.main(hermite_argv) != 0:
            return ["ph-tick: cli hermite failed on %s" % pdoc]
        with open(self.hermite_out, encoding="utf-8") as fh:
            doc = json.load(fh)
        problem = self.lib.hermite.HermiteProblem(
            r0=problem_doc["r0"], r_end=problem_doc["r_end"], di=problem_doc["di"],
            df=problem_doc["df"], omega=problem_doc["omega"])
        sol = SimpleNamespace(
            preimage=self.lib.curve.Preimage.from_dict(doc["preimage"]),
            curve=self.lib.curve.EphCurve.from_dict(doc))
        errors += self._check_solution(sol, problem, "ph-tick cli hermite %d" % s)
        if self.lib.cli.main(eval_argv) != 0:
            return errors + ["ph-tick: cli eval failed on %s" % cdoc]
        with open(cdoc, encoding="utf-8") as fh:
            cdict = json.load(fh)
        with open(self.eval_out, encoding="utf-8") as fh:
            lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
        dim = cdict["dim"]
        if lines[0].split(",") != ["t"] + ["x", "y", "z"][:dim]:
            errors.append("ph-tick: cli eval header %r" % lines[0])
        rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        if rows.shape != (self.cli_grid, dim + 1):
            return errors + ["ph-tick: cli eval gave %s values" % (rows.shape,)]
        if not np.array_equal(rows[:, 0], np.linspace(0.0, 1.0, self.cli_grid)):
            errors.append("ph-tick: cli eval parameters are not the uniform grid")
        sub = rows[::self.CLI_GRID_SUB]
        cp = np.array(cdict["control_points"])
        ref = oracle.curve_points(cdict["m"], cdict["omega"], sub[:, 0], cp)
        err = float(np.max(np.abs(sub[:, 1:] - ref)))
        if not err <= self.TOL * float(np.max(np.abs(cp))):
            errors.append("ph-tick: cli eval of %s off by %.3e" % (cdoc, err))
        return errors

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {w.name: w for w in (EvalGrid, RhoSweep, PhTick)}
