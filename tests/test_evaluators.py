import itertools
import math

import numpy as np
import pytest

import oracles
from conftest import assert_same_bits, rel_inf
from ephcurve import basis, evaluators
from ephcurve.basis import EvalMode
from ephcurve.curve import CurveBatch, EphCurve, eval_direct
from ephcurve.errors import DomainError, SingularControlBlockError
from ephcurve.evaluators import (EvalMethod, _bernstein_wc, _corner_chain,
                                 dynamic_eval_m1, eval_decasteljau, eval_new,
                                 eval_wozny_chudy, evaluate)

ALGORITHMS = (eval_decasteljau, eval_wozny_chudy, eval_new)


def random_curve(rng, m, omega, dim=3):
    return EphCurve(m=m, omega=omega, dim=dim,
                    control_points=rng.uniform(0, 1, (2 * m + 2, dim)))


def test_endpoints_bitwise(rng):
    line = np.array([0.0, 0.3, 1.0])
    grid = np.array([[1.0, 0.6], [0.2, 0.0]])
    for m in (1, 2):
        for w in (0.097, 0.111625, 0.35, 5.0):
            pts = rng.uniform(0, 1, (3, 2 * m + 2, 3))
            for curve in (EphCurve(m=m, omega=w, dim=3, control_points=pts[0]),
                          CurveBatch(m=m, omega=w, dim=3, control_points=pts)):
                first = curve.control_points[..., 0, :]
                last = curve.control_points[..., -1, :]
                for f in ALGORITHMS + (eval_direct,):
                    assert np.array_equal(f(curve, 0.0), first)
                    assert np.array_equal(f(curve, 1.0), last)
                    got = f(curve, line)
                    assert np.array_equal(got[..., 0, :], first)
                    assert np.array_equal(got[..., 2, :], last)
                    got = f(curve, grid)
                    assert np.array_equal(got[..., 0, 0, :], last)
                    assert np.array_equal(got[..., 1, 1, :], first)


# 2000 log-spaced omegas plus one where the closed forms miss all three
# end rows by rounding
END_OMEGAS = np.append(np.geomspace(1e-4, 650.0, 2000), 0.111625)


def test_bases_are_unit_rows_at_the_ends():
    # every basis an evaluator reads is exact at t = 0 and t = 1, which
    # lets the evaluators run straight through the end points; the
    # chains hold the two-space, hodograph (m=1, 2), four-space and
    # curve bases
    t = np.array([0.0, 1.0])
    for w in END_OMEGAS:
        bases = [basis.preimage_basis(1, w, t)]
        bases += _corner_chain(1, w, t, EvalMode.AUTO)
        bases += _corner_chain(2, w, t, EvalMode.AUTO)
        for b in bases:
            assert np.array_equal(b, np.eye(b.shape[-1])[[0, -1]]), (w, b)


def test_equal_control_points(rng):
    p = np.array([0.25, -3.0, 1.5])
    for m in (1, 2):
        curve = EphCurve(m=m, omega=2.0, dim=3,
                         control_points=np.tile(p, (2 * m + 2, 1)))
        ts = np.linspace(0, 1, 23)
        for f in ALGORITHMS:
            assert np.allclose(f(curve, ts), p, atol=1e-13)


def test_domain_errors(rng):
    curve = random_curve(rng, 1, 1.0)
    for f in ALGORITHMS:
        with pytest.raises(DomainError):
            f(curve, -0.1)


def test_nan_t_rejected(rng):
    for m in (1, 2):
        curve = random_curve(rng, m, 1.0)
        for method in EvalMethod:
            for t in (np.nan, np.array([0.0, 0.5, np.nan])):
                with pytest.raises(DomainError):
                    evaluate(curve, t, method)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("m", [1, 2])
def test_cross_method_equivalence(rng, d, m):
    ts = np.linspace(0.0, 1.0, 501)
    for w in (0.5, 1.0, 5.0, 20.0, 100.0):
        for _ in range(10):
            curve = random_curve(rng, m, w, dim=d)
            ref = eval_direct(curve, ts)
            scale = np.max(np.abs(ref))
            for f in ALGORITHMS:
                assert np.max(np.abs(f(curve, ts) - ref)) / scale < 1e-9


def test_specific_example_points(rng):
    curve = random_curve(rng, 1, 5.0)
    assert rel_inf(eval_decasteljau(curve, 0.37), eval_direct(curve, 0.37)) < 1e-10
    curve = random_curve(rng, 1, 20.0)
    assert rel_inf(eval_wozny_chudy(curve, 0.8), eval_direct(curve, 0.8)) < 1e-10
    curve = random_curve(rng, 2, 100.0)
    ts = np.linspace(0, 1, 501)
    got = eval_new(curve, ts, EvalMode.STABLE_LARGE_OMEGA)
    ref = eval_direct(curve, ts, EvalMode.STABLE_LARGE_OMEGA)
    assert rel_inf(got, ref) < 1e-10


def test_new_branch_boundary_consistency(rng):
    for m in (1, 2):
        curve = random_curve(rng, m, 3.0)
        t = np.array([0.5])
        tau = basis.corner_weights(m, 3.0, t).T
        cp = curve.control_points.T[..., None]
        r1 = list((tau * cp[:, :-1] + (1.0 - tau) * cp[:, 1:]).swapaxes(0, 1))
        upper = _bernstein_wc(r1, (1.0 - t) / t)
        lower = _bernstein_wc(r1[::-1], t / (1.0 - t))
        assert np.max(np.abs(upper - lower)) < 1e-12


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="eval_new has no small-t path: its corner weights "
                          "are NaN where t**(2m) underflows")
@pytest.mark.parametrize("w", [0.15, 1.0, 4.0, 40.0, 300.0])
@pytest.mark.parametrize("m, t", [(1, 1e-200), (2, 1e-100)])
def test_new_tiny_t_against_direct(m, t, w):
    # polygon i is the i-th unit polygon in x, so x reads basis function i
    n = 2 * m + 2
    pts = np.zeros((n, n, 2))
    pts[:, :, 0] = np.eye(n)
    curve = CurveBatch(m=m, omega=w, dim=2, control_points=pts)
    ref = eval_direct(curve, t)
    if not np.all(np.isfinite(ref)):
        pytest.fail("eval_direct is not finite at t=%g" % t)
    with np.errstate(all="ignore"):
        got = eval_new(curve, t)
    assert np.max(np.abs(got - ref)) <= 1e-13


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="eval_new has no small-t path: at m=1 its corner "
                          "weights go wrong long before they underflow")
@pytest.mark.parametrize("w, t", [(4.0, 1e-30), (4.0, 1e-50), (40.0, 1e-30),
                                  (40.0, 1e-50), (300.0, 1e-160)])
def test_new_small_t_random_polygon_against_direct(rng, w, t):
    # finite but wrong: tau_1 reaches -1e33 at omega=4, t=1e-50
    curve = random_curve(rng, 1, w)
    ref = eval_direct(curve, t)
    got = eval_new(curve, t)
    assert np.max(np.abs(got - ref)) <= 1e-13


def test_new_reduction_weight_identity(rng):
    # the corner-cut polygon reproduces the curve value through the
    # plain Bernstein basis
    for m in (1, 2):
        for w in (0.7, 6.0):
            curve = random_curve(rng, m, w)
            ts = np.linspace(0.01, 0.99, 99)
            tau = basis.corner_weights(m, w, ts)[..., :, None]
            cp = curve.control_points
            r1 = tau * cp[:-1] + (1.0 - tau) * cp[1:]
            n = 2 * m
            bern = np.stack([math.comb(n, i) * ts ** i * (1 - ts) ** (n - i)
                             for i in range(n + 1)], axis=-1)
            recon = np.einsum("ti,tid->td", bern, r1)
            ref = eval_direct(curve, ts)
            assert rel_inf(recon, ref) < 1e-11


@pytest.mark.parametrize("w", [1e-3, 0.1, 2.0, 20.0, 300.0])
def test_decasteljau_four_space_against_oracle(w):
    ts = np.linspace(0.0, 1.0, 21)
    got = _corner_chain(2, w, ts, EvalMode.STABLE_LARGE_OMEGA)[2]
    ref = np.array([[float(v) for v in oracles.four_space_ref(w, t)] for t in ts])
    assert rel_inf(got, ref) < 1e-14


def test_affine_invariance_of_algorithms(rng):
    for m in (1, 2):
        curve = random_curve(rng, m, 9.0)
        A = rng.normal(size=(3, 3))
        b = rng.normal(size=3)
        mapped = EphCurve(m=m, omega=9.0, dim=3,
                          control_points=curve.control_points @ A.T + b)
        ts = np.linspace(0, 1, 101)
        for f in ALGORITHMS:
            assert np.max(np.abs(f(mapped, ts)
                                 - (f(curve, ts) @ A.T + b))) < 1e-11


# one omega in every AUTO band of both quantities, all inside the naive limit
BAND_OMEGAS = (5e-4, 0.05, 0.13, 0.5, 5.0)
BATCH_TS = (0.37, np.array([0.8, 0.0, 0.5, 0.21, 1.0, 0.5 - 1e-9]),
            np.array([[0.9, 0.0, 0.3], [1.0, 0.5, 0.6]]))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("m", [1, 2])
def test_batch_matches_per_curve_bitwise(rng, d, m):
    for n_curves in (1, 5):
        pts = rng.uniform(-1, 1, (n_curves, 2 * m + 2, d))
        for w in BAND_OMEGAS:
            batch = CurveBatch(m=m, omega=w, dim=d, control_points=pts)
            curves = [EphCurve(m=m, omega=w, dim=d, control_points=cp) for cp in pts]
            for t in BATCH_TS:
                for method in EvalMethod:
                    for mode in EvalMode:
                        with np.errstate(all="ignore"):
                            got = evaluate(batch, t, method, mode)
                            ref = [evaluate(c, t, method, mode) for c in curves]
                        assert got.shape == (n_curves,) + np.shape(t) + (d,)
                        for g, r in zip(got, ref):
                            assert np.array_equal(g, r, equal_nan=True), (w, t, method, mode)


# t forms that name one point: the first three are 0-d, the rest keep
# their shape in the output
ONE_POINT_FORMS = (float, np.float64, np.asarray,
                   lambda t: np.array([t]), lambda t: np.array([[t]]))
# from the smallest t up: there the corner weights divide by powers of t
# that underflow to zero, and one point must give the grid's NaN; the
# lower neighbour of 0.5 is the last t cut as the mirror image
ONE_POINT_TS = (0.0, 5e-324, 1e-300, 1e-200, 1e-100, 0.013, 0.1, 0.2, 0.3, 0.4,
                float(np.nextafter(0.5, 0.0)), 0.5, 0.6, 0.7, 0.77, 0.9, 1.0 - 1e-16, 1.0)
# grids wholly on one side of 0.5: eval_new's split with one side empty
ONE_SIDE_GRIDS = (np.linspace(0.01, 0.49, 7), np.linspace(0.5, 0.97, 7))


def degenerate_polygon(rng, m, d):
    """A polygon with two coincident control points, so one leg of the
    corner cut is zero, and -0.0 coordinates, the last point all -0.0."""
    pts = rng.uniform(-1, 1, (2 * m + 2, d))
    pts[2] = pts[1]
    pts[0, 1] = -0.0
    pts[3, 0] = -0.0
    pts[-1] = -0.0
    return pts


def _unchanged_inputs(monkeypatch):
    """Wrap ``_bernstein_wc`` to check that no array handed to it is
    written; returns the list of calls seen."""
    calls = []
    recursion = evaluators._bernstein_wc

    def checked(r1, ratio):
        kept = [np.copy(p) for p in r1]
        q = recursion(r1, ratio)
        for p, copy in zip(r1, kept):
            assert_same_bits(p, copy)
        calls.append(len(r1))
        return q

    monkeypatch.setattr(evaluators, "_bernstein_wc", checked)
    return calls


@pytest.mark.parametrize("mode", list(EvalMode))
@pytest.mark.parametrize("m", [1, 2])
def test_one_point_matches_grid_bitwise(rng, monkeypatch, m, mode):
    # one point, and a grid on one side of 0.5, give the bits of the same
    # t inside a grid that crosses 0.5, NaN and the sign of zero included,
    # on random polygons and on one with a zero leg and -0.0 coordinates;
    # eval_direct contracts through BLAS, whose rounding of a row depends
    # on how many rows it gets, so its reference is the grid's basis rows
    # contracted alone.  No evaluator writes the control points, and
    # eval_new writes no point of the polygon its recursion reads.
    calls = _unchanged_inputs(monkeypatch)
    grid = np.concatenate([ONE_POINT_TS, np.linspace(0.0, 1.0, 41)]
                          + list(ONE_SIDE_GRIDS))
    for d, w in itertools.product((2, 3), (1e-4, 0.05, 0.7, 4.0, 150.0)):
        pts = rng.uniform(-1, 1, (3, 2 * m + 2, d))
        pts[1] = degenerate_polygon(rng, m, d)
        for curve in (EphCurve(m=m, omega=w, dim=d, control_points=pts[0]),
                      EphCurve(m=m, omega=w, dim=d, control_points=pts[1]),
                      CurveBatch(m=m, omega=w, dim=d, control_points=pts)):
            lead = curve.control_points.shape[:-2]
            kept = curve.control_points.copy()
            with np.errstate(all="ignore"):
                rows = basis.curve_basis(m, w, grid, mode)
                for method in EvalMethod:
                    full = evaluate(curve, grid, method, mode)

                    def ref(i):
                        if method is EvalMethod.DIRECT:
                            return rows[i] @ curve.control_points
                        return full[..., i, :]

                    for i, t in enumerate(ONE_POINT_TS):
                        for form in ONE_POINT_FORMS:
                            got = evaluate(curve, form(t), method, mode)
                            assert got.shape == lead + np.shape(form(t)) + (d,)
                            assert_same_bits(got.reshape(lead + (d,)), ref(i))
                    start = len(ONE_POINT_TS) + 41
                    for ts in ONE_SIDE_GRIDS:
                        at = slice(start, start + ts.size)
                        assert_same_bits(evaluate(curve, ts, method, mode), ref(at))
                        start += ts.size
            assert_same_bits(curve.control_points, kept)
    assert calls


def test_layer_spans_are_reached(rng, monkeypatch):
    # perfbench/layers.py wraps these two private functions by name as
    # layer spans; each must exist and be reached through the module
    # global, where a wrapper replaces it
    seen = []
    for name in ("_bernstein_wc", "_decasteljau_weights"):
        original = getattr(evaluators, name)
        assert callable(original)

        def span(*args, _name=name, _original=original):
            seen.append(_name)
            return _original(*args)

        monkeypatch.setattr(evaluators, name, span)
    for m in (1, 2):
        curve = random_curve(rng, m, 4.0)
        for t in (0.3, 0.7, np.array([0.3]), np.linspace(0.0, 1.0, 11)):
            seen.clear()
            eval_new(curve, t)
            assert "_bernstein_wc" in seen and "_decasteljau_weights" not in seen
            seen.clear()
            eval_decasteljau(curve, t)
            assert seen == ["_decasteljau_weights"]


@pytest.mark.parametrize("m", [1, 2])
def test_one_point_wc_and_decasteljau_run_on_floats(rng, monkeypatch, m):
    # one t of one curve, an end included, runs Wozny-Chudy and de
    # Casteljau on Python floats in every mode: a recorder over the numpy
    # calls of their grid paths sees none of them, while a grid still
    # reaches them
    seen = []
    for name in ("where", "clip", "zeros_like", "cumsum", "broadcast_to", "ones"):
        def recorder(*args, _name=name, _original=getattr(np, name), **kwargs):
            seen.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(np, name, recorder)
    for w in (0.05, 4.0):
        curve = random_curve(rng, m, w)
        for mode in EvalMode:
            for t in (0.0, 0.3, np.float64(0.7), np.array(0.45), 1.0):
                for f in (eval_wozny_chudy, eval_decasteljau):
                    f(curve, t, mode)
                    assert seen == [], (f.__name__, w, mode, t)
    grid = np.linspace(0.0, 1.0, 11)
    eval_wozny_chudy(curve, grid)
    assert {"cumsum", "broadcast_to", "where"} <= set(seen)
    seen.clear()
    eval_decasteljau(curve, grid)
    assert {"where", "clip"} <= set(seen)


def test_new_keeps_one_point_0d(rng, monkeypatch):
    # a single t reaches the corner weights 0-d; a grid on one side of 0.5
    # takes one call, a grid across it one per side
    seen = []
    corner_weights = basis.corner_weights

    def recorder(m, omega, t, mode=EvalMode.AUTO):
        seen.append(np.shape(t))
        return corner_weights(m, omega, t, mode)

    monkeypatch.setattr(basis, "corner_weights", recorder)
    for m in (1, 2):
        curve = random_curve(rng, m, 4.0)
        for t in (0.3, np.float64(0.5), np.array(0.9)):
            seen.clear()
            eval_new(curve, t)
            assert seen == [()]
        for t, calls in ((np.array([0.3]), [(1,)]), (np.linspace(0.5, 0.9, 8), [(8,)]),
                         (np.linspace(0.0, 1.0, 11), [(4,), (5,)]),
                         (0.0, []), (1.0, [])):
            seen.clear()
            eval_new(curve, t)
            assert seen == calls


def test_evaluate_dispatch(rng):
    curve = random_curve(rng, 1, 2.0)
    ts = np.linspace(0, 1, 11)
    assert np.array_equal(evaluate(curve, ts, EvalMethod.DIRECT),
                          eval_direct(curve, ts))
    assert np.array_equal(evaluate(curve, ts, EvalMethod.NEW),
                          eval_new(curve, ts))


# ---------------------------------------------------------------------------
# dynamic evaluation
# ---------------------------------------------------------------------------

def _regular_m1_curve(rng, omega):
    while True:
        curve = random_curve(rng, 1, omega)
        if abs(np.linalg.det(curve.control_points[1:].T)) > 1e-3:
            return curve


def test_dynamic_eval_accurate_small_omega(rng):
    curve = _regular_m1_curve(rng, 0.5)
    report = dynamic_eval_m1(curve, 101)
    assert report.k == 101
    assert report.samples.shape == (101, 3)
    assert report.max_rel_error < 1e-8


def test_dynamic_eval_unstable_large_omega(rng):
    curve = _regular_m1_curve(rng, 50.0)
    report = dynamic_eval_m1(curve, 101)
    assert report.max_rel_error > 1.0


def test_dynamic_eval_two_samples(rng):
    curve = _regular_m1_curve(rng, 2.0)
    report = dynamic_eval_m1(curve, 2)
    assert np.allclose(report.samples[0], curve.control_points[0], atol=1e-12)
    assert np.allclose(report.samples[1], curve.control_points[-1], atol=1e-12)


def test_dynamic_eval_singular_block():
    pts = np.zeros((4, 3))
    pts[0] = (1.0, 0.0, 0.0)
    pts[1] = (0.0, 1.0, 0.0)
    pts[2] = (0.0, 0.0, 1.0)
    pts[3] = (0.0, 0.5, 0.5)   # r1, r2, r3 coplanar through a dependency
    pts[3] = pts[1] * 0.5 + pts[2] * 0.5
    curve = EphCurve(m=1, omega=1.0, dim=3, control_points=pts)
    with pytest.raises(SingularControlBlockError):
        dynamic_eval_m1(curve, 11)


def test_dynamic_eval_argument_checks(rng):
    curve = random_curve(rng, 2, 1.0)
    with pytest.raises(ValueError):
        dynamic_eval_m1(curve, 11)
    curve1 = _regular_m1_curve(rng, 1.0)
    with pytest.raises(ValueError):
        dynamic_eval_m1(curve1, 1)


def test_dynamic_eval_rejects_a_non_integer_k(rng):
    curve = _regular_m1_curve(rng, 1.0)
    with pytest.raises(ValueError, match="k must be an integer"):
        dynamic_eval_m1(curve, 5.0)
