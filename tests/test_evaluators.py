import math

import numpy as np
import pytest

import oracles
from conftest import rel_inf
from ephcurve import basis
from ephcurve.basis import EvalMode
from ephcurve.curve import EphCurve, eval_direct
from ephcurve.errors import DomainError, SingularControlBlockError
from ephcurve.evaluators import (EvalMethod, _bernstein_wc, _corner_chain,
                                 dynamic_eval_m1, eval_decasteljau, eval_new,
                                 eval_wozny_chudy, evaluate)

ALGORITHMS = (eval_decasteljau, eval_wozny_chudy, eval_new)


def random_curve(rng, m, omega, dim=3):
    return EphCurve(m=m, omega=omega, dim=dim,
                    control_points=rng.uniform(0, 1, (2 * m + 2, dim)))


def test_endpoints_bitwise(rng):
    for m in (1, 2):
        for w in (0.097, 0.35, 5.0):
            curve = random_curve(rng, m, w)
            for f in ALGORITHMS + (eval_direct,):
                assert np.array_equal(f(curve, 0.0), curve.control_points[0])
                assert np.array_equal(f(curve, 1.0), curve.control_points[-1])


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
        tau = basis.corner_weights(m, 3.0, t)[..., :, None]
        cp = curve.control_points
        r1 = tau * cp[:-1] + (1.0 - tau) * cp[1:]
        upper = _bernstein_wc(r1, t, m, upper=True)
        lower = _bernstein_wc(r1, t, m, upper=False)
        assert np.max(np.abs(upper - lower)) < 1e-12


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
    got = _corner_chain(2, w, ts, EvalMode.STABLE_LARGE_OMEGA)[3]
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
