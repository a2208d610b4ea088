import math
import warnings

import numpy as np
import pytest

from ephcurve.curve import derivative, eval_direct, parametric_speed
from ephcurve.errors import DegenerateDirectionError, ZeroVectorError
from ephcurve.hermite import (AngleChoice, HermiteProblem, PlanarSolutionTag,
                              reproduce_hyperbolic, solve_planar, solve_spatial)

TAGS = list(PlanarSolutionTag)


def residuals(curve, problem):
    r0 = np.asarray(problem.r0, dtype=float)
    r_end = np.asarray(problem.r_end, dtype=float)
    di = np.asarray(problem.di, dtype=float)
    df = np.asarray(problem.df, dtype=float)
    return max(
        np.max(np.abs(eval_direct(curve, 0.0) - r0)),
        np.max(np.abs(eval_direct(curve, 1.0) - r_end)),
        np.max(np.abs(derivative(curve, 0.0) - di)),
        np.max(np.abs(derivative(curve, 1.0) - df)),
    )


def spatial_family_problem():
    return HermiteProblem(r0=(0.0, 0.0, 0.0), r_end=(1.0, 1.0, 1.0),
                          di=(-0.8, 0.3, 1.2), df=(0.5, -1.3, -1.0), omega=3.0)


def planar_benchmark_problem(omega):
    return HermiteProblem(r0=(0.1, -0.5), r_end=(0.4, 0.15),
                          di=(-3.5, 10.0), df=(6.5, 2.3), omega=omega)


def test_spatial_family_interpolates():
    problem = spatial_family_problem()
    angles = AngleChoice.from_mean_delta(eta_m=-math.pi / 10,
                                         delta_eta=math.pi / 3,
                                         eta1=-math.pi / 2)
    sol = solve_spatial(problem, angles)
    assert residuals(sol.curve, problem) < 1e-9
    assert sol.preimage.m == 2
    assert sol.curve.dim == 3


def test_spatial_family_over_omegas():
    for w in (0.1, 3.0, 6.0, 12.0, 24.0):
        problem = HermiteProblem(r0=(0.0, 0.0, 0.0), r_end=(1.0, 1.0, 1.0),
                                 di=(-0.8, 0.3, 1.2), df=(0.5, -1.3, -1.0),
                                 omega=w)
        for eta_m in (-math.pi / 2, -math.pi / 10, 3 * math.pi / 10):
            angles = AngleChoice.from_mean_delta(eta_m, math.pi / 3,
                                                 eta1=-math.pi / 2)
            sol = solve_spatial(problem, angles)
            assert residuals(sol.curve, problem) < 1e-9 * (1 + w)


def test_symmetric_data_gives_palindromic_polygon():
    problem = HermiteProblem(r0=(0.0, 0.0, 0.0), r_end=(2.0, 0.0, 0.0),
                             di=(1.0, 0.0, 0.0), df=(1.0, 0.0, 0.0), omega=2.0)
    sol = solve_spatial(problem, AngleChoice(0.0, 0.0, 0.0))
    cp = sol.curve.control_points
    mirrored = cp[::-1].copy()
    mirrored[:, 0] = 2.0 - mirrored[:, 0]
    assert np.max(np.abs(cp - mirrored)) < 1e-9


def test_random_spatial_problems(rng):
    failures = 0
    for _ in range(200):
        w = rng.uniform(0.5, 30.0)
        problem = HermiteProblem(r0=rng.uniform(0, 1, 3),
                                 r_end=rng.uniform(0, 1, 3),
                                 di=rng.uniform(-2, 2, 3),
                                 df=rng.uniform(-2, 2, 3), omega=w)
        angles = AngleChoice(*rng.uniform(-math.pi / 2, math.pi / 2, 3))
        sol = solve_spatial(problem, angles)
        scale = 1 + max(np.linalg.norm(problem.di), np.linalg.norm(problem.df))
        if residuals(sol.curve, problem) > 1e-8 * scale:
            failures += 1
    assert failures == 0


def test_angle_shift_invariance(rng):
    problem = spatial_family_problem()
    base = AngleChoice(0.3, -0.2, 0.9)
    ref = solve_spatial(problem, base).curve.control_points
    for delta in (-0.7, 0.31, math.pi / 2):
        shifted = AngleChoice(base.eta0 + delta, base.eta1 + delta,
                              base.eta2 + delta)
        got = solve_spatial(problem, shifted).curve.control_points
        assert np.max(np.abs(got - ref)) < 1e-10


def test_quarter_turn_shift_gives_same_control_points():
    # multiplying every preimage coefficient by i on the right changes
    # nothing in the sandwich products
    problem = spatial_family_problem()
    base = AngleChoice(0.1, 0.4, -0.5)
    a = solve_spatial(problem, base)
    b = solve_spatial(problem, AngleChoice(base.eta0 + math.pi / 2,
                                           base.eta1 + math.pi / 2,
                                           base.eta2 + math.pi / 2))
    assert np.max(np.abs(a.curve.control_points
                         - b.curve.control_points)) < 1e-10


def test_solution_is_ph(rng):
    problem = spatial_family_problem()
    angles = AngleChoice(0.25, 0.0, -0.4)
    sol = solve_spatial(problem, angles)
    ts = np.linspace(0, 1, 101)
    speed = parametric_speed(sol.preimage, ts)
    dn = np.linalg.norm(derivative(sol.curve, ts), axis=-1)
    assert np.max(np.abs(speed - dn)) / np.max(dn) < 1e-10


def test_angle_parametrizations_agree():
    a = AngleChoice.from_mean_delta(eta_m=0.35, delta_eta=0.5, eta1=0.2)
    assert a.eta0 == pytest.approx(0.1)
    assert a.eta2 == pytest.approx(0.6)
    assert a.eta1 == 0.2


# ---------------------------------------------------------------------------
# planar solutions
# ---------------------------------------------------------------------------

def test_planar_benchmark_pp():
    problem = planar_benchmark_problem(8.0)
    sol = solve_planar(problem, PlanarSolutionTag.PP)
    assert sol.curve.dim == 2
    assert residuals(sol.curve, problem) < 1e-9 * 11


def test_planar_benchmark_pm():
    problem = planar_benchmark_problem(3.5)
    sol = solve_planar(problem, PlanarSolutionTag.PM)
    assert residuals(sol.curve, problem) < 1e-9 * 11


def test_planar_solutions_distinct_and_z_constant():
    problem = planar_benchmark_problem(5.0)
    polys = []
    for tag in TAGS:
        sol = solve_planar(problem, tag)
        assert residuals(sol.curve, problem) < 1e-8 * 11
        # the spatial path stays in the z=0 plane (up to sin(pi) dust)
        spatial = solve_spatial(
            HermiteProblem(r0=(0.1, -0.5, 0.0), r_end=(0.4, 0.15, 0.0),
                           di=(-3.5, 10.0, 0.0), df=(6.5, 2.3, 0.0), omega=5.0),
            AngleChoice(0.0 if tag.value[0] == "+" else math.pi, 0.0,
                        0.0 if tag.value[1] == "+" else math.pi))
        zvals = eval_direct(spatial.curve, np.linspace(0, 1, 51))[:, 2]
        assert np.max(np.abs(zvals)) < 1e-12 * 100
        polys.append(sol.curve.control_points)
    for i in range(4):
        for j in range(i + 1, 4):
            assert np.max(np.abs(polys[i] - polys[j])) > 1e-6


def test_planar_requires_2d():
    problem = spatial_family_problem()
    with pytest.raises(ValueError):
        solve_planar(problem, PlanarSolutionTag.PP)


# ---------------------------------------------------------------------------
# hyperbolic reproduction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("w", [0.25, 0.5, 1.0])
def test_reproduce_hyperbolic(w):
    curve = reproduce_hyperbolic(w)
    pts = eval_direct(curve, np.linspace(0, 1, 1001))
    x, y = pts[:, 0], pts[:, 1]
    assert np.all(np.diff(x) > 0)          # monotone in x
    target = np.cosh(2 * w * x) / (2 * w)
    assert np.max(np.abs(y - target)) < 1e-6


@pytest.mark.parametrize("w", [178.0, 354.0])
def test_reproduce_hyperbolic_large_omega(w):
    # the end data reaches cosh(2w) ~ 1e307; every norm on the way must
    # stay finite although squares of the components leave double range
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        curve = reproduce_hyperbolic(w)
    cp = curve.control_points
    r0 = np.array([0.0, 1.0 / (2.0 * w)])
    r_end = np.array([1.0, math.cosh(2.0 * w) / (2.0 * w)])
    assert np.all(np.isfinite(cp))
    assert np.array_equal(cp[0], r0)
    assert np.max(np.abs(cp[-1] - r_end)) <= 1e-12 * math.hypot(*r_end)


# ---------------------------------------------------------------------------
# error reporting
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("w", [math.inf, math.nan])
def test_non_finite_omega_rejected(w):
    with pytest.raises(ValueError):
        HermiteProblem(r0=(0.0, 0.0), r_end=(1.0, 1.0), di=(1.0, 0.0),
                       df=(0.0, 1.0), omega=w)
    with pytest.raises(ValueError):
        reproduce_hyperbolic(w)


@pytest.mark.parametrize("field", ["r0", "r_end", "di", "df"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_vectors_rejected(field, bad):
    data = dict(r0=(0.0, 0.0), r_end=(1.0, 1.0), di=(1.0, 0.0), df=(0.0, 1.0))
    data[field] = (0.5, bad)
    with pytest.raises(ValueError, match="%s must be finite" % field):
        HermiteProblem(omega=1.0, **data)


def test_zero_derivative_rejected():
    with pytest.raises(ZeroVectorError):
        HermiteProblem(r0=(0, 0), r_end=(1, 1), di=(0.0, 0.0), df=(1, 0),
                       omega=1.0)


def test_axis_degenerate_direction():
    problem = HermiteProblem(r0=(0, 0, 0), r_end=(1, 0, 0),
                             di=(-1.0, 0.0, 0.0), df=(1.0, 0.0, 0.0),
                             omega=2.0)
    with pytest.raises(DegenerateDirectionError):
        solve_spatial(problem, AngleChoice(0.0, 0.0, 0.0))


def test_degenerate_middle_direction():
    # symmetric data arranged so the middle right-hand side vanishes:
    # equal opposite end derivatives with matching endpoint displacement
    problem = HermiteProblem(r0=(0.0, 0.0, 0.0), r_end=(0.0, 0.0, 0.0),
                             di=(0.0, 1.0, 0.0), df=(0.0, 1.0, 0.0),
                             omega=1.0)
    from ephcurve import basis
    c = basis.constants(2, 1.0)
    i1 = 0.5 * c.q3
    i3 = c.q4_q0_over_q1
    i0 = c.q2
    i2 = 0.5 * c.q4
    # scale r_end so c = I3*dr + (I1^2-I0*I3)(di+df) + (I1^2-I2*I3)*2*cross = 0
    di = np.array([0.0, 1.0, 0.0])
    from ephcurve.quat import solve_sandwich, sym_sandwich_i
    a0 = solve_sandwich(di, 0.0)
    cross = sym_sandwich_i(a0, a0)
    dr = -((i1 * i1 - i0 * i3) * 2 * di + (i1 * i1 - i2 * i3) * 2 * cross) / i3
    problem = HermiteProblem(r0=(0.0, 0.0, 0.0), r_end=tuple(dr),
                             di=tuple(di), df=tuple(di), omega=1.0)
    with pytest.raises(DegenerateDirectionError):
        solve_spatial(problem, AngleChoice(0.0, 0.0, 0.0))
