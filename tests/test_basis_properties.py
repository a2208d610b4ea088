"""Grid invariants of the bases: positivity, partition of unity,
symmetry, derivative and antiderivative relations, mode agreement, and
the bitwise contracts of the stable forms (summation order, one point
against a grid)."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from conftest import assert_same_bits, rel_inf
from ephcurve import basis
from ephcurve.basis import EvalMode
from ephcurve.curve import (Preimage, arc_length, arc_length_coeffs,
                           parametric_speed, parametric_speed_coeffs)

GRID = np.linspace(0.0, 1.0, 1001)

# the closed forms carry the band below 20, the rewrites above
OMEGAS = [0.5, 1.0, 5.0, 20.0, 100.0, 1000.0]


def _grid_mode(w):
    return EvalMode.NAIVE if w < 20.0 else EvalMode.STABLE_LARGE_OMEGA


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("w", OMEGAS)
def test_partition_of_unity_and_positivity(m, w):
    b = basis.curve_basis(m, w, GRID, _grid_mode(w))
    assert np.min(b) >= -1e-12
    assert np.max(np.abs(b.sum(axis=-1) - 1.0)) < 1e-11
    h = basis.hodograph_basis(m, w, GRID)
    assert np.min(h) >= -1e-12
    assert np.max(np.abs(h.sum(axis=-1) - 1.0)) < 1e-11


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("w", OMEGAS)
def test_mirror_symmetry(m, w):
    b = basis.curve_basis(m, w, GRID, _grid_mode(w))
    mirrored = basis.curve_basis(m, w, 1.0 - GRID, _grid_mode(w))[..., ::-1]
    assert np.max(np.abs(b - mirrored)) < 1e-12


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("w", OMEGAS)
def test_derivative_relations(m, w):
    # d/dt of curve-basis function i is the normalized difference of
    # hodograph-basis functions i-1 and i
    h = 1e-6
    ts = np.linspace(2 * h, 1.0 - 2 * h, 401)
    mode = _grid_mode(w)
    fd = (basis.curve_basis(m, w, ts + h, mode)
          - basis.curve_basis(m, w, ts - h, mode)) / (2.0 * h)
    c = basis.constants(m, w)
    if m == 1:
        ints = np.array([c.c2, c.c3_over_c1, c.c2])
    else:
        ints = np.array([c.q2, c.q3, c.q4_over_q1, c.q3, c.q2])
    hb = basis.hodograph_basis(m, w, ts) / ints
    expected = np.empty_like(fd)
    expected[..., 0] = -hb[..., 0]
    expected[..., 1:-1] = hb[..., :-1] - hb[..., 1:]
    expected[..., -1] = hb[..., -1]
    assert np.max(np.abs(fd - expected)) < 1e-5 * max(1.0, np.max(np.abs(hb)))


def test_mode_agreement_naive_vs_stable_m1():
    ts = np.linspace(0.0, 1.0, 501)
    for w in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 35.0, 50.0):
        a = basis.curve_basis(1, w, ts, EvalMode.NAIVE)
        b = basis.curve_basis(1, w, ts, EvalMode.STABLE_LARGE_OMEGA)
        assert rel_inf(a, b) < 1e-10


def test_mode_agreement_naive_vs_stable_m2_common_range():
    # the m=2 regimes overlap more narrowly: the closed forms lose
    # exp(2 omega) * eps absolutely, the rewrites bottom out near 3e-9
    # below omega ~ 1 (both effects oracle-verified in test_basis)
    ts = np.linspace(0.0, 1.0, 501)
    for w in (1.5, 2.0, 3.0, 5.0, 8.0):
        a = basis.curve_basis(2, w, ts, EvalMode.NAIVE)
        b = basis.curve_basis(2, w, ts, EvalMode.STABLE_LARGE_OMEGA)
        assert rel_inf(a, b) < 1e-10


def test_mode_agreement_taylor_vs_naive_small_omega():
    ts = np.linspace(0.0, 1.0, 501)
    for m in (1, 2):
        for w in (0.04, 0.045, 0.05):
            a = basis.curve_basis(m, w, ts, EvalMode.TAYLOR5)
            b = basis.curve_basis(m, w, ts, EvalMode.NAIVE)
            assert rel_inf(a, b) < 1e-8


@pytest.mark.parametrize("m", [1, 2])
def test_antiderivative_relations(m):
    # int_0^t of hodograph-basis function i equals its weight times a
    # tail sum of the curve basis
    w = 1.7
    c = basis.constants(m, w)
    if m == 1:
        weights = [c.c2, c.c3 / c.c1, c.c2]
    else:
        weights = [c.q2, c.q3, c.q4 / c.q1, c.q3, c.q2]
    for i, wt in enumerate(weights):
        for t in (0.3, 0.85):
            val, _ = quad(lambda x: basis.hodograph_basis(m, w, x)[i],
                          0.0, t, epsabs=1e-10, epsrel=1e-10)
            tail = np.sum(basis.curve_basis(m, w, t, EvalMode.NAIVE)[i + 1:])
            assert val == pytest.approx(wt * tail, abs=1e-8)


def test_corner_weights_endpoint_limits_match_bernstein_reduction(rng):
    # at omega -> 0 the corner weights approach 1-t (the plain
    # de Casteljau first level); sanity for the series mode too
    ts = rng.uniform(0.05, 0.95, 9)
    for m in (1, 2):
        tau = basis.corner_weights(m, 1e-5, ts, EvalMode.TAYLOR5)
        assert np.max(np.abs(tau - (1.0 - ts)[:, None])) < 1e-6


# ---------------------------------------------------------------------------
# bitwise contracts of the stable forms
# ---------------------------------------------------------------------------

SUM_SHAPES = [(), (1,), (501,), (7, 9)]
SUM_SPECIALS = [-0.0, 0.0, np.inf, -np.inf, np.nan]


def _stacked_sum(terms):
    """The reference order: numpy's pairwise sum along a stacked axis."""
    return np.sum(np.stack(terms, axis=-1), axis=-1)


@pytest.mark.parametrize("shape", SUM_SHAPES)
@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1),
       exponents=st.tuples(st.floats(-300.0, 300.0), st.floats(-300.0, 300.0)),
       specials=st.lists(st.sampled_from(SUM_SPECIALS), max_size=4))
@example(n=3, seed=3, exponents=(-300.0, 300.0), specials=[])
@example(n=5, seed=5, exponents=(-20.0, 0.0), specials=[-0.0, np.nan])
@example(n=10, seed=10, exponents=(-300.0, 300.0), specials=[np.inf, -np.inf, np.nan])
@example(n=24, seed=24, exponents=(0.0, 0.0), specials=[-0.0])
@example(n=28, seed=28, exponents=(290.0, 300.0), specials=[np.inf])
def test_sum_terms_is_numpys_stacked_sum(shape, n, seed, exponents, specials):
    rng = np.random.default_rng(seed)
    lo, hi = sorted(exponents)
    terms = [np.asarray(rng.choice([-1.0, 1.0], shape)
                        * 10.0 ** rng.uniform(lo, hi, shape)) for _ in range(n)]
    for v in specials:
        term = terms[rng.integers(n)].reshape(-1)
        term[rng.integers(term.size)] = v
    kept = [term.copy() for term in terms]
    with np.errstate(over="ignore", invalid="ignore"):
        assert_same_bits(basis._sum_terms(terms), _stacked_sum(kept))
    for term, copy in zip(terms, kept):
        assert_same_bits(term, copy)        # no term is summed into in place


@pytest.mark.parametrize("shape", SUM_SHAPES)
def test_sum_terms_of_negative_zeros_is_positive_zero(shape):
    for n in range(1, 41):
        terms = [np.full(shape, -0.0) for _ in range(n)]
        assert_same_bits(basis._sum_terms(terms), _stacked_sum(terms))


# the smallest t a caller can pass: their powers in the corner weights
# underflow to zero, so one point must give numpy's inf or NaN there
TINY_TS = (5e-324, 1e-300, 1e-200, 1e-100)


def _outcome(f, t):
    """f(t), or the type and message of what it raised."""
    try:
        return f(t)
    except Exception as exc:  # noqa: BLE001 -- compared, not swallowed
        return type(exc), str(exc)


def _check_one_point(f, ts, full, coeffs=None):
    """f at each tiny ts[i] and every 20th, 0-d and (1,), against row i of
    ``full``, the outcome of f's grid (contracted with ``coeffs`` when
    given): the same bits, NaN and inf included, or the same exception."""
    for i in list(range(len(TINY_TS))) + list(range(len(TINY_TS), ts.size, 20)) + [ts.size - 1]:
        for at in (i, slice(i, i + 1)):
            got = _outcome(f, ts[at])
            if isinstance(full, tuple):
                assert got == full, ts[at]
            else:
                assert_same_bits(got, full[at] if coeffs is None else full[at] @ coeffs)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("w", [1e-4, 1e-3, 0.01, *np.geomspace(0.1, 650.0, 9)])
def test_stable_one_point_matches_grid_bitwise(m, w):
    # One-point callers (arc_length, parametric_speed or an evaluator at
    # one t) get the bits that a 501-point grid gives at the same t, in
    # every mode, from t = 5e-324 up and omega = 1e-4 up.  One point runs
    # on Python floats: its transcendentals and powers must come from
    # numpy's loops (math and a numpy scalar's ** call libm, which rounds
    # differently), and where Python's / raises on a zero denominator the
    # form must fall back to numpy's inf or NaN.  The contraction with the
    # speed and length coefficients is BLAS's, whose rounding of a row
    # depends on how many rows it gets, so their reference is the grid's
    # basis row contracted alone.  NAIVE above its limit raises, one point
    # as a grid.
    grid = np.concatenate([TINY_TS, np.linspace(0.0, 1.0, 501)])
    inner = grid[(grid > 0.0) & (grid < 1.0)]
    coeffs = np.random.default_rng(m).uniform(-1.0, 1.0, (m + 1, 4))
    pre = Preimage(m=m, omega=w, coeffs=tuple(coeffs))
    with np.errstate(all="ignore"):     # the series far outside their band
        for f in (lambda t: basis.preimage_basis(m, w, t),
                  lambda t: basis.taylor_curve_basis(m, w, t)):
            _check_one_point(f, grid, _outcome(f, grid))
        h = basis.hodograph_basis(m, w, grid)
        _check_one_point(lambda t: basis.hodograph_basis(m, w, t), grid, h)
        _check_one_point(lambda t: parametric_speed(pre, t), grid, h,
                         parametric_speed_coeffs(pre))
        for mode in EvalMode:
            b = _outcome(lambda t: basis.curve_basis(m, w, t, mode), grid)
            _check_one_point(lambda t: basis.curve_basis(m, w, t, mode), grid, b)
            _check_one_point(lambda t: arc_length(pre, t, mode), grid, b,
                             arc_length_coeffs(pre))
            _check_one_point(lambda t: basis.corner_weights(m, w, t, mode), inner,
                             _outcome(lambda t: basis.corner_weights(m, w, t, mode), inner))


@pytest.mark.parametrize("seed", range(4))
def test_powers_match_separate_calls(seed):
    # one np.power call over (x, x, y, y) gives each value the bits of a
    # call of its own, for one point (Python floats and numpy scalars) and
    # for grids, subnormal and overflowing powers included
    rng = np.random.default_rng(seed)
    for n in (1, 2, 7, 8, 9, 17, 1000, 100_000):
        x, y = rng.uniform(0.0, 2.0, (2, n)) * 10.0 ** rng.integers(-90, 90, (2, n))
        with np.errstate(over="ignore"):
            got = basis._powers([x, x, y, y], basis._CUBE_FOURTH)
            want = [np.power(v, k) for v, k in zip((x, x, y, y), (3, 4, 3, 4))]
        for g, v in zip(got, want):
            assert_same_bits(g, v)
    for a, b in rng.uniform(0.0, 2.0, (2000, 2)):
        want = [np.power(a, 3), np.power(a, 4), np.power(b, 3), np.power(b, 4)]
        got = basis._powers([float(a), float(a), float(b), float(b)], basis._CUBE_FOURTH)
        assert [type(g) for g in got] == [float] * 4
        assert_same_bits(np.array(got), np.array(want))
        got = basis._powers([np.float64(a), np.float64(a), np.float64(b), np.float64(b)],
                            basis._CUBE_FOURTH)
        assert [type(g) for g in got] == [np.float64] * 4
        assert_same_bits(np.array(got), np.array(want))
