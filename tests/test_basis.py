import dataclasses
import math

import numpy as np
import pytest
from mpmath import mpf

import oracles
from conftest import rel_inf
from ephcurve import basis, curve, evaluators
from ephcurve.basis import EvalMode
from ephcurve.errors import DomainError, OverflowHazardError

# ---------------------------------------------------------------------------
# preimage basis
# ---------------------------------------------------------------------------

def test_preimage_basis_endpoints():
    for m, w in ((1, 0.7), (1, 40.0), (2, 3.0)):
        assert np.allclose(basis.preimage_basis(m, w, 0.0)[0], 1.0, atol=1e-15)
        assert np.allclose(basis.preimage_basis(m, w, 1.0)[-1], 1.0, atol=1e-15)
        assert np.allclose(basis.preimage_basis(m, w, 0.0)[1:], 0.0, atol=1e-15)
        assert np.allclose(basis.preimage_basis(m, w, 1.0)[:-1], 0.0, atol=1e-15)


def test_preimage_basis_m1_midpoint_symmetric():
    # frozen oracle value: sinh(1/4)/sinh(1/2)
    v = basis.preimage_basis(1, 1.0, 0.5)
    assert v[0] == pytest.approx(0.48477181457010729253, rel=1e-14)
    assert v[1] == pytest.approx(0.48477181457010729253, rel=1e-14)


def test_preimage_basis_against_oracle():
    ts = np.linspace(0.0, 1.0, 23)
    for m in (1, 2):
        for w in (1e-6, 0.01, 0.5, 3.0, 80.0, 1500.0):
            got = basis.preimage_basis(m, w, ts)
            ref = np.array([[float(v) for v in oracles.psi_ref(m, w, t)] for t in ts])
            assert rel_inf(got, ref) < 1e-13


def test_preimage_basis_m2_equals_order1_hodograph_basis():
    ts = np.linspace(0.0, 1.0, 11)
    assert np.array_equal(basis.preimage_basis(2, 4.2, ts),
                          basis.hodograph_basis(1, 4.2, ts))


@pytest.mark.parametrize("w", [1e-310, 5e-324])
def test_two_function_bases_end_rows_at_subnormal_omega(w):
    # below the smallest normal omega the m=1 preimage basis and the
    # two-space basis return their omega -> 0 limit; its end rows are the
    # unit rows a normal omega gives, bit for bit, +0.0 at t = -0.0 included
    bases = (lambda w, t: basis.preimage_basis(1, w, t),
             lambda w, t: basis._two_space_basis(w, basis._check_t(t)))
    for f in bases:
        for v in (-0.0, 0.0, 1.0):
            for t in _scalar_forms(v) + (np.array([v]), np.array([0.5, v])):
                got, want = f(w, t), f(0.5, t)
                assert got.shape == want.shape, (v, t)
                end = got.reshape(-1, 2)[-1]            # the row at v
                assert end.tobytes() == want.reshape(-1, 2)[-1].tobytes(), (v, t)


# ---------------------------------------------------------------------------
# hodograph basis
# ---------------------------------------------------------------------------

def test_hodograph_basis_endpoint_and_partition():
    for m in (1, 2):
        v0 = basis.hodograph_basis(m, 5.0, 0.0)
        assert v0[0] == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(v0[1:], 0.0, atol=1e-15)
        vals = basis.hodograph_basis(m, 5.0, np.array([0.37]))
        assert np.sum(vals) == pytest.approx(1.0, abs=1e-13)


def test_hodograph_basis_m2_product_structure(rng):
    ts = rng.uniform(0, 1, 17)
    for w in (0.3, 2.0, 25.0):
        psi = basis.preimage_basis(2, w, ts)
        got = basis.hodograph_basis(2, w, ts)
        expect = np.stack([
            psi[:, 0] ** 2,
            2 * psi[:, 0] * psi[:, 1],
            psi[:, 1] ** 2 + 2 * psi[:, 0] * psi[:, 2],
            2 * psi[:, 1] * psi[:, 2],
            psi[:, 2] ** 2,
        ], axis=-1)
        assert rel_inf(got, expect) < 1e-14


def test_hodograph_basis_against_oracle():
    ts = np.linspace(0.0, 1.0, 23)
    for m in (1, 2):
        for w in (0.02, 0.9, 12.0, 300.0):
            got = basis.hodograph_basis(m, w, ts)
            ref = np.array([[float(v) for v in oracles.varphi_ref(m, w, t)] for t in ts])
            assert rel_inf(got, ref) < 1e-13


def test_squaring_identities(rng):
    # the products linking preimage and hodograph bases, with c1/q0/q1
    ts = rng.uniform(0.01, 0.99, 29)
    for w in (0.4, 1.7, 9.0):
        c1 = basis.constants(1, w).c1
        psi = basis.preimage_basis(1, w, ts)
        ph = basis.hodograph_basis(1, w, ts)
        assert rel_inf(psi[:, 0] ** 2, ph[:, 0]) < 1e-11
        assert rel_inf(psi[:, 0] * psi[:, 1], 0.5 * c1 * ph[:, 1]) < 1e-11
        assert rel_inf(psi[:, 1] ** 2, ph[:, 2]) < 1e-11
        c = basis.constants(2, w)
        psi2 = basis.preimage_basis(2, w, ts)
        ph2 = basis.hodograph_basis(2, w, ts)
        assert rel_inf(psi2[:, 0] ** 2, ph2[:, 0]) < 1e-11
        assert rel_inf(psi2[:, 0] * psi2[:, 1], 0.5 * ph2[:, 1]) < 1e-11
        assert rel_inf(psi2[:, 1] ** 2, c.q0 * ph2[:, 2]) < 1e-11
        assert rel_inf(psi2[:, 0] * psi2[:, 2], 0.5 * c.q1 * ph2[:, 2]) < 1e-11
        assert rel_inf(psi2[:, 1] * psi2[:, 2], 0.5 * ph2[:, 3]) < 1e-11
        assert rel_inf(psi2[:, 2] ** 2, ph2[:, 4]) < 1e-11


# ---------------------------------------------------------------------------
# curve basis
# ---------------------------------------------------------------------------

def test_curve_basis_endpoints():
    # exact unit rows in every mode; AUTO covers the series band and the
    # closed-form band (0.2 for m=1, 0.097 and 0.35 for m=2), where the
    # closed forms alone miss them by up to 6e-11
    cases = [(EvalMode.NAIVE, (0.8, 45.0)),
             (EvalMode.STABLE_LARGE_OMEGA, (2.5, 90.0, 800.0)),
             (EvalMode.TAYLOR5, (0.05,)),
             (EvalMode.AUTO, (0.097, 0.2, 0.35, 0.5, 1.5, 30.0))]
    for m in (1, 2):
        unit = np.eye(2 * m + 2)
        for mode, omegas in cases:
            for w in omegas:
                b = basis.curve_basis(m, w, np.array([0.0, 1.0]), mode)
                assert np.array_equal(b, unit[[0, -1]]), (m, mode, w)
                assert np.array_equal(basis.curve_basis(m, w, 1.0, mode), unit[-1])


def test_curve_basis_frozen_value():
    # (sinh(1/2) - 1/2) / (sinh 1 - 1), oracle-computed
    got = basis.curve_basis(1, 1.0, 0.5, EvalMode.NAIVE)[3]
    assert got == pytest.approx(0.12040617449579633322, rel=1e-13)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("w", [0.6, 4.0, 55.0, 200.0, 1200.0])
def test_curve_basis_stable_against_oracle(m, w):
    ts = np.linspace(0.0, 1.0, 31)
    got = basis.curve_basis(m, w, ts, EvalMode.STABLE_LARGE_OMEGA)
    ref = np.array([[float(v) for v in oracles.phi_ref(m, w, t)] for t in ts])
    # the rewrites target the large-omega regime; their rounding floor
    # rises toward small omega (tiny true numerators against O(1) terms)
    tol = 1e-12 if w >= 4.0 else 5e-9
    assert rel_inf(got, ref) < tol


@pytest.mark.parametrize("t", [1e-50, 1e-200])
@pytest.mark.parametrize("m", [1, 2])
def test_oracle_phi_converged_at_tiny_t(monkeypatch, m, t):
    # the oracle is the reference near the ends too: at twice its working
    # precision every function, down to the O(t^(2m+1)) last one, agrees
    # to far below double rounding
    ws = (0.15, 4.0, 40.0)
    first = {w: oracles.phi_ref(m, w, t) for w in ws}
    dps = oracles._dps
    monkeypatch.setattr(oracles, "_dps", lambda *args: 2 * dps(*args))
    for w in ws:
        again = oracles.phi_ref(m, w, t)
        for got, ref in zip(first[w], again):
            assert ref != 0 and abs(got - ref) <= mpf("1e-30") * abs(ref), (w, got, ref)


def test_curve_basis_naive_against_oracle():
    ts = np.linspace(0.0, 1.0, 31)
    for m, omegas in ((1, (0.3, 0.7, 6.0, 45.0, 300.0)), (2, (0.3, 0.7, 6.0))):
        for w in omegas:
            got = basis.curve_basis(m, w, ts, EvalMode.NAIVE)
            ref = np.array([[float(v) for v in oracles.phi_ref(m, w, t)]
                            for t in ts])
            assert rel_inf(got, ref) < 1e-10


def test_curve_basis_naive_m2_degrades_for_large_omega():
    # the m=2 closed forms cancel terms of size ~exp(2 omega); their
    # absolute error grows exponentially even far below the overflow cap
    ts = np.linspace(0.0, 1.0, 31)
    ref = np.array([[float(v) for v in oracles.phi_ref(2, 45.0, t)] for t in ts])
    got = basis.curve_basis(2, 45.0, ts, EvalMode.NAIVE)
    assert rel_inf(got, ref) > 1e-4


def test_curve_basis_stable_large_omega_finite_partition():
    for m in (1, 2):
        b = basis.curve_basis(m, 200.0, np.linspace(0, 1, 101),
                              EvalMode.STABLE_LARGE_OMEGA)
        assert np.all(np.isfinite(b))
        assert np.all(b >= -1e-15) and np.all(b <= 1.0 + 1e-12)
        assert np.max(np.abs(b.sum(axis=-1) - 1.0)) < 1e-12


@pytest.mark.parametrize("form", [basis._stable_m1, basis._stable_m2])
def test_stable_forms_are_pair_ready(form):
    # each stable per-side form is elementwise in its side x, so one call
    # on np.stack([1 - t, t]) gives, bit for bit, its values on 1 - t and
    # on t alone: the grid path could pair the two sides in one call
    ts = np.concatenate([[0.0, 1.0, 5e-324, 1e-300], np.linspace(0.0, 1.0, 501)])
    sides = (1.0 - ts, ts)
    for w in np.geomspace(1e-4, 1e5, 8):
        w = float(w)
        # at w = 1.9e-3 the m=1 denominator of b_2 rounds to 0; the
        # inf and NaN it gives must pair bitwise as well
        with np.errstate(divide="ignore", invalid="ignore"):
            paired = form(w, np.stack(sides))
            alone_by_side = [form(w, x) for x in sides]
        for row, alone in enumerate(alone_by_side):
            assert len(paired) == len(alone)
            for k, (got, ref) in enumerate(zip(paired, alone)):
                assert got[row].tobytes() == ref.tobytes(), (w, row, k)


def test_curve_basis_naive_overflow_guard():
    with pytest.raises(OverflowHazardError):
        basis.curve_basis(1, 701.0, 0.5, EvalMode.NAIVE)
    with pytest.raises(OverflowHazardError):
        basis.curve_basis(2, 300.0, 0.5, EvalMode.NAIVE)


@pytest.mark.parametrize("m", [1, 2])
def test_naive_finite_up_to_its_limit(m):
    # at its limit the naive basis is finite on a dense grid, the ends and
    # the smallest t included (the m=2 product sinh(w/2)**4 * g0(w(1-t))
    # peaks as t -> 0), and so are the weights inside (0, 1); one double
    # above, the mode raises
    w = basis.NAIVE_OMEGA_LIMIT[m]
    ts = np.concatenate([[0.0, 5e-324, 1e-300, 1.0 - 1e-16, 1.0],
                         np.linspace(0.0, 1.0, 100_001)])
    with np.errstate(over="raise", invalid="raise"):
        assert np.all(np.isfinite(basis.curve_basis(m, w, ts, EvalMode.NAIVE)))
        for t in ts[:5]:
            assert np.all(np.isfinite(basis.curve_basis(m, w, t, EvalMode.NAIVE)))
        inner = np.linspace(0.0, 1.0, 100_001)[1:-1]
        assert np.all(np.isfinite(basis.corner_weights(m, w, inner, EvalMode.NAIVE)))
    with pytest.raises(OverflowHazardError):
        basis.curve_basis(m, float(np.nextafter(w, math.inf)), 0.5, EvalMode.NAIVE)


def test_curve_basis_domain_error():
    with pytest.raises(DomainError):
        basis.curve_basis(1, 1.0, -0.01)
    with pytest.raises(DomainError):
        basis.curve_basis(2, 1.0, np.array([0.5, 1.2]))
    with pytest.raises(DomainError):
        basis.curve_basis(1, 1.0, np.nan)
    with pytest.raises(DomainError):
        basis.curve_basis(2, 1.0, np.array([0.5, np.nan]))


def test_auto_mode_dispatch():
    series, naive, stable = (EvalMode.TAYLOR5, EvalMode.NAIVE,
                             EvalMode.STABLE_LARGE_OMEGA)
    cases = [(1, "basis", 0.05, series), (1, "basis", 0.15, series),
             (1, "basis", 0.16, naive), (1, "basis", 0.5, naive),
             (1, "basis", 10.0, stable),
             (1, "tau", 0.05, series), (1, "tau", 0.1, stable),
             (1, "tau", 0.5, stable),
             (2, "basis", 5e-4, series), (2, "basis", 0.15, naive),
             (2, "basis", 1.9, naive), (2, "basis", 2.0, stable),
             (2, "tau", 5e-4, series), (2, "tau", 0.15, naive),
             (2, "tau", 2.0, stable)]
    for m, quantity, w, want in cases:
        assert basis.resolve_mode(EvalMode.AUTO, m, w, quantity) is want, \
            (m, quantity, w)
    assert basis.resolve_mode(EvalMode.AUTO, 2, 0.15) is naive   # basis by default
    assert basis.resolve_mode(naive, 1, 0.05, "tau") is naive


# Accuracy rule of AUTO's band table, against the mpmath oracle: at every
# omega AUTO's error is within 4x of the best mode's (or below 1e-13).
# Basis error is the max abs error; tau error is |dtau_j| * b_j(t), with
# b_j the degree-2m Bernstein weight each tau_j meets in eval_new (raw
# tau errors near the ends meet vanishing weights).  The omegas span
# 1e-4 to 650 and straddle every switch of the table.
_TABLE_TS = np.linspace(0.02, 0.98, 25)
_TABLE_OMEGAS = (1e-4, 9e-4, 1e-3, 1.1e-3, 0.01, 0.05, 0.09, 0.1, 0.11, 0.12,
                 0.15, 0.16, 0.17, 0.2, 0.3, 0.5, 1.0, 1.5, 1.9, 2.0, 2.1,
                 3.0, 4.0, 10.0, 50.0, 300.0, 650.0)


def _mode_error(m, quantity, w, mode, ref):
    f = basis.curve_basis if quantity == "basis" else basis.corner_weights
    try:
        with np.errstate(all="ignore"):
            err = np.abs(f(m, w, _TABLE_TS, mode) - ref)
    except OverflowHazardError:
        return math.inf
    if quantity == "tau":
        n = 2 * m
        err = err * np.stack([math.comb(n, j) * _TABLE_TS ** j
                              * (1.0 - _TABLE_TS) ** (n - j)
                              for j in range(n + 1)], axis=-1)
    worst = float(np.max(err))
    return worst if math.isfinite(worst) else math.inf


@pytest.mark.parametrize("quantity", ["basis", "tau"])
@pytest.mark.parametrize("m", [1, 2])
def test_auto_table_picks_the_most_accurate_mode(m, quantity):
    oracle = oracles.phi_ref if quantity == "basis" else oracles.tau_ref
    bad = []
    for w in _TABLE_OMEGAS:
        ref = np.array([[float(v) for v in oracle(m, w, t)] for t in _TABLE_TS])
        errs = {mode: _mode_error(m, quantity, w, mode, ref)
                for mode in (EvalMode.TAYLOR5, EvalMode.NAIVE,
                             EvalMode.STABLE_LARGE_OMEGA, EvalMode.AUTO)}
        auto = errs.pop(EvalMode.AUTO)
        if auto > max(4.0 * min(errs.values()), 1e-13):
            bad.append("omega=%g auto=%.1e %s" % (
                w, auto, " ".join("%s=%.1e" % (k.value, v) for k, v in errs.items())))
    assert not bad, bad


# ---------------------------------------------------------------------------
# series basis
# ---------------------------------------------------------------------------

def test_taylor_is_bernstein_at_zero():
    ts = np.linspace(0.0, 1.0, 21)
    got = basis.taylor_curve_basis(1, 0.0, ts)
    bern = np.stack([(1 - ts) ** 3, 3 * ts * (1 - ts) ** 2,
                     3 * ts ** 2 * (1 - ts), ts ** 3], axis=-1)
    assert rel_inf(got, bern) < 1e-15
    mid = basis.taylor_curve_basis(2, 0.0, 0.5)
    assert np.allclose(mid, np.array([1, 5, 10, 10, 5, 1]) / 32.0, rtol=1e-15)
    # omega = 0 is the series' own limit, but a non-finite omega is no shape
    for m in (1, 2):
        for w in (math.inf, -math.inf, math.nan, -0.1):
            with pytest.raises(ValueError):
                basis.taylor_curve_basis(m, w, 0.5)


def test_taylor_close_to_naive_small_omega():
    # the gap is dominated by the closed forms' own cancellation noise
    # (about 1e-9 at omega = 0.05, oracle-verified), not by the series
    # truncation, which sits at 1e-14 here
    got = basis.taylor_curve_basis(1, 0.05, 0.3)
    ref = basis.curve_basis(1, 0.05, 0.3, EvalMode.NAIVE)
    assert np.max(np.abs(got - ref)) < 1e-8


def test_taylor_partition_of_unity_exact():
    ts = np.linspace(0.0, 1.0, 101)
    for m in (1, 2):
        s = basis.taylor_curve_basis(m, 1.3, ts).sum(axis=-1)
        assert np.max(np.abs(s - 1.0)) < 1e-14


# ---------------------------------------------------------------------------
# corner weights
# ---------------------------------------------------------------------------

def test_corner_weights_frozen_value():
    got = basis.corner_weights(1, 1.0, 0.5, EvalMode.NAIVE)[0]
    assert got == pytest.approx(0.48162469798318533286, rel=1e-12)


def test_corner_weights_two_printed_forms_agree(rng):
    ts = rng.uniform(0.02, 0.98, 41)
    for w in (0.3, 1.0, 8.0):
        p = basis.curve_basis(1, w, ts, EvalMode.NAIVE)
        first = (p[:, 0] + p[:, 1] - (1 - ts) ** 2) / (2 * ts * (1 - ts))
        second = 1.0 - (p[:, 2] + p[:, 3] - ts ** 2) / (2 * ts * (1 - ts))
        assert np.max(np.abs(first - second)) < 1e-10
        tau = basis.corner_weights(1, w, ts, EvalMode.NAIVE)
        assert rel_inf(tau[:, 1], first) < 1e-10
    # near-edge t amplifies the m=2 closed forms' exp(2 omega)-sized
    # cancellation noise, so stay below omega ~ 5 here
    for w in (1.0, 3.0, 5.0):
        p2 = basis.curve_basis(2, w, ts, EvalMode.NAIVE)
        f2 = ((p2[:, 0] + p2[:, 1] + p2[:, 2] - (1 - ts) ** 4
               - 4 * ts * (1 - ts) ** 3) / (6 * ts ** 2 * (1 - ts) ** 2))
        s2 = 1.0 - ((p2[:, 3] + p2[:, 4] + p2[:, 5] - 4 * ts ** 3 * (1 - ts)
                     - ts ** 4) / (6 * ts ** 2 * (1 - ts) ** 2))
        assert np.max(np.abs(f2 - s2)) < 1e-10


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("w", [0.7, 5.0, 60.0, 150.0, 900.0])
def test_corner_weights_stable_against_oracle(m, w):
    ts = np.linspace(0.02, 0.98, 25)
    got = basis.corner_weights(m, w, ts, EvalMode.STABLE_LARGE_OMEGA)
    ref = np.array([[float(v) for v in oracles.tau_ref(m, w, t)] for t in ts])
    # near-edge t with small omega amplifies the rewrites' rounding by
    # 1/(t*(1-t)**3); in eval_new each weight meets a Bernstein factor
    # that vanishes there, so the weighted error is what AUTO's table
    # compares (see test_auto_table_picks_the_most_accurate_mode)
    tol = 1e-6 if w < 4.0 else 1e-11
    assert rel_inf(got, ref) < tol


def test_corner_weights_range_as_documented():
    # the range the corner_weights and eval_new docstrings and the README
    # state: m=1 inside [0, 1] to rounding at every omega, m=2 leaving it
    # between omega = 6 and 7, so its first stage extrapolates
    ts = np.linspace(1e-3, 1.0 - 1e-3, 999)
    eps = np.finfo(float).eps
    for w in np.geomspace(1e-4, 650.0, 40):
        tau = basis.corner_weights(1, w, ts)
        assert -2 * eps <= tau.min() and tau.max() <= 1.0 + 2 * eps, w
    tau = basis.corner_weights(2, 6.0, ts)
    assert 0.0 <= tau.min() and tau.max() <= 1.0
    assert basis.corner_weights(2, 7.0, ts).min() < 0.0
    assert basis.corner_weights(2, 10.0, ts).min() == pytest.approx(-0.389, abs=1e-3)


def test_corner_weights_stable_finite_near_edges():
    got = basis.corner_weights(2, 150.0, np.array([0.9]),
                               EvalMode.STABLE_LARGE_OMEGA)
    assert np.all(np.isfinite(got))


def test_corner_weights_open_interval_only():
    with pytest.raises(DomainError):
        basis.corner_weights(1, 1.0, 0.0)
    with pytest.raises(DomainError):
        basis.corner_weights(2, 1.0, np.array([0.5, 1.0]))
    with pytest.raises(DomainError):
        basis.corner_weights(1, 1.0, np.nan)
    with pytest.raises(DomainError):
        basis.corner_weights(2, 1.0, np.array([0.5, np.nan]))


# ---------------------------------------------------------------------------
# one point: the scalar t check and the np.array rows
# ---------------------------------------------------------------------------

_T_FUNCS = {
    "curve_basis": basis.curve_basis,
    "corner_weights": basis.corner_weights,
    "preimage_basis": basis.preimage_basis,
    "hodograph_basis": basis.hodograph_basis,
}
# NaN, both infinities and the nearest doubles outside [0, 1]
_OUTSIDE = (math.nan, math.inf, -math.inf, -1e-300, float(np.nextafter(1.0, 2.0)))


def _scalar_forms(v):
    return (v, np.float64(v), np.array(v))


def _raised(fn, t):
    with pytest.raises(Exception) as info:
        fn(t)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("name", sorted(_T_FUNCS))
@pytest.mark.parametrize("m", [1, 2])
def test_scalar_t_check_raises_as_the_array_check(name, m):
    # a 0-d t is checked on the float; it must reject what the (1,) form
    # rejects, with the same exception and message
    fn = lambda t: _T_FUNCS[name](m, 2.5, t)  # noqa: E731
    rejected = _OUTSIDE + ((0.0, 1.0) if name == "corner_weights" else ())
    for v in rejected:
        want = _raised(fn, np.array([v]))
        assert want[0] is DomainError
        for t in _scalar_forms(v):
            assert _raised(fn, t) == want, (v, type(t))


@pytest.mark.parametrize("name", ["curve_basis", "preimage_basis", "hodograph_basis"])
@pytest.mark.parametrize("m", [1, 2])
def test_scalar_t_check_accepts_the_closed_ends(name, m):
    for v, end in ((-0.0, 0), (0.0, 0), (1.0, -1)):
        for t in _scalar_forms(v):
            row = _T_FUNCS[name](m, 2.5, t)
            assert row[end] == 1.0 and np.sum(row) == 1.0, (v, type(t))


def test_check_t_gives_one_point_as_float64():
    # one point becomes a Python float (a C double), so the kernels run
    # their arithmetic on floats; an array passes through as the same
    # object
    for t in _scalar_forms(0.3):
        for open_interval in (False, True):
            got = basis._check_t(t, open_interval)
            assert type(got) is float and got == 0.3, (type(t), open_interval)
    for shape in ((1,), (5,), (2, 3)):
        t = np.full(shape, 0.3)
        assert basis._check_t(t) is t
        assert basis._check_t(t, open_interval=True) is t


def _one_point_rows(m, t):
    """Every public basis and weight row at one t, with its label."""
    for w in (0.05, 4.0):
        for mode in EvalMode:
            yield ("curve_basis", w, mode), basis.curve_basis(m, w, t, mode)
            yield ("corner_weights", w, mode), basis.corner_weights(m, w, t, mode)
        yield ("preimage_basis", w), basis.preimage_basis(m, w, t)
        yield ("hodograph_basis", w), basis.hodograph_basis(m, w, t)
        yield ("taylor_curve_basis", w), basis.taylor_curve_basis(m, w, t)


def _tick_curve(m, w):
    coeffs = ((1.0, 0.2, 0.1, 0.3), (0.5, 1.0, 0.2, 0.1), (0.3, 0.1, 1.0, 0.2))
    pre = curve.Preimage(m=m, omega=w, coeffs=coeffs[:m + 1])
    return pre, curve.curve_from_preimage(pre, [0.0, 0.0, 0.0])


def _tick(pre, ph, t, mode=EvalMode.AUTO):
    """One controller tick: the point, the speed and the arc length."""
    evaluators.eval_new(ph, t, mode)
    curve.parametric_speed(pre, t)
    curve.arc_length(pre, t, mode)


@pytest.mark.parametrize("m", [1, 2])
def test_one_point_calls_build_rows_without_stack(monkeypatch, m):
    # one point packs its rows with np.array, adds plain-float terms and
    # takes one branch of the naive m=2 forms: a recorder over np.stack,
    # np.ones_like and np.where sees no call, while a grid still reaches
    # np.stack, and np.where in the naive m=2 basis
    seen = []
    for name in ("stack", "ones_like", "where"):
        def recorder(*args, _name=name, _original=getattr(np, name), **kwargs):
            seen.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(np, name, recorder)
    ticks = [(_tick_curve(m, w), mode) for w in (0.05, 4.0) for mode in EvalMode]
    for t in (0.3, np.float64(0.7), np.array(0.45)):
        for label, _ in _one_point_rows(m, t):
            assert seen == [], label
        for (pre, ph), mode in ticks:
            _tick(pre, ph, t, mode)
            assert seen == [], mode
    basis.curve_basis(m, 4.0, np.array([0.3, 0.7]))
    assert "stack" in seen
    basis.curve_basis(2, 0.5, np.array([0.3, 0.7]), EvalMode.NAIVE)
    assert "where" in seen


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("w", [0.05, 0.7, 1.5, 3.0, basis.NAIVE_OMEGA_LIMIT[2]])
def test_mirrored_grid_rows_equal_one_point(m, w):
    # a grid runs the series and naive m=2 forms once on 1 - t and t
    # stacked; every row, the end rows included, keeps the bits of its t
    # alone.  At omega = 1.5 and 3, omega * t = 1, where the naive m=2
    # forms switch g0 between its series and its closed form, falls inside
    # the grid; at 0.05 and 0.7 the series serve every t.
    forms = [lambda t: basis.taylor_curve_basis(m, w, t)]
    forms += [lambda t, mode=mode: basis.curve_basis(m, w, t, mode)
              for mode in (EvalMode.NAIVE, EvalMode.TAYLOR5, EvalMode.AUTO)]
    grids = (np.linspace(0.0, 1.0, 501), np.array([[0.9, 0.0, 0.3], [1.0, 0.5, 0.6]]))
    with np.errstate(all="ignore"):     # the series far outside their band
        for k, form in enumerate(forms):
            for ts in grids:
                rows = form(ts)
                assert rows.shape == ts.shape + (2 * m + 2,)
                for at in np.ndindex(ts.shape):
                    assert form(float(ts[at])).tobytes() == rows[at].tobytes(), (k, at)


@pytest.mark.parametrize("m", [1, 2])
def test_one_point_row_is_fresh_writeable_and_contiguous(m):
    # _exact_ends writes the end rows into the row it is given
    for label, row in _one_point_rows(m, 0.3):
        k = {"corner_weights": 2 * m + 1, "hodograph_basis": 2 * m + 1,
             "preimage_basis": m + 1}.get(label[0], 2 * m + 2)
        assert type(row) is np.ndarray and row.shape == (k,), label
        assert row.flags.writeable and row.flags.c_contiguous, label
        assert row.flags.owndata, label
    first = basis.curve_basis(m, 4.0, 0.3)
    assert not np.shares_memory(first, basis.curve_basis(m, 4.0, 0.3))


@pytest.mark.parametrize("m", [1, 2])
def test_one_point_return_types(m):
    # a numpy-scalar t inside the kernels changes no return type: rows and
    # points are arrays, the speed and the arc length numpy scalars
    for w in (0.05, 1.3, 4.0):
        pre, ph = _tick_curve(m, w)
        batch = curve.CurveBatch(m=m, omega=w, dim=3,
                                 control_points=np.stack([ph.control_points] * 2))
        for t in _scalar_forms(0.3):
            for method in evaluators.EvalMethod:
                for mode in EvalMode:
                    p = evaluators.evaluate(ph, t, method, mode)
                    assert type(p) is np.ndarray and p.shape == (3,), (method, mode)
                    pb = evaluators.evaluate(batch, t, method, mode)
                    assert type(pb) is np.ndarray and pb.shape == (2, 3), (method, mode)
            for mode in EvalMode:
                assert type(curve.arc_length(pre, t, mode)) is np.float64, mode
            assert type(curve.parametric_speed(pre, t)) is np.float64
            assert curve.hodograph(pre, t).shape == (3,)
            assert curve.derivative(ph, t).shape == (3,)


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

_CACHE_OMEGAS = (float(np.nextafter(basis._SERIES_OMEGA, 0.0)), basis._SERIES_OMEGA,
                 2.0, 300.0, 700.0)


@pytest.mark.parametrize("m", [1, 2])
def test_constants_cached_per_m_and_omega(m):
    cached = basis._constants_m1 if m == 1 else basis._constants_m2
    assert cached.cache_info().maxsize is not None
    for w in _CACHE_OMEGAS:
        c = basis.constants(m, w)
        assert basis.constants(m, w) is c
        fresh = cached.__wrapped__(w)
        for field in dataclasses.fields(c):
            got, ref = getattr(c, field.name), getattr(fresh, field.name)
            assert np.float64(got).tobytes() == np.float64(ref).tobytes(), (w, field.name)
        # the neighbouring double is a record of its own
        w_next = float(np.nextafter(w, 2.0 * w))
        other = basis.constants(m, w_next)
        assert other is not c and other.omega == w_next
    assert basis.constants(2, 700.0).g0 == math.inf


def test_ticks_build_constants_once():
    # 100 ticks at one omega, whose m=2 basis and weights take the closed
    # forms, build its constants at most once; each tick reads them twice,
    # for tau and for the arc-length basis (the preimage derives its speed
    # and arc-length coefficients once)
    w = 1.3 + 2.0 ** -30
    pre, ph = _tick_curve(2, w)
    before = basis._constants_m2.cache_info()
    for k in range(100):
        _tick(pre, ph, (k + 0.5) / 100)
    after = basis._constants_m2.cache_info()
    assert after.misses - before.misses <= 1
    assert after.hits - before.hits >= 200



def test_constants_frozen_values():
    c = basis.constants(1, 1.0)
    assert c.c2 == pytest.approx(0.32260622532306821088, rel=1e-14)
    q = basis.constants(2, 1.0)
    assert q.q2 == pytest.approx(0.19093160792333207493, rel=1e-13)
    assert q.q3 == pytest.approx(0.20409224427587633290, rel=1e-13)
    assert q.q4 == pytest.approx(0.05925699052359593899, rel=1e-13)


@pytest.mark.parametrize("w", [1e-6, 1e-4, 0.05, 0.5, 0.9999, 1.0001, 3.0,
                               40.0, 250.0, 1000.0])
def test_constants_against_oracle(w):
    ref1 = oracles.constants_ref(1, w)
    c = basis.constants(1, w)
    for name in ("c1", "c2", "c3"):
        assert getattr(c, name) == pytest.approx(float(ref1[name]), rel=1e-12)
    assert c.c3_over_c1 == pytest.approx(float(ref1["c3"] / ref1["c1"]), rel=1e-12)
    ref2 = oracles.constants_ref(2, w)
    q = basis.constants(2, w)
    for name in ("q0", "q1", "q2", "q3", "q4"):
        assert getattr(q, name) == pytest.approx(float(ref2[name]), rel=1e-12)
    assert q.q0_over_q1 == pytest.approx(float(ref2["q0"] / ref2["q1"]), rel=1e-12)
    assert q.q4_over_q1 == pytest.approx(float(ref2["q4"] / ref2["q1"]), rel=1e-12)
    assert q.q4_q0_over_q1 == pytest.approx(
        float(ref2["q4"] * ref2["q0"] / ref2["q1"]), rel=1e-12)
    if w <= 250.0:   # the g's leave double range beyond this
        for name in ("g0", "g1", "g2"):
            assert getattr(q, name) == pytest.approx(float(ref2[name]), rel=1e-10)


def test_constants_small_omega_limits():
    c = basis.constants(1, 1e-4)
    assert c.c2 == pytest.approx(1.0 / 3.0, abs=1e-7)
    assert c.c3 == pytest.approx(1.0 / 3.0, abs=1e-7)
    q = basis.constants(2, 1e-4)
    assert q.q0_over_q1 == pytest.approx(2.0, abs=1e-6)
    assert q.q2 == pytest.approx(0.2, abs=1e-6)
    assert q.q3 == pytest.approx(0.2, abs=1e-6)
    assert q.q4 == pytest.approx(1.0 / 15.0, abs=1e-6)


# omegas whose series denominators underflow to zero (the constants raised
# ZeroDivisionError there) and the ends of the double range
TINY_OMEGAS = (1e-65, 1e-70, 1e-108, 1e-110, 1e-300, 5e-324)


@pytest.mark.parametrize("w", TINY_OMEGAS)
def test_constants_at_tiny_omega_are_the_limits(w):
    c = basis.constants(1, w)
    assert c.c1 == 1.0
    for name in ("c2", "c3", "c3_over_c1"):
        assert getattr(c, name) == pytest.approx(1.0 / 3.0, rel=1e-15), name
    q = basis.constants(2, w)
    limits = {"q0": 2.0 / 3.0, "q1": 1.0 / 3.0, "q2": 0.2, "q3": 0.2, "q4": 1.0 / 15.0,
              "q0_over_q1": 2.0, "q4_over_q1": 0.2, "q4_q0_over_q1": 2.0 / 15.0}
    for name, value in limits.items():
        assert getattr(q, name) == pytest.approx(value, rel=1e-15), name
    assert 0.0 <= q.g0 < 1e-300 and q.g1 == math.inf and q.g2 == -math.inf


def test_constants_nonzero():
    for w in (1e-3, 1.0, 50.0):
        c = basis.constants(1, w)
        assert c.c1 != 0 and c.c2 != 0 and c.c3 != 0
        assert 0.0 < c.c1 <= 1.0
        q = basis.constants(2, w)
        for name in ("q0", "q1", "q2", "q3", "q4", "g0", "g1", "g2"):
            assert getattr(q, name) != 0


def test_constants_integral_identities():
    # the antiderivative weights equal integrals of the hodograph basis
    from scipy.integrate import quad
    w = 2.5
    c = basis.constants(1, w)
    ints = [quad(lambda x, i=i: basis.hodograph_basis(1, w, x)[i],
                 0.0, 1.0, epsabs=1e-12)[0] for i in range(3)]
    assert ints[0] == pytest.approx(c.c2, abs=1e-10)
    assert ints[1] == pytest.approx(c.c3 / c.c1, abs=1e-10)
    assert ints[2] == pytest.approx(c.c2, abs=1e-10)
    q = basis.constants(2, w)
    ints2 = [quad(lambda x, i=i: basis.hodograph_basis(2, w, x)[i],
                  0.0, 1.0, epsabs=1e-12)[0] for i in range(5)]
    assert ints2[0] == pytest.approx(q.q2, abs=1e-10)
    assert ints2[1] == pytest.approx(q.q3, abs=1e-10)
    assert ints2[2] == pytest.approx(q.q4 / q.q1, abs=1e-10)
    assert ints2[3] == pytest.approx(q.q3, abs=1e-10)
    assert ints2[4] == pytest.approx(q.q2, abs=1e-10)


def test_bad_arguments():
    with pytest.raises(ValueError):
        basis.constants(3, 1.0)
    with pytest.raises(ValueError):
        basis.constants(1, 0.0)
    with pytest.raises(ValueError):
        basis.constants(1, -2.0)
    with pytest.raises(ValueError):
        basis.curve_basis(1, float("nan"), 0.5)
