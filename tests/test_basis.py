import math

import numpy as np
import pytest
from mpmath import mpf

import oracles
from conftest import rel_inf
from ephcurve import basis
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


def test_curve_basis_naive_overflow_guard():
    with pytest.raises(OverflowHazardError):
        basis.curve_basis(1, 701.0, 0.5, EvalMode.NAIVE)
    with pytest.raises(OverflowHazardError):
        basis.curve_basis(2, 300.0, 0.5, EvalMode.NAIVE)


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
# constants
# ---------------------------------------------------------------------------

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
