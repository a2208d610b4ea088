import numpy as np
import pytest

from ephcurve import bench
from ephcurve.basis import EvalMode, taylor_curve_basis
from ephcurve.bench import (BreakpointResult, RhoConfig, default_omega_grid,
                            find_omega_bar, rho, time_methods)
from ephcurve.curve import CurveBatch, EphCurve
from ephcurve.evaluators import EvalMethod, evaluate

FAST = RhoConfig(d=3, m=1, n_curves=8, grid_points=101,
                 omega_grid=np.linspace(0.01, 0.6, 40), seed=11)


def test_default_grid():
    g = default_omega_grid()
    assert len(g) == 500
    assert g[0] == pytest.approx(0.004)
    assert g[-1] == pytest.approx(2.0)
    assert np.all(np.diff(g) > 0)


def test_config_validation():
    with pytest.raises(ValueError):
        RhoConfig(d=4)
    with pytest.raises(ValueError):
        RhoConfig(n_curves=0)
    with pytest.raises(ValueError):
        RhoConfig(omega_grid=np.array([0.0, 1.0]))
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError):
            RhoConfig(omega_grid=np.array([0.5, bad]))


@pytest.mark.parametrize("bad", [{"omega_grid": []}, {"omega_grid": [[0.5, 1.0]]},
                                 {"n_curves": 2.5}, {"grid_points": 10.5},
                                 {"d": 3.0}, {"m": 1.0}])
def test_config_rejects_what_rho_cannot_use(bad):
    # an empty sweep wrote a header-only table and gave find_omega_bar an
    # empty argmin; a 2-d grid and float sizes failed inside rho with a
    # TypeError
    with pytest.raises(ValueError):
        RhoConfig(**bad)


def test_rho_deterministic_given_seed():
    a = rho(FAST, EvalMethod.NEW)
    b = rho(FAST, EvalMethod.NEW)
    assert np.array_equal(a, b)
    other = RhoConfig(d=3, m=1, n_curves=8, grid_points=101,
                      omega_grid=np.linspace(0.01, 0.6, 40), seed=12)
    c = rho(other, EvalMethod.NEW)
    assert not np.array_equal(a, c)


def test_rho_shape_and_positivity():
    series = rho(FAST, EvalMethod.WOZNY_CHUDY)
    assert series.shape == (40, 2)
    assert np.all(series[:, 1] >= 0.0)
    assert np.array_equal(series[:, 0], FAST.omega_grid)


def test_rho_direct_dips_then_rises():
    # the direct baseline error decreases with omega down to its
    # accuracy breakpoint and grows again below it
    series = rho(FAST, EvalMethod.DIRECT)
    vals = series[:, 1]
    k = int(np.argmin(vals))
    assert 0 < k < len(vals) - 1
    assert vals[0] > 10 * vals[k]
    assert vals[-1] > 10 * vals[k]


def test_rho_methods_agree_where_truncation_dominates():
    # at the top of the sweep every correct evaluator is exact to far
    # below the series truncation, so the metric is method-independent
    grid = np.array([2.0])
    cfg = RhoConfig(d=3, m=1, n_curves=8, grid_points=101,
                    omega_grid=grid, seed=5)
    values = [rho(cfg, m)[0, 1] for m in (EvalMethod.DIRECT, EvalMethod.NEW,
                                          EvalMethod.WOZNY_CHUDY,
                                          EvalMethod.DECASTELJAU)]
    base = values[0]
    assert all(abs(v - base) / base < 0.1 for v in values)


def _rho_one_curve_at_a_time(config, method):
    """The stability metric as a loop over single curves."""
    ts = np.linspace(0.0, 1.0, config.grid_points)
    mode = EvalMode.NAIVE if method is EvalMethod.DIRECT else EvalMode.STABLE_LARGE_OMEGA
    out = []
    for w in config.omega_grid:
        tmat = taylor_curve_basis(config.m, w, ts)
        worst = 0.0
        for cp in config.draw_polygons():
            ref = tmat @ cp
            curve = EphCurve(m=config.m, omega=w, dim=config.d, control_points=cp)
            with np.errstate(all="ignore"):
                val = evaluate(curve, ts, method, mode)
            num = float(np.max(np.abs(val - ref)))
            worst = max(worst, num / float(np.max(np.abs(ref)))
                        if np.isfinite(num) else np.inf)
        out.append((w, worst))
    return np.array(out)


@pytest.mark.parametrize("block_curves", [None, 2])
@pytest.mark.parametrize("m", [1, 2])
def test_rho_matches_one_curve_at_a_time(monkeypatch, m, block_curves):
    # small omegas, where the stable forms and the naive baseline break
    # down, included; with block_curves=2, 5 curves take blocks 2, 2, 1
    config = RhoConfig(d=2 + m % 2, m=m, n_curves=5, grid_points=41,
                       omega_grid=np.array([1e-3, 0.02, 0.1, 0.4, 1.9]), seed=3)
    if block_curves:
        monkeypatch.setattr(bench, "_RHO_BLOCK_POINTS", block_curves * 41 + 40)
    for method in EvalMethod:
        assert np.array_equal(rho(config, method),
                              _rho_one_curve_at_a_time(config, method)), method


def _rho_comparison_on_rows(config, method):
    """The stability metric with the comparison on the evaluator's
    (N, t, dim) output, as rho took it before: ``val -= ref``, then the
    maxima of |val| and |ref| per curve, all curves in one block."""
    ts = np.linspace(0.0, 1.0, config.grid_points)
    cp = config.draw_polygons()
    mode = bench._rho_mode(method)
    out = []
    for w in config.omega_grid:
        tmat = taylor_curve_basis(config.m, w, ts)
        batch = CurveBatch(m=config.m, omega=float(w), dim=config.d, control_points=cp)
        with np.errstate(all="ignore"):
            val = evaluate(batch, ts, method, mode)
        ref = tmat @ cp
        val -= ref
        num = np.max(np.abs(val, out=val), axis=(1, 2))
        den = np.max(np.abs(ref), axis=(1, 2))
        ratio = np.where(np.isfinite(num), num / den, np.inf)
        out.append((w, float(np.max(ratio))))
    return np.array(out)


@pytest.mark.parametrize("m", [1, 2])
def test_rho_comparison_keeps_its_bits(m):
    # rho subtracts in the evaluators' (N, dim, t) layout; the metric must
    # keep the bits of the subtraction on (N, t, dim).  At omega = 1e-70
    # (and 1e-8 for m=1) some evaluators return non-finite values, so the
    # np.inf branch runs too.
    config = RhoConfig(d=3, m=m, n_curves=4, grid_points=41,
                       omega_grid=np.array([1e-70, 1e-8, 0.3, 1.9]), seed=2)
    infinite = 0
    for method in EvalMethod:
        got = rho(config, method)
        assert got.tobytes() == _rho_comparison_on_rows(config, method).tobytes(), method
        infinite += int(np.isinf(got[:, 1]).sum())
    assert infinite > 0


def test_find_omega_bar_returns_grid_point():
    bp = find_omega_bar(FAST, EvalMethod.NEW)
    assert isinstance(bp, BreakpointResult)
    assert bp.omega_bar in FAST.omega_grid
    assert bp.rho_at_min >= 0.0


@pytest.mark.parametrize("size", [{"repetitions": 0}, {"n_curves": 0},
                                  {"grid_points": 1}])
def test_timing_rejects_empty_measurements(size):
    # no repetition gave NaN medians, no curve timed an empty loop, and
    # one grid point is no grid: each is refused as RhoConfig refuses it
    with pytest.raises(ValueError):
        time_methods(3, 1, [0.5], **size)


@pytest.mark.parametrize("size", [{"n_curves": 2.5}, {"grid_points": 5.0},
                                  {"repetitions": 1.5}])
def test_timing_rejects_non_integer_sizes(size):
    # numpy's TypeError ("'float' object cannot be interpreted as an
    # integer") leaked instead
    with pytest.raises(ValueError, match="must be an integer"):
        time_methods(3, 1, [0.5], **size)


def test_timing_rejects_an_empty_omega_list():
    # it returned no rows, and the CLI wrote a header-only table
    with pytest.raises(ValueError):
        time_methods(3, 1, [], n_curves=1, grid_points=3, repetitions=1)


def test_timing_rows():
    rows = time_methods(3, 1, [0.5, 4.0], n_curves=3, grid_points=51,
                        repetitions=2, seed=1)
    assert len(rows) == 6
    for row in rows:
        assert row.median_seconds > 0.0
        assert np.isfinite(row.median_seconds)
