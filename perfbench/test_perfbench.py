"""Tests of the benchmark harness at its quick sizes.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# every workload run.py knows: the ones BENCHMARK.json gates and eval-grid
WORKLOADS = ("eval-grid", "rho-sweep", "ph-tick")


def _run(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def quick_results():
    out = {}
    assert {w["name"] for w in SPEC["workloads"]} < set(WORKLOADS)
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = _run("--workload", name, "--seed", "5", "--seconds", "1",
                        "--trace", str(trace), "--quick")
            out[(name, trace)] = _result(proc)
    return out


def test_result_shape_and_metric_names(quick_results):
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for (name, trace), res in quick_results.items():
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] is True, name
        assert res["attempted"] >= 1
        want = layer if trace else e2e
        assert {k: v["unit"] for k, v in res["metrics"].items()} == want
        for key in e2e if not trace else ():
            assert res["metrics"][key]["value"] > 0, (name, key)


def _quick_workload(name, **extra):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import run
    from workloads import WORKLOADS
    return WORKLOADS[name](run.load_library(ROOT / "src"), 5, quick=True, **extra)


def test_failed_operations_are_exactly_the_known_faults(quick_results, tmp_path):
    from workloads import Recorder
    assert quick_results[("rho-sweep", 0)]["failed"] == 0
    # ph-tick: is_regular's wrong verdicts on the singular preimages (all
    # four today); a quick round is 3 omegas x (5 solves + 4 probes +
    # 2 x 3 ticks) + 2 CLI runs + 4 singular cases = 51 operations
    workload = _quick_workload("ph-tick", workdir=str(tmp_path))
    try:
        wrong = sum(workload.lib.curve.is_regular(pre) for pre, _ in workload.singular)
    finally:
        workload.close()
    res = quick_results[("ph-tick", 0)]
    assert res["failed"] * 51 == wrong * res["attempted"]
    # eval-grid: the direct calls at the (m, d, omega) where the
    # seed-independent probe finds inexact end points
    workload = _quick_workload("eval-grid")
    rec = Recorder()
    workload.round(rec, 0)
    assert workload.check() == []
    misses = len(workload.direct_misses)
    res = quick_results[("eval-grid", 0)]
    assert res["failed"] * rec.attempted == misses * res["attempted"]
    assert workload.failed(rec) == misses


def test_failed_share_is_the_same_for_every_seed_and_length(quick_results):
    other = _result(_run("--workload", "ph-tick", "--seed", "6", "--seconds", "2",
                         "--quick"))
    res = quick_results[("ph-tick", 0)]
    assert other["failed"] / other["attempted"] == res["failed"] / res["attempted"]


def test_tracer_reaches_dispatch_table_and_restores_it():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy as np
    import run
    from layertrace import Tracer
    lib = run.load_library(ROOT / "src")
    original = lib.evaluators._EVALUATORS[lib.evaluators.EvalMethod.NEW]
    curve = lib.curve.EphCurve(m=2, omega=4.0, dim=3,
                               control_points=np.arange(18.0).reshape(6, 3))
    tracer = Tracer(lib.package).install()
    try:
        lib.evaluators.evaluate(curve, np.linspace(0.0, 1.0, 11),
                                lib.evaluators.EvalMethod.NEW)
    finally:
        tracer.uninstall()
    stats = tracer.stats
    assert stats["evaluators.eval_new"].calls == 1
    assert stats["evaluators.eval_new"].points == 11
    assert stats["basis.corner_weights"].calls == 2       # one per branch of t
    assert stats["basis.resolve_mode"].picks["stable"] == 2
    new = stats["evaluators.eval_new"]
    assert 0.0 < new.self_s < new.total_s
    assert stats["evaluators.evaluate"].total_s >= new.total_s
    assert lib.evaluators._EVALUATORS[lib.evaluators.EvalMethod.NEW] is original
    assert lib.basis.curve_basis.__module__ == "ephcurve.basis"


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run("--workload", "eval-grid", "--seed", "1", "--seconds", "1",
                cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_layer_table_quick():
    proc = _run("--quick", script=HERE / "layers.py")
    assert proc.returncode == 0, proc.stderr
    rows = [ln for ln in proc.stdout.splitlines() if ln.startswith("| ")]
    assert len(rows) == 1 + 6
