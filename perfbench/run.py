"""Benchmark runner for ephcurve: one workload per run, one thread.

    python3 perfbench/run.py --workload eval-grid --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src`` directory and nowhere else.  The run sets up the
workload several times (fresh import of the package, input generation,
one warm-up round) and reports the second slowest set-up time; then runs whole
rounds for ``--seconds``; then checks the outputs.  The last line of
standard output is the JSON result; the lines before it are a readable
report with the environment.  The full result, with the layer profile
of a traced run, is also written to ``perfbench/results/``.

With ``--trace 1`` every round runs twice, untraced and then traced; the
median ratio of their times gives the tracing overhead, and the readable
report's end-to-end figures come from the untraced rounds.  An allocation
pass with ``tracemalloc`` follows.  ``--quick`` shrinks every size for the
harness's own tests.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is imported: every operation here is
# small or medium, and pool threads on a shared machine turned a 0.6 ms
# (1e5 x 4) @ (4 x 3) matmul into intermittent 40 ms outliers.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_REPS = 9


def load_library(src: Path):
    """Import the package from ``src`` afresh; returns its modules."""
    for name in [n for n in sys.modules if n == "ephcurve" or n.startswith("ephcurve.")]:
        del sys.modules[name]
    package = importlib.import_module("ephcurve")
    if Path(package.__file__).resolve().parent != (src / "ephcurve").resolve():
        raise ImportError("ephcurve was imported from %s, not from %s"
                          % (package.__file__, src))
    from layertrace import MODULES
    mods = {n: importlib.import_module("ephcurve." + n) for n in MODULES}
    return SimpleNamespace(package=package, **mods)


def git_sha(root: Path):
    """Commit of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = root / ".git" / ref
        if path.exists():
            return path.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        buf = io.StringIO()
        with redirect_stdout(buf):
            np.show_config()
        blas = buf.getvalue()
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_sha": git_sha(ROOT),
    }


def run_rounds(workload, seconds, tracer=None):
    """Whole rounds until ``seconds`` have passed, at least one; one
    ``Recorder`` per round.  With a tracer, each round runs twice, untraced
    and then traced (``rec.traced``), so the two see the same inputs and
    the same drift in the machine's speed."""
    from workloads import Recorder
    rounds = []
    deadline = time.perf_counter() + seconds
    r = 1
    while True:
        for traced in ((False, True) if tracer else (False,)):
            rec = Recorder()
            rec.traced = traced
            if traced:
                tracer.install()
            try:
                t0 = time.perf_counter()
                workload.round(rec, r)
                rec.elapsed = time.perf_counter() - t0
            finally:
                if traced:
                    tracer.uninstall()
            if rounds:
                rec.share_labels(rounds[0])
            rounds.append(rec)
        r += 1
        if time.perf_counter() >= deadline:
            return rounds


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q / 100.0 * len(ordered)))]


def typical(rounds, labels, times):
    """(kind, units, 90th-percentile time) per entry of a round.

    Entry i is the same call in every round, and the time is taken over
    the samples of its slot in all rounds: its own, or those of the
    calls it shares a slot with.  This machine's speed drifts and comes
    in bursts up to 1.6x faster, for seconds to minutes; the time a call
    stays within in nine cases out of ten tracks the steady level, where
    medians and totals follow the bursts.
    """
    entries = getattr(rounds[0], labels)
    samples = defaultdict(list)
    for (_, _, slot), col in zip(entries, zip(*(getattr(r, times) for r in rounds))):
        samples[slot] += col
    level = {slot: percentile(values, 90) for slot, values in samples.items()}
    return [(kind, units, level[slot]) for kind, units, slot in entries]


def rate(entries, kind):
    """Units per second over the entries of one kind."""
    hits = [(u, t) for k, u, t in entries if k == kind]
    return sum(u for u, _ in hits) / sum(t for _, t in hits)


def end_to_end(unit_op, rounds, setup_times, peak_rss_mib) -> dict:
    """The gated metrics, all from per-call 90th percentiles over rounds."""
    from workloads import METHOD_KEYS
    ops = typical(rounds, "ops", "op_times")
    evals = typical(rounds, "evals", "eval_times")
    # the second slowest set-up: holds the steady level like the per-call
    # percentiles, and is not thrown by one stall
    m = {"setup_s": (percentile(setup_times, 80), "s"),
         "peak_rss_mib": (peak_rss_mib, "MiB")}
    for _, key in METHOD_KEYS:
        m[key + "_pts_per_s"] = (rate(evals, key), "pts/s")
    m["ops_per_s"] = (len(ops) / sum(t for _, _, t in ops), "1/s")
    unit = [t for kind, _, t in ops if kind == unit_op]
    m["op_p90_us"] = (1e6 * statistics.geometric_mean(unit), "us")
    return m


def workload_extras(name, rounds) -> dict:
    """Figures that only one workload has; reported, not gated."""
    if name != "ph-tick":
        return {}
    ops = typical(rounds, "ops", "op_times")
    ticks = [t * 1e6 for r in rounds for (kind, _, _), t in zip(r.ops, r.op_times)
             if kind == "tick"]
    return {"hermite_solves_per_s": (rate(ops, "solve"), "1/s"),
            "cli_calls_per_s": (rate(ops, "cli"), "1/s"),
            "tick_p50_us": (statistics.median(ticks), "us"),
            "tick_p99_us": (percentile(ticks, 99), "us")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, for the harness's own tests")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "ephcurve" / "__init__.py").is_file():
        print("no ephcurve package under %s" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import numpy as np
    from layertrace import Tracer, profile
    from workloads import WORKLOADS, Recorder
    if args.workload not in WORKLOADS:
        print("unknown workload %r; choose from %s" % (args.workload, sorted(WORKLOADS)),
              file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    make = WORKLOADS[args.workload]
    extra = {"workdir": str(RESULTS)} if args.workload == "ph-tick" else {}

    setup_times = []
    workload = None
    for _ in range(2 if args.quick else SETUP_REPS):
        if workload is not None:
            workload.close()
        t0 = time.perf_counter()
        lib = load_library(src)
        workload = make(lib, args.seed, quick=args.quick, **extra)
        workload.warm_up()
        setup_times.append(time.perf_counter() - t0)

    layers = {}
    try:
        if args.trace:
            tracer = Tracer(lib.package)
            rounds = run_rounds(workload, args.seconds, tracer)
            tracer.install()
            try:
                alloc = tracer.alloc_pass(lambda: workload.round(Recorder(), 0))
            finally:
                tracer.uninstall()
            layers = profile(tracer.stats, alloc, rounds=len(rounds) // 2)
            layers["trace.overhead_pct"] = 100.0 * (statistics.median(
                b.elapsed / a.elapsed for a, b in zip(rounds[::2], rounds[1::2])) - 1.0)
        else:
            rounds = run_rounds(workload, args.seconds)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        errors = workload.check()
    finally:
        workload.close()
    attempted = sum(r.attempted for r in rounds)
    failed = sum(workload.failed(r) for r in rounds)

    plain = [r for r in rounds if not r.traced]
    e2e = end_to_end(make.unit_op, plain, setup_times, peak_rss_mib)
    extras = workload_extras(args.workload, plain)
    env = environment(np)
    if args.trace:
        # the layers every workload calls; the full profile is in the report
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        metrics = {m["name"]: {"value": layers.get(m["name"], 0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    result = {"correct": not errors, "attempted": attempted,
              "failed": failed, "metrics": metrics}

    for msg in errors:
        print("CHECK FAILED: %s" % msg, file=sys.stderr)
    print("workload %s seed %d seconds %g trace %d: %d rounds, %d operations, %d failed"
          % (args.workload, args.seed, args.seconds, args.trace, len(rounds),
             attempted, failed))
    for k, (v, u) in list(e2e.items()) + list(extras.items()):
        print("  %-22s %14.6g %s" % (k, v, u))
    if args.trace:
        for k in sorted(layers):
            print("  %-50s %14.6g" % (k, layers[k]))
    print("checks: %s" % ("passed" if not errors else "%d failed" % len(errors)))
    print("environment: %s" % json.dumps(env, sort_keys=True))
    path = RESULTS / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "result": result, "environment": env,
                   "end_to_end": {k: v for k, (v, _) in e2e.items()},
                   "extras": {k: v for k, (v, _) in extras.items()},
                   "setup_times": setup_times,
                   "layers": layers, "rounds": len(rounds),
                   "check_errors": errors}, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
