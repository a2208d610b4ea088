"""Layer table of one curve evaluation, from traced spans.

    python3 perfbench/layers.py [--quick]

Stable mode, omega = 4, m in {1, 2}, grids of 1, 501 and 1e5 points.
Each (method, m, grid) cell is evaluated repeatedly under the tracer,
with the Bernstein recursion and the de Casteljau chain weights wrapped
as extra spans; a cell holds the median over repetitions of the time
spent in that layer during one evaluation.  Layer rows see the interior
points only, because the evaluators split the endpoints off first.  The
table prints as markdown; the figures and the environment go to
``perfbench/results/layers.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import run  # sets the BLAS thread count before numpy is imported

OMEGA = 4.0
# (row label, traced span, method whose evaluation it is timed in)
ROWS = (
    ("`curve_basis`", "basis.curve_basis", "direct"),
    ("`corner_weights` (τ)", "basis.corner_weights", "new"),
    ("Bernstein recursion", "evaluators._bernstein_wc", "new"),
    ("de Casteljau chain weights", "evaluators._decasteljau_weights", "decasteljau"),
    ("`eval_new` (end to end)", "evaluators.eval_new", "new"),
    ("`eval_direct` (end to end)", "curve.eval_direct", "direct"),
)


def _fmt(seconds):
    if seconds >= 1e-3:
        return "%.3g ms" % (seconds * 1e3)
    return "%.3g µs" % (seconds * 1e6)


def measure(lib, grids, reps):
    import numpy as np
    from layertrace import Tracer
    tracer = Tracer(lib.package, extra=("evaluators._bernstein_wc",
                                        "evaluators._decasteljau_weights"))
    stable = lib.basis.EvalMode.STABLE_LARGE_OMEGA
    rng = np.random.default_rng(0)
    cells = {}
    tracer.install()
    try:
        for m in (1, 2):
            curve = lib.curve.EphCurve(m=m, omega=OMEGA, dim=3,
                                       control_points=rng.uniform(0.0, 1.0, (2 * m + 2, 3)))
            for n in grids:
                ts = np.array([0.3]) if n == 1 else np.linspace(0.0, 1.0, n)
                for method in ("new", "direct", "decasteljau"):
                    per_rep = []
                    lib.evaluators.evaluate(curve, ts, lib.evaluators.EvalMethod(method), stable)
                    for _ in range(reps[n]):
                        tracer.reset()
                        lib.evaluators.evaluate(curve, ts, lib.evaluators.EvalMethod(method),
                                                stable)
                        per_rep.append({k: st.total_s for k, st in tracer.stats.items()})
                    for _, span, row_method in ROWS:
                        if row_method == method:
                            cells[(span, m, n)] = statistics.median(
                                rep.get(span, 0.0) for rep in per_rep)
    finally:
        tracer.uninstall()
    return cells


def table(cells, grids) -> str:
    cols = [(m, n) for m in (1, 2) for n in grids]
    head = ["layer / end-to-end"] + ["m=%d, %s" % (m, "1 pt" if n == 1 else "%g pts" % n)
                                     for m, n in cols]
    lines = ["| " + " | ".join(head) + " |", "|" + "---|" * len(head)]
    for label, span, _ in ROWS:
        lines.append("| " + " | ".join([label] + [_fmt(cells[(span, m, n)])
                                                 for m, n in cols]) + " |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small grids and few repetitions, for the harness's own tests")
    args = parser.parse_args(argv)
    src = run.ROOT / "src"
    if not (src / "ephcurve" / "__init__.py").is_file():
        print("no ephcurve package under %s" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np
    lib = run.load_library(src)
    if args.quick:
        grids, reps = (1, 501, 2001), {1: 5, 501: 3, 2001: 3}
    else:
        grids, reps = (1, 501, 100000), {1: 301, 501: 51, 100000: 7}
    cells = measure(lib, grids, reps)
    text = table(cells, grids)
    env = run.environment(np)
    run.RESULTS.mkdir(exist_ok=True)
    with open(run.RESULTS / "layers.json", "w", encoding="utf-8") as fh:
        json.dump({"omega": OMEGA, "mode": "stable", "repetitions": {str(k): v for k, v in reps.items()},
                   "cells": [{"span": s, "m": m, "points": n, "median_s": v}
                             for (s, m, n), v in sorted(cells.items())],
                   "environment": env}, fh, indent=1)
    print("Stable mode, omega=%g, median over repetitions %s; traced spans."
          % (OMEGA, ", ".join("%d for %d pt" % (r, n) for n, r in reps.items())))
    print(text)
    print("environment: %s" % json.dumps(env, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
