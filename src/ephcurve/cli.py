"""Command-line front end.

Subcommands: ``eval`` (sample a curve), ``hermite`` (solve an
interpolation problem), ``basis`` (dump basis values), ``bench`` (run
the stability/timing studies).  Exit codes: 0 success, 2 malformed
input or invalid value, 3 domain error or a result outside double
range, 4 degenerate geometry.  The ``#`` header of the ``eval`` and
``basis`` CSVs names the mode that produced the numbers, with ``auto``
resolved to the concrete mode it chose.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

import numpy as np

from . import bench
from .basis import EvalMode, curve_basis, resolve_mode
from .curve import EphCurve, eval_direct
from .errors import DegenerateDirectionError, DomainError, ZeroVectorError
from .evaluators import EvalMethod, evaluate
from .hermite import (AngleChoice, HermiteProblem, PlanarSolutionTag,
                      reproduce_hyperbolic, solve_planar, solve_spatial)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DOMAIN = 3
EXIT_DEGENERATE = 4

class InputError(Exception):
    """Malformed document or flags; mapped to exit code 2."""


def _open_out(path):
    if path in (None, "-"):
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8")


def _write_csv(out, header_rows, columns, rows):
    for line in header_rows:
        out.write("# %s\n" % line)
    out.write(",".join(columns) + "\n")
    for row in rows:
        out.write(",".join("%.17g" % v for v in row) + "\n")


def _load_curve(path) -> EphCurve:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError("cannot read curve document %r: %s" % (path, exc))
    try:
        return EphCurve.from_dict(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("invalid curve document %r: %s" % (path, exc))


def cmd_eval(args) -> int:
    curve = _load_curve(args.curve)
    method = EvalMethod(args.method)
    mode = EvalMode(args.mode)
    ts = np.linspace(0.0, 1.0, args.grid)
    pts = evaluate(curve, ts, method, mode)
    cols = ["t"] + ["x", "y", "z"][:curve.dim]
    header = ["ephcurve eval method=%s mode=%s grid=%d"
              % (args.method, resolve_mode(mode, curve.m, curve.omega).value, args.grid),
              "curve m=%d omega=%.17g dim=%d" % (curve.m, curve.omega, curve.dim)]
    with _open_out(args.out) as out:
        _write_csv(out, header, cols,
                   ([t] + list(p) for t, p in zip(ts, pts)))
    return EXIT_OK


def _angles_from_doc(doc) -> AngleChoice:
    if "angles" in doc:
        a = doc["angles"]
        if "eta0" in a:
            return AngleChoice(float(a["eta0"]), float(a["eta1"]), float(a["eta2"]))
        return AngleChoice.from_mean_delta(float(a["eta_m"]), float(a["delta_eta"]),
                                           float(a.get("eta1", 0.0)))
    raise InputError("spatial problem document needs an 'angles' object")


def _write_svg(path, pts, width, height):
    pts = np.asarray(pts, dtype=float)[:, :2]
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-12)
    scaled = (pts - lo) / span * [width - 20, height - 20] + 10
    scaled[:, 1] = height - scaled[:, 1]   # y axis up
    poly = " ".join("%.3f,%.3f" % (x, y) for x, y in scaled)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 %d %d">\n'
                 % (width, height))
        fh.write('<polyline fill="none" stroke="black" stroke-width="1" points="%s"/>\n'
                 % poly)
        fh.write("</svg>\n")


def cmd_hermite(args) -> int:
    if args.preset == "cosh":
        if args.omega is None:
            raise InputError("--preset cosh requires --omega")
        curve = reproduce_hyperbolic(args.omega)
        preimage = None
    else:
        if args.problem is None:
            raise InputError("either --problem FILE or --preset cosh is required")
        try:
            with open(args.problem, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError("cannot read problem document: %s" % exc)
        try:
            problem = HermiteProblem(r0=doc["r0"], r_end=doc["r_end"],
                                     di=doc["di"], df=doc["df"],
                                     omega=float(doc["omega"]))
        except ZeroVectorError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError("invalid problem document: %s" % exc)
        if "tag" in doc:
            try:
                tag = PlanarSolutionTag(doc["tag"])
            except ValueError:
                raise InputError("unknown planar tag %r" % doc["tag"])
            solution = solve_planar(problem, tag)
        else:
            solution = solve_spatial(problem, _angles_from_doc(doc))
        curve = solution.curve
        preimage = solution.preimage
    out_doc = curve.to_dict()
    if preimage is not None:
        out_doc["preimage"] = preimage.to_dict()
    with _open_out(args.out) as out:
        json.dump(out_doc, out)
        out.write("\n")
    if args.plot:
        ts = np.linspace(0.0, 1.0, args.plot_samples)
        _write_svg(args.plot, eval_direct(curve, ts), args.svg_width, args.svg_height)
    return EXIT_OK


def cmd_basis(args) -> int:
    mode = EvalMode(args.mode)
    ts = np.linspace(0.0, 1.0, args.grid)
    vals = curve_basis(args.m, args.omega, ts, mode)
    cols = ["t"] + ["phi%d" % i for i in range(vals.shape[-1])]
    header = ["ephcurve basis m=%d omega=%.17g mode=%s grid=%d"
              % (args.m, args.omega, resolve_mode(mode, args.m, args.omega).value,
                 args.grid)]
    with _open_out(args.out) as out:
        _write_csv(out, header, cols,
                   ([t] + list(v) for t, v in zip(ts, vals)))
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.experiment in ("rho", "breakpoints"):
        grid = bench.default_omega_grid(args.omega_points, args.omega_max)
        config = bench.RhoConfig(d=args.d, m=args.m, n_curves=args.curves,
                                 grid_points=args.grid, omega_grid=grid,
                                 seed=args.seed)
        header = ["ephcurve bench experiment=%s d=%d m=%d curves=%d grid=%d "
                  "omega_points=%d omega_max=%.17g seed=%d"
                  % (args.experiment, args.d, args.m, args.curves, args.grid,
                     args.omega_points, args.omega_max, args.seed)]
        methods = [EvalMethod(v) for v in args.methods.split(",")]
        if args.experiment == "rho":
            rows = []
            cols = ["omega"] + [m.value for m in methods]
            series = [bench.rho(config, m)[:, 1] for m in methods]
            for i, w in enumerate(config.omega_grid):
                rows.append([w] + [s[i] for s in series])
            with _open_out(args.out) as out:
                _write_csv(out, header, cols, rows)
        else:
            with _open_out(args.out) as out:
                out.write("# %s\n" % header[0])
                out.write("method,omega_bar,rho_at_min\n")
                for m in methods:
                    bp = bench.find_omega_bar(config, m)
                    out.write("%s,%.17g,%.17g\n" % (m.value, bp.omega_bar, bp.rho_at_min))
        return EXIT_OK
    # timing
    omegas = [0.096 + 2.0 ** k for k in range(args.k_min, args.k_max + 1)]
    rows = bench.time_methods(args.d, args.m, omegas, n_curves=args.curves,
                              grid_points=args.grid, repetitions=args.repetitions,
                              seed=args.seed)
    header = ["ephcurve bench experiment=timing d=%d m=%d curves=%d grid=%d "
              "repetitions=%d k=%d..%d seed=%d"
              % (args.d, args.m, args.curves, args.grid, args.repetitions,
                 args.k_min, args.k_max, args.seed)]
    with _open_out(args.out) as out:
        out.write("# %s\n" % header[0])
        out.write("method,omega,median_seconds\n")
        for row in rows:
            out.write("%s,%.17g,%.17g\n" % (row.method.value, row.omega,
                                            row.median_seconds))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ephcurve")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="sample a curve document to CSV")
    p.add_argument("--curve", required=True, help="curve JSON file")
    p.add_argument("--method", default="direct",
                   choices=[m.value for m in EvalMethod])
    p.add_argument("--mode", default="auto", choices=[m.value for m in EvalMode])
    p.add_argument("--grid", type=int, default=501)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("hermite", help="solve a Hermite problem document")
    p.add_argument("--problem", default=None, help="problem JSON file")
    p.add_argument("--preset", default=None, choices=["cosh"])
    p.add_argument("--omega", type=float, default=None,
                   help="shape parameter for --preset")
    p.add_argument("--plot", default=None, help="write an SVG polyline here")
    p.add_argument("--plot-samples", type=int, default=501)
    p.add_argument("--svg-width", type=int, default=640)
    p.add_argument("--svg-height", type=int, default=480)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_hermite)

    p = sub.add_parser("basis", help="dump sampled basis values as CSV")
    p.add_argument("--m", type=int, required=True, choices=[1, 2])
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--mode", default="auto", choices=[m.value for m in EvalMode])
    p.add_argument("--grid", type=int, default=101)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("bench", help="stability / timing experiments")
    p.add_argument("--experiment", required=True,
                   choices=["rho", "breakpoints", "timing"])
    p.add_argument("--d", type=int, default=3, choices=[2, 3])
    p.add_argument("--m", type=int, default=1, choices=[1, 2])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--curves", type=int, default=100)
    p.add_argument("--grid", type=int, default=501)
    p.add_argument("--omega-points", type=int, default=500)
    p.add_argument("--omega-max", type=float, default=2.0)
    p.add_argument("--methods", default="decasteljau,woznychudy,new,direct")
    p.add_argument("--repetitions", type=int, default=5)
    p.add_argument("--k-min", type=int, default=-10)
    p.add_argument("--k-max", type=int, default=10)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except DomainError as exc:
        print("domain error: %s" % exc, file=sys.stderr)
        return EXIT_DOMAIN
    except (ZeroVectorError, DegenerateDirectionError) as exc:
        print("degenerate data: %s" % exc, file=sys.stderr)
        return EXIT_DEGENERATE
    except OverflowError as exc:
        print("out of double range: %s" % exc, file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        print("invalid value: %s" % exc, file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
