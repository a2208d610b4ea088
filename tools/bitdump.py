"""Bitwise dump of ephcurve's public results, for before/after comparisons.

A change meant to keep every output bit is checked by dumping two trees on
the same inputs and diffing the dumps line by line:

    python3 tools/bitdump.py --src OLD_TREE/src > old.txt
    python3 tools/bitdump.py --src NEW_TREE/src > new.txt
    python3 tools/bitdump.py --compare old.txt new.txt

``--compare`` checks that both dumps list the same calls in the same
order, then counts the outcomes whose result differs (the text before the
first `` | warn ``) and those that differ in their warnings only.  It exits
1 if the labels or any result differ, else 0.

Each line names one call and hashes its outcome: a result by its type,
dtype, shape, C- and F-contiguity, writeability and bytes (NaN signs and
-0.0 included); an exception by its type and message; and every warning
it emits by category and message.  Ownership of the data is left out, so
a fresh array and a view of the same bits compare equal.

Inputs: m in {1, 2}; omegas from the smallest subnormal to 650, across
every AUTO band and both naive limits; one-point t from the ends and the
subnormals up, 0.5 and its lower neighbour included, each passed as a
Python float, an np.float64, a 0-d array and a (1,) array, plus grids
(one crossing 0.5, one on each side of it, and a 2-d one).  Covered: the
constants, the preimage, hodograph, series and curve bases and the corner
weights in every mode; the four evaluators in every mode on random
polygons of dims 2 and 3, on a polygon with a zero leg and -0.0
coordinates, and on a 3-curve batch; speed and arc length; the PH
construction (``is_regular`` and ``curve_from_preimage`` per omega,
``hodograph`` and ``derivative`` at every t); and the rho metric of
``bench`` for every method.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import sys
import warnings
from pathlib import Path

import numpy as np

OMEGAS = (5e-324, 1e-310, 1e-300, 1e-70, 1e-4, 1e-3, 0.05, 0.0999, 0.1, 0.16,
          0.5, 0.96, 1.0, 2.0, 4.0, 20.0, 150.0, 178.48, 200.0, 650.0)
TS = (0.0, -0.0, 5e-324, 1e-320, 1e-300, 1e-200, 1e-100, 1e-50, 1e-10, 0.013,
      0.37, 0.4999, float(np.nextafter(0.5, 0.0)), 0.5, 0.77, 1.0 - 1e-16, 1.0,
      1.5, float("nan"))
FORMS = (("float", float), ("float64", np.float64), ("0d", np.asarray),
         ("1d", lambda t: np.array([t])))
GRIDS = (("grid41", np.linspace(0.0, 1.0, 41)),
         ("below", np.linspace(0.01, 0.49, 7)),
         ("above", np.linspace(0.5, 0.97, 7)),
         ("grid2x3", np.array([[0.9, 0.0, 0.3], [1.0, 0.5, 0.6]])))


def digest(value) -> str:
    """A short hash of a result's type, layout and bytes."""
    h = hashlib.sha256()
    if dataclasses.is_dataclass(value):
        fields = dataclasses.astuple(value)
        h.update(repr((type(value).__name__,
                       [float(v).hex() for v in fields])).encode())
        return h.hexdigest()[:16]
    a = np.asarray(value)
    h.update(repr((type(value).__name__, a.dtype.str, a.shape,
                   a.flags.c_contiguous, a.flags.f_contiguous,
                   a.flags.writeable if isinstance(value, np.ndarray) else None)).encode())
    h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def outcome(call) -> str:
    """``call()``'s result digest or exception, then its warnings."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        try:
            text = digest(call())
        except Exception as exc:  # noqa: BLE001 - every failure is an outcome
            text = "raise %s: %s" % (type(exc).__name__, exc)
    for w in seen:
        text += " | warn %s: %s" % (w.category.__name__, w.message)
    return text


def t_inputs():
    """(label, t) for every one-point form of every t, then the grids."""
    for t, (name, form) in itertools.product(TS, FORMS):
        yield "t=%r/%s" % (t, name), form(t)
    yield from GRIDS


def polygons(rng, m) -> list:
    """(label, control points, is a batch) for the evaluators' polygons."""
    pts = rng.uniform(-1.0, 1.0, (2 * m + 2, 3))
    pts[2] = pts[1]                     # a zero leg
    pts[0, 1] = -0.0
    pts[-1] = -0.0
    return [("rand2", rng.uniform(-1.0, 1.0, (2 * m + 2, 2)), False),
            ("rand3", rng.uniform(-1.0, 1.0, (2 * m + 2, 3)), False),
            ("degenerate", pts, False),
            ("batch3", rng.uniform(-1.0, 1.0, (3, 2 * m + 2, 3)), True)]


def dump(out) -> int:
    import ephcurve
    from ephcurve import basis, bench, curve, evaluators
    from ephcurve.basis import EvalMode
    from ephcurve.evaluators import EvalMethod

    n = 0

    def line(label, call):
        nonlocal n
        out.write("%s\t%s\n" % (label, outcome(call)))
        n += 1

    rng = np.random.default_rng(2024)
    coeffs = ((1.0, 0.2, 0.1, 0.3), (0.5, 1.0, 0.2, 0.1), (0.3, 0.1, 1.0, 0.2))
    for m, w in itertools.product((1, 2), OMEGAS):
        key = "m=%d w=%r" % (m, w)
        line("constants %s" % key, lambda: basis.constants(m, w))
        pre = curve.Preimage(m=m, omega=w, coeffs=coeffs[:m + 1])
        line("is_regular %s" % key, lambda: curve.is_regular(pre))
        line("curve_from_preimage %s" % key,
             lambda: curve.curve_from_preimage(pre, (0.25, -0.5, 1.0)).control_points)
        cases = polygons(rng, m)
        rand3 = ephcurve.EphCurve(m=m, omega=w, dim=3, control_points=cases[1][1])
        for tl, t in t_inputs():
            at = "%s %s" % (key, tl)
            line("preimage_basis %s" % at, lambda: basis.preimage_basis(m, w, t))
            line("hodograph_basis %s" % at, lambda: basis.hodograph_basis(m, w, t))
            line("taylor_curve_basis %s" % at, lambda: basis.taylor_curve_basis(m, w, t))
            line("parametric_speed %s" % at, lambda: curve.parametric_speed(pre, t))
            line("hodograph %s" % at, lambda: curve.hodograph(pre, t))
            line("derivative %s" % at, lambda: curve.derivative(rand3, t))
            for mode in EvalMode:
                am = "%s %s" % (at, mode.name)
                line("curve_basis %s" % am, lambda: basis.curve_basis(m, w, t, mode))
                line("corner_weights %s" % am, lambda: basis.corner_weights(m, w, t, mode))
                line("arc_length %s" % am, lambda: curve.arc_length(pre, t, mode))
                for (name, poly, batch), method in itertools.product(cases, EvalMethod):
                    kind = ephcurve.CurveBatch if batch else ephcurve.EphCurve
                    c = kind(m=m, omega=w, dim=poly.shape[-1], control_points=poly)
                    line("evaluate %s %s %s" % (method.name, name, am),
                         lambda: evaluators.evaluate(c, t, method, mode))
    for m, d, method in itertools.product((1, 2), (2, 3), EvalMethod):
        config = bench.RhoConfig(d=d, m=m, n_curves=3, grid_points=41,
                                 omega_grid=np.geomspace(1e-3, 40.0, 9), seed=5)
        line("rho m=%d d=%d %s" % (m, d, method.name),
             lambda: bench.rho(config, method))
    return n


def compare(old: Path, new: Path, out) -> int:
    """Compare two dumps line by line; 1 if labels or results differ."""
    a = old.read_text().splitlines()
    b = new.read_text().splitlines()
    for k in range(max(len(a), len(b))):
        la = a[k].partition("\t")[0] if k < len(a) else "<end of %s>" % old
        lb = b[k].partition("\t")[0] if k < len(b) else "<end of %s>" % new
        if la != lb:
            out.write("labels differ at line %d: %r vs %r\n" % (k + 1, la, lb))
            return 1
    results, warns = [], []
    for x, y in zip(a, b):
        if x != y:
            label, _, ox = x.partition("\t")
            oy = y.partition("\t")[2]
            same = ox.partition(" | warn ")[0] == oy.partition(" | warn ")[0]
            (warns if same else results).append(label)
    out.write("%d outcomes compared\n" % len(a))
    for labels, what in ((results, "results differ"), (warns, "differ in warnings only")):
        out.write("%d %s\n" % (len(labels), what))
        for label in labels[:5]:
            out.write("  %s\n" % label)
    return 1 if results else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="directory holding the ephcurve package (default: this tree's src)")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"),
                        help="compare two dumps instead of writing one")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare, sys.stdout)
    sys.path.insert(0, str(args.src))
    n = dump(sys.stdout)
    print("%d outcomes" % n, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
