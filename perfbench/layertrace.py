"""Layer tracing from outside the program.

``Tracer.install`` replaces every public function of the traced modules
with a wrapper that records a span around the call.  The replacement is
made wherever the package holds a reference to the original: module
globals (so ``from .x import f`` bindings and calls inside a module are
reached too) and dict-valued globals such as the dispatch table behind
``evaluators.evaluate``.  ``uninstall`` puts the originals back.

Spans are aggregated per function as they close: calls, total time,
self time (the span minus the spans of traced functions it called),
parameter points for functions that take a parameter array ``t``, and
the AUTO picks of ``basis.resolve_mode``.  In alloc mode ``tracemalloc``
also gives each span's peak of newly allocated bytes; that pass is
several times slower and is run apart from the timed one.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

MODULES = ("basis", "evaluators", "curve", "hermite", "quat", "bench", "cli")

# position of the parameter argument ``t`` for functions that take one
_T_ARG = {
    "basis.preimage_basis": 2, "basis.hodograph_basis": 2,
    "basis.curve_basis": 2, "basis.taylor_curve_basis": 2,
    "basis.corner_weights": 2,
    "evaluators.evaluate": 1, "evaluators.eval_new": 1,
    "evaluators.eval_decasteljau": 1, "evaluators.eval_wozny_chudy": 1,
    "curve.eval_direct": 1, "curve.derivative": 1, "curve.hodograph": 1,
    "curve.parametric_speed": 1, "curve.arc_length": 1,
}


class Stats:
    __slots__ = ("calls", "total_s", "self_s", "points", "alloc_bytes",
                 "alloc_points", "bytes_written", "picks")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.points = 0
        self.alloc_bytes = 0
        self.alloc_points = 0
        self.bytes_written = 0
        self.picks = defaultdict(int)


class _Frame:
    __slots__ = ("child_s", "base", "peak")

    def __init__(self):
        self.child_s = 0.0
        self.base = 0
        self.peak = 0


def public_functions(module):
    """Functions defined in ``module`` whose names carry no underscore prefix."""
    return [name for name, obj in vars(module).items()
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__ == module.__name__]


def _cli_outputs(argv):
    """Paths a ``cli.main`` argument list asks to write."""
    argv = list(argv or ())
    return [argv[i + 1] for i, a in enumerate(argv[:-1])
            if a in ("--out", "--plot") and argv[i + 1] != "-"]


class Tracer:
    """Wraps the package's public functions; see the module docstring.

    ``extra`` names private functions to wrap as well, as
    ``"module._name"``; the layer-table command uses it for the
    Bernstein recursion and the de Casteljau chain weights.
    """

    def __init__(self, package, extra=()):
        self.package = package
        self.extra = tuple(extra)
        self.stats = defaultdict(Stats)
        self.alloc = False
        self._stack = []
        self._saved = []          # (namespace, key, original)

    # -- installation -----------------------------------------------------

    def _targets(self):
        for mod_name in MODULES:
            module = sys.modules[self.package.__name__ + "." + mod_name]
            for name in public_functions(module):
                yield mod_name + "." + name, getattr(module, name)
        for full in self.extra:
            mod_name, name = full.split(".")
            module = sys.modules[self.package.__name__ + "." + mod_name]
            yield full, getattr(module, name)

    def install(self):
        wrappers = {id(fn): (fn, self._wrap(label, fn)) for label, fn in self._targets()}
        prefix = self.package.__name__
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == prefix or mod_name.startswith(prefix + ".")):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((namespace, key, value))
                    namespace[key] = hit[1]
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        hit = wrappers.get(id(v))
                        if hit is not None and hit[0] is v:
                            self._saved.append((value, k, v))
                            value[k] = hit[1]
        return self

    def uninstall(self):
        for namespace, key, original in reversed(self._saved):
            namespace[key] = original
        self._saved.clear()

    def reset(self):
        self.stats = defaultdict(Stats)

    # -- spans -------------------------------------------------------------

    def _wrap(self, label, fn):
        t_index = _T_ARG.get(label)
        is_resolve = label == "basis.resolve_mode"
        is_cli = label == "cli.main"
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = _Frame()
            stack.append(frame)
            if self.alloc:
                cur, peak = tracemalloc.get_traced_memory()
                if len(stack) > 1:
                    stack[-2].peak = max(stack[-2].peak, peak)
                tracemalloc.reset_peak()
                frame.base = frame.peak = cur
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                if self.alloc:
                    frame.peak = max(frame.peak, tracemalloc.get_traced_memory()[1])
                stack.pop()
                st = self.stats[label]
                st.calls += 1
                st.total_s += dt
                st.self_s += dt - frame.child_s
                if stack:
                    stack[-1].child_s += dt
                points = 0
                if t_index is not None:
                    t = args[t_index] if len(args) > t_index else kwargs.get("t")
                    points = int(np.size(t))
                    st.points += points
                if self.alloc:
                    # the bookkeeping above happens outside every span's window
                    if stack:
                        stack[-1].peak = max(stack[-1].peak, frame.peak)
                    st.alloc_bytes += frame.peak - frame.base
                    st.alloc_points += points
                    tracemalloc.reset_peak()
            if is_resolve and args and getattr(args[0], "value", None) == "auto":
                st.picks[result.value] += 1
            if is_cli:
                argv = args[0] if args else kwargs.get("argv")
                st.bytes_written += sum(os.path.getsize(p) for p in _cli_outputs(argv)
                                        if os.path.exists(p))
            return result

        return wrapper

    def alloc_pass(self, fn):
        """Run ``fn`` with per-span allocation peaks; returns the stats.

        ``fn`` runs twice and only the second run counts: the first fills
        the interpreter's free lists and caches, whose state otherwise
        depends on how much ran before.
        """
        saved = self.stats
        self.stats = defaultdict(Stats)
        tracemalloc.start()
        self.alloc = True
        try:
            fn()
            for st in self.stats.values():    # zeroed in place: no new objects
                st.__init__()
            fn()
        finally:
            self.alloc = False
            tracemalloc.stop()
        alloc_stats, self.stats = self.stats, saved
        return alloc_stats


def profile(stats, alloc_stats=None, rounds=1) -> dict:
    """Flat per-layer profile ``{"<module>.<function>.<quantity>": value}``.

    Counts and times are divided by ``rounds``, the number of traced
    rounds, so they are per round of the workload: a run that fits more
    rounds in its time does not read as more work per layer.
    """
    out = {}
    for label in sorted(stats):
        st = stats[label]
        out[label + ".calls"] = st.calls / rounds
        out[label + ".self_s"] = st.self_s / rounds
        out[label + ".total_s"] = st.total_s / rounds
        if label in _T_ARG:
            out[label + ".points"] = st.points / rounds
        if label == "cli.main":
            out[label + ".bytes_written"] = st.bytes_written / rounds
        if label == "basis.resolve_mode":
            for mode in ("taylor5", "naive", "stable"):
                out[label + "." + mode] = st.picks.get(mode, 0) / rounds
    for label in sorted(alloc_stats or ()):
        st = alloc_stats[label]
        if label in _T_ARG and st.alloc_points:
            out[label + ".alloc_bytes_per_point"] = st.alloc_bytes / st.alloc_points
    return out
