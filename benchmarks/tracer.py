"""Span tracing of the package's layers, installed from outside the package.

Every public function of each layer module (plus
``MultiTargetFimBuilder.fim``) is replaced by a wrapper that records one
span: name, start, end and the enclosing span.  The wrapper replaces the
function in its defining module *and* in every ``stcmsense`` module that
bound the same object by ``from ... import``, so calls through either name
are seen.  Spans stay in memory; aggregates are computed and the span table
is written once the traced pass ends.

A few boundaries also count the work they are handed (harmonic-pattern
angles, stacked-derivative sizes, rows written), so that ratios are
measured where the work happens.  These counting hooks run after their
span has closed; their time is taken out of the enclosing span's self time,
so it is charged to no layer and shows in the traced run's remainder.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array

LAYERS = ("config", "geometry", "metasurface", "channel", "bounds", "detection",
          "classification", "io", "experiments")

# (module, class, method) wrapped in addition to module-level functions
METHODS = (("bounds", "MultiTargetFimBuilder", "fim"),)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of: array = array("i")
        self.parent: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self._stack: list[int] = []
        # span index -> time its children's counting hooks took inside it
        self.excluded: dict[int, float] = {}
        self.originals: dict[str, object] = {}
        # boundary counters
        self.xi_evaluated = 0
        self.xi_distinct: set = set()
        self.exp_evals = 0
        self.fim_bytes = 0
        self.alpha_calls = 0
        self.alpha_distinct: set = set()
        self.rows_written = 0
        self.bytes_written = 0

    # --- installation -----------------------------------------------------
    def install(self) -> None:
        """Wrap every traced callable and rebind all its aliases."""
        mods = {name: sys.modules[f"stcmsense.{name}"] for name in LAYERS}
        replaced = {}
        for layer, mod in mods.items():
            for name, fn in inspect.getmembers(mod, inspect.isfunction):
                if fn.__module__ == mod.__name__ and not name.startswith("_"):
                    qual = f"{layer}.{name}"
                    replaced[id(fn)] = self._wrap(qual, fn)
        for layer, cls_name, meth in METHODS:
            cls = getattr(mods[layer], cls_name)
            fn = cls.__dict__[meth]
            setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "stcmsense" or mod_name.startswith("stcmsense.")):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in replaced and val is self.originals[replaced[id(val)].__qualname__]:
                    setattr(mod, attr, replaced[id(val)])

    def _wrap(self, qual: str, fn):
        nid = len(self.names)
        self.names.append(qual)
        self.originals[qual] = fn
        hook = _HOOKS.get(qual)
        name_of, parent, start, end, stack = self.name_of, self.parent, self.start, self.end, self._stack
        excluded = self.excluded
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if hook is not None:
                h = clock()
                hook(self, args, kwargs, out)
                if stack:
                    excluded[stack[-1]] = excluded.get(stack[-1], 0.0) + clock() - h
            return out

        wrapper.__qualname__ = qual
        return wrapper

    # --- aggregation ------------------------------------------------------
    def aggregate(self) -> dict:
        """Per-name call counts and self times, and per-layer totals."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = self.name_of[i]
            calls[k] += 1
            self_s[k] += (self.end[i] - self.start[i]) - child[i] - self.excluded.get(i, 0.0)
        top = sum(self.end[i] - self.start[i] for i in range(n) if self.parent[i] < 0)
        per_name = {name: {"calls": calls[k], "self_s": self_s[k]}
                    for k, name in enumerate(self.names)}
        per_layer = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for name, v in per_name.items():
            layer = name.split(".", 1)[0]
            per_layer[layer]["calls"] += v["calls"]
            per_layer[layer]["self_s"] += v["self_s"]
        return {"per_name": per_name, "per_layer": per_layer, "top_level_s": top,
                "spans": n}

    def write_spans(self, path: str) -> None:
        """Span table as CSV: id, name, parent id, start and end (seconds)."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            fh.write("id,name,parent,start_s,end_s\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.names[self.name_of[i]]},{self.parent[i]},"
                         f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f}\n")


# --- boundary counters --------------------------------------------------
def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _patterns(t: Tracer, args, kwargs, out):
    eta, _ = out
    layout = _arg(args, kwargs, 0, "layout")
    xi = _arg(args, kwargs, 3, "xi")
    xs = [float(x) for x in (xi if hasattr(xi, "__len__") else [xi])]
    t.xi_evaluated += len(xs)
    t.xi_distinct.update(xs)
    t.exp_evals += eta.shape[0] * len(xs) * layout.n_elements


def _fim_generic(t: Tracer, args, kwargs, out):
    cols = _arg(args, kwargs, 0, "derivative_columns")
    rows = max(len(c) for c in cols)
    t.fim_bytes += rows * len(cols) * 16  # complex128 D = column_stack(cols)


def _despread(t: Tracer, args, kwargs, out):
    alpha = float(_arg(args, kwargs, 0, "alpha"))
    combiner = _arg(args, kwargs, 3, "combiner")
    t.alpha_calls += 1
    t.alpha_distinct.add((alpha, combiner))


def _write_csv(t: Tracer, args, kwargs, out):
    t.rows_written += len(_arg(args, kwargs, 2, "rows"))
    t.bytes_written += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _write_manifest(t: Tracer, args, kwargs, out):
    t.bytes_written += os.path.getsize(out)


_HOOKS = {
    "metasurface.harmonic_pattern_batch": _patterns,
    "bounds.fim_generic": _fim_generic,
    "detection.despread_regressor_at_angle": _despread,
    "io.write_csv": _write_csv,
    "io.write_manifest": _write_manifest,
}
