"""Per-layer tracing of the library from outside, without editing it.

Every public function defined in one of the layer modules is replaced by a
wrapper in each conicbundle module namespace that holds the same function
object (conic_model imports config_equiv from projline by name, twist
imports solve_linear, and so on).  A wrapper records a span (name, start,
end, parent) in memory; after each request the spans are folded into
per-function totals, with self time computed from the parent links, and
dropped, so memory stays flat however long the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

LAYERS = ("cli", "projline", "conic_model", "twist", "polynomial",
          "delpezzo", "planner", "lattice")
# Numerator times denominator above which twist's circle search gives up.
CIRCLE_CUTOFF = 10 ** 10


def _q_height(model, x) -> int:
    value = Fraction(-1)
    for a in model.roots:
        value *= Fraction(x) - a
    return abs(value.numerator) * value.denominator


def _grid_size(values) -> int:
    return 2 * len(set(values)) - 1


def _grid_cells(args) -> int:
    """Cells of find_rect_path's grid, from its arguments."""
    region, start, end = args[:3]
    fx = list(args[3]) if len(args) > 3 else []
    fy = list(args[4]) if len(args) > 4 else []
    xs = [v for r in region.rects for v in (r.x0, r.x1)] + [Fraction(v) for v in fx]
    ys = [v for r in region.rects for v in (r.y0, r.y1)] + [Fraction(v) for v in fy]
    xs += [Fraction(start[0]), Fraction(end[0])]
    ys += [Fraction(start[1]), Fraction(end[1])]
    return _grid_size(xs) * _grid_size(ys)


class Tracer:
    """Spans of the current request plus totals over every request folded."""

    def __init__(self):
        self.spans = []    # [name, start, end, parent index, args, result]
        self.stack = []
        self.calls = defaultdict(int)
        self.ms = defaultdict(float)
        self.self_ms = defaultdict(float)
        self.counts = defaultdict(float)
        self._patched = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, args, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                span[5] = fn(*args, **kwargs)
                return span[5]
            finally:
                span[2] = perf_counter()
                stack.pop()
        return wrapper

    def install(self):
        """Wrap every public function of every layer, in every namespace."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "conicbundle" or name.startswith("conicbundle.")]
        for layer in LAYERS:
            mod = importlib.import_module(f"conicbundle.{layer}")
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, key, wrapper)
                            self._patched.append((holder, key, fn))

    def uninstall(self):
        for holder, key, fn in reversed(self._patched):
            setattr(holder, key, fn)
        self._patched.clear()

    def fold(self):
        """Add the finished request's spans to the totals and drop them."""
        spans = self.spans
        child_ms = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_ms[parent] += (end - start) * 1e3
        for i, (name, start, end, parent, args, result) in enumerate(spans):
            ms = (end - start) * 1e3
            self.calls[name] += 1
            self.ms[name] += ms
            self.self_ms[name] += ms - child_ms[i]
            self._count(name, ms, args, result)
        spans.clear()

    def _count(self, name, ms, args, result):
        """Work counts measured where the work happens, from the arguments."""
        c = self.counts
        if name == "twist.find_fiber_point":
            if result is not None:
                c["fiber_hits"] += 1
                c["fiber_hit_ms"] += ms
            else:
                c["fiber_miss_ms"] += ms
                if _q_height(args[0], args[1]) > CIRCLE_CUTOFF:
                    c["fiber_large_height"] += 1
        elif name == "delpezzo.fiber_points" and not result:
            c["conic_empty"] += 1
            c["conic_empty_ms"] += ms
        elif name == "twist.interpolate":
            c["nodes"] += len(args[0])
            c["max_nodes"] = max(c["max_nodes"], len(args[0]))
        elif name == "polynomial.solve_linear":
            c["max_n"] = max(c["max_n"], len(args[0]))
        elif name == "planner.find_rect_path":
            c["grid_cells"] += _grid_cells(args)
