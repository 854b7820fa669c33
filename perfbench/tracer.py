"""Spans around the calls into qubitflow's public functions, recorded from outside.

``Tracer.install`` replaces each traced function by a wrapper in every
qubitflow module namespace that holds it (``qubitflow.defects.roots`` as well
as ``qubitflow.polynomials.roots`` and ``qubitflow.roots``), so calls between
modules are seen too; ``restore`` puts the originals back.  Spans stay in
memory, each with its parent and the operation it belongs to, until
``write`` saves them.  A span's self time is its duration minus that of its
direct children: calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from contextlib import contextmanager
from time import perf_counter

# The layers are qubitflow's modules; these are the functions traced in each.
LAYERS = {
    "cli": ("main",),
    "states": ("apply_gate", "qft"),
    "fields": ("position_map", "charge_map", "field_from_dict"),
    "polynomials": ("roots", "derivative_eval"),
    "defects": ("extract_defects", "detect_halos", "field_separability"),
    "inner_products": ("build_gram", "inner", "circle_inner_product"),
    "rendering": (
        "sample_grid",
        "render_svg",
        "grid_to_csv",
        "stereographic_project",
        "north_pole_classify",
    ),
}

# Per-call quantities recorded after a span ends: name -> (metric, unit, how
# to read it from (args, result), how to combine calls).
EXTRAS = {
    "polynomials.roots": ("degree_sum", "count", lambda args, res: args[0].degree, "sum"),
    "defects.field_separability": ("accept_ratio", "ratio", lambda args, res: float(res[0]), "mean"),
    "inner_products.build_gram": ("condition_max", "cond", lambda args, res: res.condition_estimate, "max"),
    "rendering.sample_grid": ("points", "count", lambda args, res: res.x.size, "sum"),
    "rendering.render_svg": ("bytes", "bytes", lambda args, res: len(res.encode()), "sum"),
    "rendering.grid_to_csv": ("bytes", "bytes", lambda args, res: len(res.encode()), "sum"),
    "rendering.stereographic_project": ("samples", "count", lambda args, res: len(res), "sum"),
}

TRACED = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)
OP_SPAN = "op"


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "error", "extra")

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.error = False
        self.extra = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.op_id = None

    def _open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else None, self.op_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _wrap(self, name: str, fn):
        extra = EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if extra is not None:
                span.extra = extra[2](args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a qubitflow module refers to it."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = [m for k, m in sys.modules.items() if k == "qubitflow" or k.startswith("qubitflow.")]
        for name in TRACED:
            mod, fn = name.split(".")
            orig = getattr(importlib.import_module(f"qubitflow.{mod}"), fn)
            wrapper = self._wrap(name, orig)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        self._patched.append((module, attr, orig))
                        setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()

    @contextmanager
    def op(self, op_id):
        """Root span of one benchmark operation; the layer spans inside share its id."""
        self.op_id = op_id
        span = self._open(OP_SPAN)
        span.start = perf_counter()
        try:
            yield
        finally:
            span.end = perf_counter()
            self._stack.pop()
            self.op_id = None

    def self_times(self) -> list[float]:
        """Seconds of each span not covered by its direct children."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def summary(self) -> dict[str, dict]:
        """Per traced function: calls, self_ms, errors and its extra metric."""
        out = {name: {"calls": 0, "self_ms": 0.0, "errors": 0, "values": []} for name in TRACED}
        for span, own in zip(self.spans, self.self_times()):
            if span.name == OP_SPAN:
                continue
            row = out[span.name]
            row["calls"] += 1
            row["self_ms"] += own * 1e3
            row["errors"] += span.error
            if span.extra is not None:
                row["values"].append(span.extra)
        for name, row in out.items():
            values = row.pop("values")
            if name in EXTRAS:
                metric, _, _, how = EXTRAS[name]
                if how == "sum":
                    row[metric] = sum(values)
                elif how == "max":
                    row[metric] = max(values, default=0.0)
                else:
                    row[metric] = sum(values) / len(values) if values else 0.0
        return out

    def write(self, path: str) -> None:
        """Save the spans as JSON lines, times in ms from the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "parent": s.parent, "op": s.op,
                    "start_ms": (s.start - t0) * 1e3, "end_ms": (s.end - t0) * 1e3,
                    "error": s.error,
                }) + "\n")
