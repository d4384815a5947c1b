"""In-memory spans recorded around calls into the package's public functions.

Spans are taken from outside the package: while `Tracer.instrument()` is
active, every public function of the six modules is replaced, in every
module namespace that refers to it, by a wrapper that records a span. Calls
the package makes between its own modules (cli -> panel, model ->
estimation, model.phase_in_scenario -> model.propagate_shock) are therefore
traced too; calls to private helpers are not.

A span is (name, start, end, parent, op): the name is "<module>.<function>"
or a benchmark label, times are `time.perf_counter()` seconds, parent is the
index of the enclosing span or -1, and op is the id of the operation the span
belongs to.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import json
from collections import defaultdict
from time import perf_counter

MODULES = ("cli", "panel", "ratios", "estimation", "unitroot", "model")


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.op = ""
        self._stack: list[int] = []
        self._wrappers: dict[int, object] = {}

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(idx, name, start)

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (name, start, end, parent, self.op)

    def _wrap(self, module: str, fn):
        wrapper = self._wrappers.get(id(fn))
        if wrapper is None:
            name = f"{module}.{fn.__name__}"

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = self._open()
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(idx, name, start)

            self._wrappers[id(fn)] = wrapper
        return wrapper

    @contextlib.contextmanager
    def instrument(self):
        """Wrap the public functions of MODULES for the duration of the block."""
        mods = {m: importlib.import_module(f"baselcost.{m}") for m in MODULES}
        home = {f"baselcost.{m}": m for m in MODULES}
        patched = []
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ not in home):
                    continue
                patched.append((mod, attr, obj))
                setattr(mod, attr, self._wrap(home[obj.__module__], obj))
        try:
            yield
        finally:
            for mod, attr, obj in patched:
                setattr(mod, attr, obj)

    # -- analysis -------------------------------------------------------------

    def durations(self, name: str, op_prefix: str = "") -> list[float]:
        return [s[2] - s[1] for s in self.spans
                if s[0] == name and s[4].startswith(op_prefix)]

    def self_time_by_module(self, op_prefix: str = "") -> dict[str, float]:
        """Seconds spent in each span's own code, minus its child spans, summed
        by module (the first dotted part of the span name)."""
        children = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                children[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            if op.startswith(op_prefix):
                totals[name.split(".")[0]] += end - start - children[i]
        return dict(totals)

    def write(self, path) -> None:
        """Write the spans as gzipped JSON columns."""
        names = sorted({s[0] for s in self.spans})
        ops = sorted({s[4] for s in self.spans})
        name_idx = {n: i for i, n in enumerate(names)}
        op_idx = {o: i for i, o in enumerate(ops)}
        t0 = min((s[1] for s in self.spans), default=0.0)
        doc = {
            "columns": ["name", "start_s", "end_s", "parent", "op"],
            "names": names,
            "ops": ops,
            "name": [name_idx[s[0]] for s in self.spans],
            "start_s": [round(s[1] - t0, 9) for s in self.spans],
            "end_s": [round(s[2] - t0, 9) for s in self.spans],
            "parent": [s[3] for s in self.spans],
            "op": [op_idx[s[4]] for s in self.spans],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)
