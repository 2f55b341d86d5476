"""Spans around the package's public functions, installed from outside.

``Tracer.install`` replaces every public function of the traced modules with
a wrapper, at every place the function object is bound: its own module and
each module that imported it by name (``scenarios.cokernel_invariants``,
``fpgroup.cokernel_invariants``, ...).  Calls that look the function up
through any of those names therefore open a span.  ``uninstall`` puts the
original objects back.  Spans are kept in memory as
(name, start, end, parent index, op id) and written out by the caller.
"""

from __future__ import annotations

import functools
import inspect
from time import perf_counter

TRACED_MODULES = ("scenarios", "vankampen", "torus", "fpgroup", "intlin", "cli")


def _uv_bits(res):
    return max((abs(x).bit_length() for x in res.u.entries + res.v.entries), default=0)


# Counters read off a function's return value, after its span has closed:
# metric stat -> (function, how to read the value, how to combine).
RESULT_COUNTERS = {
    "fpgroup.todd_coxeter_order": ("cosets", lambda r: r, sum),
    "intlin.smith_normal_form": ("uv_max_bits", _uv_bits, max),
}


class Tracer:
    def __init__(self, pkg):
        self.modules = [getattr(pkg, name) for name in TRACED_MODULES]
        self.spans = []
        self.results = {}  # span index -> return value, for RESULT_COUNTERS
        self.stack = []
        self.op = None
        self._patched = []

    def _wrap(self, name, fn):
        spans, stack, results = self.spans, self.stack, self.results
        keep = name in RESULT_COUNTERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:  # outside any op: input generation, checks
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if keep:
                results[idx] = out
            return out

        return traced

    def install(self):
        wrappers = {}
        for mod in self.modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for mod in self.modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self):
        for mod, attr, obj in self._patched:
            setattr(mod, attr, obj)
        self._patched = []

    def aggregate(self, group_of):
        """Per-name totals, overall and per op group: ms, self_ms, calls and
        the RESULT_COUNTERS.  ``group_of`` maps an op id to its group."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total, by_group = {}, {}
        for idx, (name, start, end, parent, op) in enumerate(self.spans):
            dur = end - start
            for table in (total, by_group.setdefault(group_of(op), {})):
                row = table.setdefault(name, {"ms": 0.0, "self_ms": 0.0, "calls": 0})
                row["ms"] += dur * 1000.0
                row["self_ms"] += (dur - child[idx]) * 1000.0
                row["calls"] += 1
        for name, (stat, read, combine) in RESULT_COUNTERS.items():
            values = [read(r) for idx, r in self.results.items() if self.spans[idx][0] == name]
            total.setdefault(name, {"ms": 0.0, "self_ms": 0.0, "calls": 0})[stat] = combine(values) if values else 0
        return total, by_group

    def span_records(self):
        for name, start, end, parent, op in self.spans:
            yield {"name": name, "start": start, "end": end, "parent": parent, "op": op}
