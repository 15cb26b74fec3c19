"""Spans around calls into binexceed's modules, recorded from outside.

`Tracer.install` replaces every public module-level function of the layer
modules, in every binexceed namespace that holds it, by a wrapper that
records one span per call: name, start, end, parent span, the operation it
belongs to and the run id.  Spans stay in memory (flat integer arrays) and
are written out at the end.  No file under
`src/` is changed.

`enclosure.as_fraction` is left unwrapped: it is a type coercion run by
every Enclosure and BinomialSpec constructor, and a span per interval built
would measure the tracer rather than a layer.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import defaultdict
from functools import _lru_cache_wrapper
from types import FunctionType

LAYERS = ("enclosure", "binom", "bounds", "proofs", "report", "cli")
_SKIP = {"enclosure.as_fraction"}


class Tracer:
    """In-memory span store plus counters filled by per-function probes."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.name_of = array("l")
        self.parent = array("q")
        self.op_of = array("l")
        self.start = array("q")
        self.end = array("q")
        self.counters: dict = defaultdict(int)
        self._stack = [-1]
        self._op = [0]

    def set_op(self, op: int) -> None:
        self._op[0] = op

    def wrap(self, name: str, fn, probe=None):
        """Return fn wrapped so that each call records a span named `name`."""
        idx = len(self.names)
        self.names.append(name)
        name_of, parent, op_of = self.name_of, self.parent, self.op_of
        start, end, stack, op, counters = (self.start, self.end, self._stack,
                                           self._op, self.counters)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(start)
            name_of.append(idx)
            parent.append(stack[-1])
            op_of.append(op[0])
            end.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if probe is not None:
                try:
                    probe(counters, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # a probe that no longer fits the call's signature must
                    # not break the program under test; the count is reported
                    counters["probe_errors"] += 1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def install(self, package, probes: dict, methods: dict) -> None:
        """Wrap the layer modules' public functions and the given methods.

        `probes` maps span names to probe(counters, args, kwargs, result);
        `methods` maps span names to (class, attribute); a method the class
        no longer defines is skipped.
        """
        prefix = package.__name__ + "."
        wrapped = {}                 # id(original) -> wrapper
        for layer in LAYERS:
            module = sys.modules[prefix + layer]
            for attr, obj in vars(module).items():
                span = f"{layer}.{attr}"
                if (attr.startswith("_") or span in _SKIP
                        or not isinstance(obj, (FunctionType, _lru_cache_wrapper))
                        or obj.__module__ != module.__name__):
                    continue
                wrapped[id(obj)] = self.wrap(span, obj, probes.get(span))
        for name, module in list(sys.modules.items()):
            if name != package.__name__ and not name.startswith(prefix):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = wrapped.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    setattr(module, attr, wrapper)
        for span, (cls, attr) in methods.items():
            method = vars(cls).get(attr)
            if method is None:           # removed by a later change: no span
                continue
            setattr(cls, attr, self.wrap(span, method, probes.get(span)))

    def totals(self) -> tuple[dict, dict, dict]:
        """Calls, self time and inclusive time (s) per span name.

        Self time is a span's duration minus the durations of its children;
        inclusive time is the plain duration.
        """
        start, end, parent, name_of = self.start, self.end, self.parent, self.name_of
        n = len(start)
        child = [0] * n
        for i in range(n):
            pid = parent[i]
            if pid >= 0:
                child[pid] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        incl_ns = [0] * len(self.names)
        for i in range(n):
            idx = name_of[i]
            dur = end[i] - start[i]
            calls[idx] += 1
            self_ns[idx] += dur - child[i]
            incl_ns[idx] += dur
        return ({name: calls[i] for i, name in enumerate(self.names)},
                {name: self_ns[i] / 1e9 for i, name in enumerate(self.names)},
                {name: incl_ns[i] / 1e9 for i, name in enumerate(self.names)})

    def write(self, path) -> None:
        """Write every span as CSV (gzip): run_id,span,parent,op,name,start_ns,end_ns."""
        names, run_id = self.names, self.run_id
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("run_id,span,parent,op,name,start_ns,end_ns\n")
            chunk = []
            for i in range(len(self.start)):
                chunk.append(f"{run_id},{i},{self.parent[i]},{self.op_of[i]},"
                             f"{names[self.name_of[i]]},{self.start[i]},{self.end[i]}\n")
                if len(chunk) >= 65536:
                    fh.write("".join(chunk))
                    chunk.clear()
            fh.write("".join(chunk))
