"""Span tracing from outside the program, for the benchmark's traced run.

`Tracer.install` replaces every public function bound as an attribute of
the given modules (including names one module imports from another, such
as `rainbow.connectivity_at_least`) with a wrapper that records a span:
function name, start, end, parent span and job id. Spans are kept in flat
arrays in memory, written out once at the end, and `uninstall` puts the
original functions back.

Generator functions are left unwrapped: a span around the call would end
before the generator does any work. Class methods are not module
attributes, so their time is self time of the calling function.
"""

from __future__ import annotations

import functools
import gzip
import inspect
from array import array
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.job = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._observers: dict[str, object] = {}

    def observe(self, name: str, fn) -> None:
        """Call fn(span_id, args, kwargs, result) after each call of `name`."""
        self._observers[name] = fn

    def install(self, modules) -> None:
        wrappers: dict[object, object] = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or inspect.isgeneratorfunction(value)
                        or not value.__module__.startswith("ncrainbow.")):
                    continue
                if value not in wrappers:
                    name = value.__module__.split(".", 1)[1] + "." + value.__name__
                    wrappers[value] = self._wrap(value, name)
                self._saved.append((module, attr, value))
                setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def _wrap(self, fn, name: str):
        idx = self.name_ids.setdefault(name, len(self.names))
        if idx == len(self.names):
            self.names.append(name)
        stack = self._stack
        span_name, span_parent, span_job = self.span_name, self.span_parent, self.span_job
        span_start, span_end = self.span_start, self.span_end
        observer = self._observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(span_name)
            span_name.append(idx)
            span_parent.append(stack[-1] if stack else -1)
            span_job.append(self.job)
            span_end.append(0.0)
            stack.append(sid)
            span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[sid] = perf_counter()
                stack.pop()
            if observer is not None:
                observer(sid, args, kwargs, result)
            return result

        return traced

    def __len__(self) -> int:
        return len(self.span_name)

    def self_times(self) -> list[float]:
        """Span duration minus the durations of its direct children."""
        out = [e - s for s, e in zip(self.span_start, self.span_end)]
        for sid, parent in enumerate(self.span_parent):
            if parent >= 0:
                out[parent] -= self.span_end[sid] - self.span_start[sid]
        return out

    def write(self, path) -> None:
        """Spans as gzipped tab-separated lines: id, parent, job, name, start, end."""
        t0 = self.span_start[0] if len(self) else 0.0
        with gzip.open(path, "wt") as out:
            out.write("id\tparent\tjob\tname\tstart_s\tend_s\n")
            for sid in range(len(self)):
                out.write(f"{sid}\t{self.span_parent[sid]}\t{self.span_job[sid]}\t"
                          f"{self.names[self.span_name[sid]]}\t"
                          f"{self.span_start[sid] - t0:.9f}\t{self.span_end[sid] - t0:.9f}\n")
