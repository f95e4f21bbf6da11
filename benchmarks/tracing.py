"""Spans and call tallies recorded around the workloads' calls into ismkit.

A span is (name, start, end, parent, op): `parent` is the index of the span
that was open when it started, or -1, and `op` is the buffer, job or pass id.
Calls made once per wire message are too many to keep one by one, so
`tally` times each of them and keeps a count and a total per name instead.
Everything stays in memory until `write` is called at the end of the run.

`NULL` is the tracer of an untraced unit of work: its `span` is a shared
no-op context and its `call`/`tally` hand back the function unchanged, so
an untraced unit runs exactly the calls it would run without a tracer.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

_NULL_CONTEXT = contextlib.nullcontext()


class _NullTracer:
    enabled = False

    def span(self, name, op=None):
        return _NULL_CONTEXT

    def call(self, name, fn, op=None):
        return fn

    def tally(self, name, fn):
        return fn


NULL = _NullTracer()


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, object]] = []
        self.tallies: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name, op=None):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent, op))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, op)

    def call(self, name, fn, op=None):
        """Wrap `fn` so that each call records a span."""
        def traced(*args, **kwargs):
            with self.span(name, op):
                return fn(*args, **kwargs)
        return traced

    def tally(self, name, fn):
        """Wrap `fn` so that each call adds to the count and total time of `name`."""
        entry = self.tallies[name]
        clock = time.perf_counter

        def tallied(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                entry[0] += 1
                entry[1] += clock() - start
        return tallied

    def durations(self, name) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def total(self, name) -> float:
        return sum(self.durations(name))

    def count(self, name) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "tallies": dict(self.tallies)}, fh)
