"""In-memory span recorder for the traced benchmark passes.

A span is (name, start, end, parent, call): ``parent`` is the index of the
enclosing span and ``call`` the index of the root span of the pipeline call
it belongs to, so every span of one call shares that identifier.  Counters
sit beside the spans and are read from the objects the wrapped public
calls return.
Nothing is written until the run ends.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    call: int


@dataclass
class SpanRecorder:
    spans: list[Span] = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)
    knots: set[str] = field(default_factory=set)
    # (span index, column count) of the last splice matrix built
    last_D: tuple[int | None, int] = (None, 0)
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        """Record a span around the block; the block gets the span's index."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        call = self.spans[self._stack[0]].call if self._stack else index
        self.spans.append(Span(name, perf_counter(), 0.0, parent, call))
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            self.spans[index].end = perf_counter()

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] += value

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Per span name: (self time, calls).  Self time is the span's
        duration minus the durations of its direct children, which run
        one after another in this single-threaded recorder."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: dict[str, tuple[float, int]] = {}
        for s, inner in zip(self.spans, child_time):
            total, calls = out.get(s.name, (0.0, 0))
            out[s.name] = (total + (s.end - s.start) - inner, calls + 1)
        return out

    def root_time(self) -> float:
        return sum(s.end - s.start for s in self.spans if s.parent is None)
