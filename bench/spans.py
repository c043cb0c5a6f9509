"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, operation id, attributes). Spans are
appended to a list as calls happen and are only summarised or written out
after the run, so recording costs one list append and two clock reads.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

ROOT = -1  # parent index of a span that has no parent


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int
    op: object
    attrs: dict = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Recorder:
    """Collects nested spans; ``op`` tags every span with the current operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: object = None
        self._stack: list[int] = []

    def _open(self, name: str) -> tuple[int, int]:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else ROOT
        self.spans.append(Span(name, 0, 0, parent, self.op))
        self._stack.append(idx)
        return idx, time.perf_counter_ns()

    def _close(self, idx: int, start_ns: int, attrs: dict | None):
        span = self.spans[idx]
        span.start_ns, span.end_ns = start_ns, time.perf_counter_ns()
        if attrs:
            span.attrs = attrs
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record the body of a ``with`` block as one span."""
        idx, t0 = self._open(name)
        try:
            yield
        finally:
            self._close(idx, t0, None)

    def wrap(self, name: str, fn, annotate=None):
        """Return ``fn`` recording one span per call.

        ``annotate(args, kwargs, result)`` may return attributes for the span
        (operation counts, byte counts). Its cost is charged to the span, so
        it should do no more than shape arithmetic.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx, t0 = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                attrs = annotate(args, kwargs, result) if annotate else None
                self._close(idx, t0, attrs)

        return traced


def self_times_ns(spans: list[Span]) -> list[int]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread's call stack, so children of one span never
    overlap each other and lie inside their parent.
    """
    self_ns = [s.duration_ns for s in spans]
    for s in spans:
        if s.parent != ROOT:
            self_ns[s.parent] -= s.duration_ns
    return self_ns
