"""Span recording and self-time arithmetic for the traced run.

A :class:`Recorder` wraps callables so that each call records one span:
name, start, end, parent span and operation id, plus optional notes
(rows read, bytes written, memory peak). Spans stay in memory until the
run ends. A span's self time is its duration minus the part of its
interval that its child spans cover.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    op: int = 0
    notes: dict | None = None


class Recorder:
    """Collects spans of wrapped calls; ``op`` tags the current operation."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.errors: dict[str, int] = defaultdict(int)
        self.op = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, parent=recorder._stack[-1] if recorder._stack else -1,
                        op=recorder.op)
            recorder._stack.append(len(recorder.spans))
            recorder.spans.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                recorder.errors[name] += 1
                raise
            finally:
                span.end = time.perf_counter()
                recorder._stack.pop()

        return traced

    def note(self, **values) -> None:
        """Attach measured values to the innermost open span."""
        span = self.spans[self._stack[-1]]
        span.notes = {**(span.notes or {}), **values}


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part covered by its children."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [
        (span.end - span.start) - covered(children[i], span.start, span.end)
        for i, span in enumerate(spans)
    ]


@dataclass
class Totals:
    """Per-name aggregates of one operation's spans."""

    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    notes: dict = field(default_factory=dict)


def totals_by_op(spans: list[Span]) -> dict[int, dict[str, Totals]]:
    """Calls, inclusive time, self time and summed notes per span name,
    for each operation id."""
    out: dict[int, dict[str, Totals]] = defaultdict(lambda: defaultdict(Totals))
    for span, own in zip(spans, self_times(spans)):
        entry = out[span.op][span.name]
        entry.calls += 1
        entry.s += span.end - span.start
        entry.self_s += own
        for key, value in (span.notes or {}).items():
            entry.notes[key] = entry.notes.get(key, 0) + value
    return out
