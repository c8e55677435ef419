"""In-memory spans recorded by the benchmark around calls into each layer.

A span is one timed call: its name, start and end (``perf_counter`` seconds),
the span that caused it and the trace id shared by every span of one request
or batch.  Spans stay in memory while the workload runs and are written out
once, at the end, as JSON lines.  A layer's self time is its span's duration
minus the part of that interval its child spans cover.

``Tracer(enabled=False)`` records nothing: ``span()`` then yields ``None``
and costs one attribute test, so untraced runs measure the program alone.
"""

from __future__ import annotations

import itertools
import json
import threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter


@dataclass
class Span:
    span_id: int
    name: str
    trace_id: str
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from any thread; the current span is tracked per thread."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, trace_id: str | None = None):
        if not self.enabled:
            yield None
            return
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if trace_id is None:
            trace_id = parent.trace_id if parent is not None else name
        with self._lock:
            span_id = next(self._ids)
        span = Span(span_id, name, trace_id, parent.span_id if parent else None, perf_counter())
        stack.append(span)
        try:
            yield span
        finally:
            span.end = perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    # -- reductions ------------------------------------------------------ #
    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name`` (seconds)."""
        return sum(span.duration for span in self.named(name))

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time its children cover."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        totals: dict[str, float] = {}
        for span in self.spans:
            covered = _union_length(
                [(child.start, child.end) for child in children.get(span.span_id, [])]
            )
            totals[span.name] = totals.get(span.name, 0.0) + span.duration - covered
        return totals

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (called once, at the end)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda span: span.start):
                handle.write(json.dumps(asdict(span)) + "\n")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``[start, end)`` intervals (children may overlap)."""
    covered = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered
