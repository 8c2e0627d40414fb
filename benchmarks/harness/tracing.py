"""In-memory spans around the calls into each layer.

The harness times layers *from outside*: every span wraps one public call
(``iter_execute_nodes``, ``iter_generate_table_rows``, ``insert_rows``, ...)
made by the staged pipelines in ``staged.py`` and the workload modules.
Spans nest through a stack, share the tracer's run id, stay in memory and
are written once — as Chrome-trace JSON (open in ``chrome://tracing`` or
https://ui.perfetto.dev) — when the pass ends.  A layer's *self time* is its
spans' duration minus the part their child spans cover, so the self times of
one run span always add up to the run span itself; what the run span keeps
for itself is the time no layer accounts for.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

GC_SPAN = "gc"


@dataclass
class Span:
    span_id: int
    run_id: str
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    args: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans and named counts for one traced pass."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[Span] = []
        self._gc_start: Optional[float] = None

    # ----------------------------------------------------------------- spans
    @contextmanager
    def span(self, name: str, **args: object) -> Iterator[Span]:
        span = self._open(name, time.perf_counter(), args)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, **args: object) -> Span:
        """A span whose interval was measured elsewhere (a collector pause, a
        duration a layer reports about itself), child of the open span."""
        span = self._open(name, start, args)
        span.end = end
        return span

    def _open(self, name: str, start: float, args: Dict[str, object]) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), self.run_id, name, start, parent=parent, args=args)
        self.spans.append(span)
        return span

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    # ------------------------------------------------------------- collector
    @contextmanager
    def gc_spans(self) -> Iterator[None]:
        """Record every garbage-collector pause as a ``gc`` child span."""

        def callback(phase: str, info: Dict[str, int]) -> None:
            if phase == "start":
                self._gc_start = time.perf_counter()
            elif self._gc_start is not None:
                self.add(
                    GC_SPAN,
                    self._gc_start,
                    time.perf_counter(),
                    generation=info.get("generation", 0),
                )
                self._gc_start = None

        gc.callbacks.append(callback)
        try:
            yield
        finally:
            gc.callbacks.remove(callback)

    # --------------------------------------------------------------- queries
    def children(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent == span.span_id]

    def self_times(self, root: Optional[Span] = None) -> Dict[str, float]:
        """Self time per span name, over ``root``'s subtree (or everything)."""
        covered = {s.span_id: 0.0 for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.duration
        if root is None:
            members = self.spans
        else:
            inside = {root.span_id}
            members = []
            for s in self.spans:  # parents are always recorded before children
                if s.span_id in inside or s.parent in inside:
                    inside.add(s.span_id)
                    members.append(s)
        totals: Dict[str, float] = {}
        for s in members:
            totals[s.name] = totals.get(s.name, 0.0) + s.duration - covered[s.span_id]
        return totals

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    # ---------------------------------------------------------------- output
    def chrome_trace(self) -> dict:
        origin = min((s.start for s in self.spans), default=0.0)
        events = [
            {
                "name": s.name,
                "cat": s.name.split(".")[0],
                "ph": "X",
                "ts": round((s.start - origin) * 1e6, 1),
                "dur": round(s.duration * 1e6, 1),
                "pid": 1,
                "tid": 1,
                "args": dict(s.args, run_id=s.run_id, span_id=s.span_id, parent=s.parent),
            }
            for s in self.spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms", "counts": self.counts}
