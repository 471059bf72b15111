"""In-memory spans recorded by the benchmark around calls into each layer.

A span is ``(name, start, end, parent, run_id)`` with host times from
``time.perf_counter``.  Spans are kept in a list while the workload runs
and written out once, when it ends.  A layer's *self time* is its span's
duration minus the part of that interval its child spans cover.

The untraced run uses :class:`NullRecorder`, whose ``span`` is a no-op
context manager, so the same workload code serves both runs.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Records nested spans; ``span()`` blocks nest by call structure."""

    enabled = True

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        record = Span(len(self.spans), name, time.perf_counter(), 0.0,
                      parent, self.run_id)
        self.spans.append(record)
        self._stack.append(record.id)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def add_children(self, parent: Span, phases: Dict[str, float]) -> None:
        """Lay measured phase durations (seconds) out back to back as
        child spans of ``parent``, starting at its start.

        Used for ``SpalSimulator.phase_seconds``: the phases are timed
        inside ``run`` and sum to at most the span around the call.
        """
        at = parent.start
        for name, seconds in phases.items():
            self.spans.append(Span(len(self.spans), name, at, at + seconds,
                                   parent.id, self.run_id))
            at += seconds

    def children(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent == span.id]

    def self_time(self, span: Span) -> float:
        """Duration minus the union of its children's intervals."""
        covered = 0.0
        cursor = span.start
        for child in sorted(self.children(span), key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return span.duration - covered

    def by_name(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def self_seconds(self) -> Dict[str, float]:
        """Summed self time per span name."""
        out: Dict[str, float] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + self.self_time(s)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                row = asdict(s)
                row["self"] = self.self_time(s)
                fh.write(json.dumps(row) + "\n")


class NullRecorder:
    """The untraced run's recorder: records nothing."""

    enabled = False

    def span(self, name: str):
        return nullcontext()

    def add_children(self, parent, phases) -> None:
        pass
