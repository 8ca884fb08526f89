"""In-memory spans recorded around the benchmark's own calls into trihodge.

A span has a name, start and end (``time.perf_counter`` seconds), the index of
its parent span and the id of the op it belongs to. Spans stay in memory and
are written out once, at the end of a run. ``NO_TRACE`` has the same calling
shape and records nothing, so the untraced runs execute the same code.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: str


_NULL = contextlib.nullcontext()


def NO_TRACE(name: str):
    return _NULL


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = ""

    @contextlib.contextmanager
    def __call__(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        span = Span(name, time.perf_counter(), 0.0, parent, self.op)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            span.end = time.perf_counter()

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its children cover.

        Children of one span run one after another in this single thread, so
        the time they cover is the sum of their durations.
        """
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        return [s.end - s.start - c for s, c in zip(self.spans, covered)]

    def per_op_medians(self, prefix: str = "") -> dict[str, float]:
        """Median over ops of each span name's self time within one op."""
        per_op: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span, own in zip(self.spans, self.self_times()):
            if span.op.startswith(prefix):
                per_op[span.name][span.op] += own
        return {name: statistics.median(ops.values()) for name, ops in per_op.items()}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.spans]), encoding="utf-8")
