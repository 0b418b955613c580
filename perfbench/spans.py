"""Span recorder for the traced benchmark run.

A span is one call the benchmark makes into a protolab module: its name
(``<module>.<function>``, optionally with a variant such as ``eps_1_4``),
start and end on ``time.perf_counter``, the index of the enclosing span,
and counts read from the call's return value.  For the span names given as
``peaks`` the tracer also records the tracemalloc peak of the allocations
made inside the span; tracing is on only inside those spans.

Spans stay in memory and are written out when the sample ends.  The
untraced run uses ``NULL_TRACER``, whose spans record nothing.
"""

from __future__ import annotations

import tracemalloc
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field
from time import perf_counter


@dataclass
class Span:
    name: str
    variant: str | None
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    peak_mb: float | None = None


class Tracer:
    """Collects spans; measures allocation peaks of the spans in ``peaks``."""

    enabled = True

    def __init__(self, peaks: tuple[str, ...] = ()):
        self.peaks = peaks
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, variant: str | None = None):
        s = Span(name, variant, self._open[-1] if self._open else None)
        self._open.append(len(self.spans))
        self.spans.append(s)
        peak = name in self.peaks
        if peak:
            tracemalloc.start()
        s.start = perf_counter()
        try:
            yield s
        finally:
            s.end = perf_counter()
            if peak:
                s.peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
            self._open.pop()

    def to_list(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


class _NullTracer:
    enabled = False

    def __init__(self):
        self._null = nullcontext(Span("", None, None))

    def span(self, name: str, variant: str | None = None):
        return self._null

    def to_list(self) -> list[dict]:
        return []


NULL_TRACER = _NullTracer()
