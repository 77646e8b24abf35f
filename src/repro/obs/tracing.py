"""Span tracing: nested timed regions with a bounded ring buffer.

A span is one timed region of one thread — a scheduling pass, a
campaign cell, a report build.  Spans nest: entering ``sim.pass`` while
``campaign.cell`` is open records the parent-child relation via per-
thread depth tracking, which is exactly what the Chrome trace-event /
Perfetto renderer needs to draw flame-style timelines
(:mod:`repro.obs.export`).

Memory is bounded by construction: completed spans land in a
``collections.deque(maxlen=capacity)`` ring, so a month-scale simulation
with millions of passes keeps only the newest ``capacity`` spans and a
counter of how many were started in total — the exporter reports the
truncation instead of the process OOMing.  The disabled path
(:class:`NullTracer`) hands out one shared no-op context manager, so an
always-wired ``with obs.span(...)`` costs two no-op calls when tracing
is off.

Timestamps are ``time.perf_counter()`` relative to the tracer's
creation, paired with one wall-clock anchor (``epoch_s``) so exported
traces can be correlated across processes.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Deque, Dict, List, NamedTuple, Tuple

#: default ring capacity — ~8MB of spans at worst, far below sim state
DEFAULT_CAPACITY = 65_536


class SpanRecord(NamedTuple):
    """One completed span (times in seconds relative to tracer start).

    A NamedTuple, not a dataclass: span completion is on the traced hot
    path (one record per scheduling pass), and tuple construction is
    several times cheaper than a frozen dataclass ``__init__``.
    """

    name: str
    start_s: float
    duration_s: float
    thread_id: int
    depth: int
    attrs: Tuple[Tuple[str, object], ...] = ()

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


class _SpanHandle:
    """The live context manager for one span; append-on-exit."""

    __slots__ = ("_tracer", "_name", "_attrs", "_start", "_depth")

    def __init__(self, tracer: "Tracer", name: str, attrs) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> "_SpanHandle":
        tracer = self._tracer
        local = tracer._local
        self._depth = getattr(local, "depth", 0)
        local.depth = self._depth + 1
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        end = time.perf_counter()
        tracer = self._tracer
        tracer._local.depth = self._depth
        tracer.n_started += 1
        attrs = self._attrs
        tracer.spans.append(
            SpanRecord(
                self._name,
                self._start - tracer.t0,
                end - self._start,
                threading.get_ident(),
                self._depth,
                tuple(attrs.items()) if attrs else (),
            )
        )


class Tracer:
    """Collects spans into a bounded ring buffer."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.capacity = capacity
        self.spans: Deque[SpanRecord] = deque(maxlen=capacity)
        #: spans ever completed, including ones the ring has dropped
        self.n_started = 0
        self.t0 = time.perf_counter()
        #: wall-clock instant matching relative time 0.0
        self.epoch_s = time.time()
        self._local = threading.local()

    def span(self, name: str, **attrs) -> _SpanHandle:
        return _SpanHandle(self, name, attrs)

    @property
    def n_dropped(self) -> int:
        return self.n_started - len(self.spans)

    def current_depth(self) -> int:
        """Nesting depth of the calling thread (0 outside any span)."""
        return getattr(self._local, "depth", 0)

    def records(self) -> List[SpanRecord]:
        """Completed spans, oldest first (ring order)."""
        return list(self.spans)

    def by_name(self) -> Dict[str, List[SpanRecord]]:
        out: Dict[str, List[SpanRecord]] = {}
        for rec in self.spans:
            out.setdefault(rec.name, []).append(rec)
        return out

    def clear(self) -> None:
        self.spans.clear()
        self.n_started = 0


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled default: ``span()`` returns one shared no-op."""

    capacity = 0
    n_started = 0
    n_dropped = 0
    epoch_s = 0.0
    spans: Deque[SpanRecord] = deque(maxlen=0)

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def current_depth(self) -> int:
        return 0

    def records(self) -> List[SpanRecord]:
        return []

    def by_name(self) -> Dict[str, List[SpanRecord]]:
        return {}

    def clear(self) -> None:
        pass
