"""Process-local metrics registry: counters, gauges, histograms.

The registry is the numeric half of the instrumentation layer
(:mod:`repro.obs`): named monotonic counters, last-write gauges, and
fixed-bucket histograms, all plain Python with no dependencies and no
locks on the hot path.  Two design rules keep it safe to leave wired
into the simulator's inner loops permanently:

* **The disabled path is near-free.**  The default global registry is
  :class:`NullRegistry`; asking it for a counter returns one shared
  no-op object, so an instrumented call site costs a dict lookup at
  setup time and a single no-op method call per hit.  Hot layers cache
  the metric object once (``self._c_events = obs.counter(...)``) and
  pay only the method call.
* **Snapshots are deterministic.**  ``snapshot()``/``to_dict()`` emit
  plain sorted dicts — stable across runs for deterministic workloads,
  which is what makes them diffable in reports and assertable in tests.

Thread-safety: counters and histograms mutate single ``int``/``float``
slots and list entries under the GIL; concurrent increments never lose
the registry's structural invariants, and totals are exact because
``+=`` on the dedicated slot objects here is the only mutation path
(verified by the threaded determinism test).  Metric *creation* takes a
lock so two threads racing to create ``sim.events`` share one object.

Naming convention (enforced nowhere, followed everywhere):
``layer.noun.verb`` — ``sim.passes.run``, ``campaign.cells.run``,
``progress.scan.bytes``.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

#: default histogram buckets: log-spaced seconds from 10µs to ~17min,
#: a range that covers scheduler-pass latencies and whole-cell runtimes
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(
    10.0 ** (e / 2.0) for e in range(-10, 7)
)


class Counter:
    """A monotonically increasing named value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A last-write-wins level (queue depth, process RSS, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, n: float = 1.0) -> None:
        self.value += n

    def dec(self, n: float = 1.0) -> None:
        self.value -= n


class Histogram:
    """Fixed-bucket histogram with exact count/sum/min/max.

    Bucket ``i`` counts observations ``<= bounds[i]``; one overflow
    bucket catches the rest.  Percentiles are interpolated from the
    bucket counts — approximate by design (the exporter notes the
    bucketing), exact for min/max/mean.  Fixed buckets mean month-scale
    runs cost O(len(bounds)) memory per histogram, never O(samples).
    """

    __slots__ = ("name", "bounds", "counts", "count", "total", "vmin", "vmax")

    def __init__(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> None:
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(bounds or DEFAULT_BUCKETS)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.vmin = math.inf
        self.vmax = -math.inf

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Approximate p-quantile: the upper bound of the bucket holding
        the p-th observation (clamped to the exact observed max)."""
        if not self.count:
            return 0.0
        rank = p * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= rank:
                bound = (
                    self.bounds[i] if i < len(self.bounds) else self.vmax
                )
                return min(bound, self.vmax)
        return self.vmax

    def to_dict(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.vmin if self.count else 0.0,
            "max": self.vmax if self.count else 0.0,
            "mean": self.mean,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
            "buckets": {
                # only non-empty buckets: a registry full of idle
                # histograms stays readable in exported JSON
                (
                    f"{self.bounds[i]:g}" if i < len(self.bounds) else "+inf"
                ): c
                for i, c in enumerate(self.counts)
                if c
            },
        }


class _NullCounter:
    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        pass


class _NullGauge:
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def inc(self, n: float = 1.0) -> None:
        pass

    def dec(self, n: float = 1.0) -> None:
        pass


class _NullHistogram:
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class MetricsRegistry:
    """All metrics of one process, by name."""

    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            with self._lock:
                c = self._counters.setdefault(name, Counter(name))
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            with self._lock:
                g = self._gauges.setdefault(name, Gauge(name))
        return g

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            with self._lock:
                h = self._histograms.setdefault(
                    name, Histogram(name, bounds)
                )
        return h

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Plain sorted dict of everything recorded so far."""
        return {
            "counters": {
                name: c.value
                for name, c in sorted(self._counters.items())
                if c.value
            },
            "gauges": {
                name: g.value for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: h.to_dict()
                for name, h in sorted(self._histograms.items())
                if h.count
            },
        }

    to_dict = snapshot

    def merge_dict(self, data: Dict[str, Dict[str, object]]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters and histogram counts/sums add; gauges last-write-win;
        histogram percentiles are re-derivable only when bucket layouts
        match, so a foreign histogram with unknown buckets degrades to
        count/sum/min/max (the honest subset).  Used to absorb worker
        subprocess registries into the orchestrator's.
        """
        for name, value in data.get("counters", {}).items():
            self.counter(name).inc(int(value))
        for name, value in data.get("gauges", {}).items():
            self.gauge(name).set(float(value))
        for name, hdata in data.get("histograms", {}).items():
            h = self.histogram(name)
            bounds_by_key = {f"{b:g}": i for i, b in enumerate(h.bounds)}
            for key, c in hdata.get("buckets", {}).items():
                idx = (
                    len(h.bounds)
                    if key == "+inf"
                    else bounds_by_key.get(key)
                )
                if idx is not None:
                    h.counts[idx] += int(c)
            h.count += int(hdata.get("count", 0))
            h.total += float(hdata.get("sum", 0.0))
            if int(hdata.get("count", 0)):
                h.vmin = min(h.vmin, float(hdata.get("min", math.inf)))
                h.vmax = max(h.vmax, float(hdata.get("max", -math.inf)))


class NullRegistry:
    """The disabled default: every lookup returns a shared no-op metric."""

    enabled = False

    def counter(self, name: str) -> _NullCounter:
        return _NULL_COUNTER

    def gauge(self, name: str) -> _NullGauge:
        return _NULL_GAUGE

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> _NullHistogram:
        return _NULL_HISTOGRAM

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    to_dict = snapshot

    def merge_dict(self, data: Dict[str, Dict[str, object]]) -> None:
        pass
