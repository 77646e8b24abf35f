"""Unified instrumentation layer: metrics + span tracing + trace export.

Every layer of the system — simulator event loop, scheduling passes,
campaign executor, report pipeline — reports through
this one package:

* :mod:`repro.obs.registry` — process-local counters, gauges, and
  fixed-bucket histograms (``snapshot()`` → plain dicts);
* :mod:`repro.obs.tracing` — nested ``span()`` context managers with
  thread ids and a bounded ring buffer;
* :mod:`repro.obs.export` — Chrome trace-event / Perfetto JSON export
  and the ``obs summary`` text renderer;
* :mod:`repro.obs.memory` — opt-in memory profiling: tracemalloc
  sections plus ``process.rss_bytes`` / ``gc.collections`` gauges.

The global default is **disabled**: :func:`get_obs` returns a process
singleton whose metrics are shared no-op objects and whose ``span()``
hands back one reusable no-op context manager, so permanently
instrumented hot paths cost a few no-op method calls
(``benchmarks/bench_sim_core.py`` asserts the budget: <2% disabled,
<10% enabled on the 10k-job near-saturated scenario).  ``--trace``
flags and tests call :func:`enable`; long-lived callers cache metric
objects once and pay only the per-hit call.

Naming convention: ``layer.noun.verb`` — ``sim.passes.run``,
``campaign.cells.run``, ``report.pivot.build``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Mapping, Optional, Sequence

from repro.obs.memory import (
    NULL_MEMORY_PROBE,
    MemoryProbe,
    NullMemoryProbe,
)
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)
from repro.obs.tracing import (
    DEFAULT_CAPACITY,
    NullTracer,
    SpanRecord,
    Tracer,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "DEFAULT_CAPACITY",
    "Gauge",
    "Histogram",
    "MemoryProbe",
    "MetricsRegistry",
    "NullMemoryProbe",
    "NullRegistry",
    "NullTracer",
    "Observability",
    "SpanRecord",
    "Tracer",
    "disable",
    "enable",
    "enabled_obs",
    "get_obs",
    "set_obs",
]


class Observability:
    """One process's registry + tracer bundle (the instrumentation API).

    Call sites use this object only — ``obs.counter(...)``,
    ``obs.span(...)`` — so swapping the enabled/disabled implementation
    is one global pointer swap, and a test can install a private bundle
    without touching the process default.
    """

    def __init__(
        self,
        registry=None,
        tracer=None,
        enabled: bool = True,
        memory=None,
    ) -> None:
        if registry is None:
            registry = MetricsRegistry() if enabled else NullRegistry()
        if tracer is None:
            tracer = Tracer() if enabled else NullTracer()
        self.registry = registry
        self.tracer = tracer
        self.enabled = enabled
        #: memory profiling is opt-in even when instrumentation is on
        #: (tracemalloc taxes every allocation); pass a live
        #: :class:`MemoryProbe` or use ``enable(memory=True)``
        self.memory = NULL_MEMORY_PROBE if memory is None else memory
        #: pre-rendered Chrome trace events absorbed from subprocesses
        #: (campaign pool children) — exported alongside
        #: this process's own spans
        self.foreign_events: List[Dict[str, object]] = []
        # bind the hot-path methods once: call sites pay one attribute
        # lookup + call, with no per-call delegation layer
        self.counter = registry.counter
        self.gauge = registry.gauge
        self.histogram = registry.histogram
        self.span = tracer.span

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        return self.registry.snapshot()

    def ingest(
        self,
        events: Sequence[Mapping[str, object]],
        metrics: Optional[Mapping[str, Dict[str, object]]] = None,
    ) -> None:
        """Absorb a subprocess's exported events and metric snapshot."""
        self.foreign_events.extend(dict(e) for e in events)
        if metrics:
            self.registry.merge_dict(metrics)


#: the process-wide disabled singleton; shared so `get_obs() is DISABLED`
#: stays a meaningful identity check in tests
DISABLED = Observability(NullRegistry(), NullTracer(), enabled=False)

_current: Observability = DISABLED


def get_obs() -> Observability:
    """The process-wide instrumentation bundle (disabled by default)."""
    return _current


def set_obs(obs: Observability) -> Observability:
    """Install *obs* as the process default; returns the previous one."""
    global _current
    previous = _current
    _current = obs
    return previous


def enable(
    capacity: int = DEFAULT_CAPACITY, memory: bool = False
) -> Observability:
    """Install (and return) a fresh enabled bundle as the default.

    ``memory=True`` attaches a live :class:`MemoryProbe` (starting
    tracemalloc if needed) so call sites can measure heap peaks via
    ``obs.memory.section(...)``.
    """
    registry = MetricsRegistry()
    return_obs = Observability(
        registry,
        Tracer(capacity=capacity),
        enabled=True,
        memory=MemoryProbe(registry) if memory else None,
    )
    set_obs(return_obs)
    return return_obs


def disable() -> Observability:
    """Restore the disabled default; returns the previously active one."""
    previous = set_obs(DISABLED)
    previous.memory.close()
    return previous


@contextmanager
def enabled_obs(capacity: int = DEFAULT_CAPACITY, memory: bool = False):
    """Context manager: enabled instrumentation scoped to a block.

    The primary test helper — guarantees the process default (and the
    interpreter's tracemalloc state, when ``memory=True``) is restored
    even when the block raises.
    """
    registry = MetricsRegistry()
    obs = Observability(
        registry,
        Tracer(capacity=capacity),
        enabled=True,
        memory=MemoryProbe(registry) if memory else None,
    )
    previous = set_obs(obs)
    try:
        yield obs
    finally:
        set_obs(previous)
        obs.memory.close()
