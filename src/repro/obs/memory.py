"""Memory profiling hooks: tracemalloc sections + process RSS/GC gauges.

The measurement half of the ROADMAP's "asserted memory ceilings": a
:class:`MemoryProbe` samples process-level gauges (resident set size,
cumulative GC collections) and measures python-heap peaks for named
sections via :mod:`tracemalloc`.  Like every other part of
:mod:`repro.obs`, the probe follows the null-object discipline — the
process default is :data:`NULL_MEMORY_PROBE`, whose ``sample()`` is a
no-op and whose ``section()`` hands back one shared no-op context
manager, so the permanently wired call sites (simulator run loop,
campaign executor cells) cost a couple of no-op method calls when
profiling is off.  The overhead gate in
``benchmarks/bench_sim_core.py`` charges these hooks against the same
<2%-disabled budget as the metric and span hooks.

Memory profiling is **opt-in even when instrumentation is on**:
``enable()``/``enabled_obs()`` take ``memory=True`` to attach a live
probe, because ``tracemalloc`` itself costs real time (every allocation
pays for a traceback capture) — a traced campaign should not silently
run 2x slower.  Without tracemalloc the probe still samples the cheap
process gauges.

Gauges written (also exported with every trace document, so
``repro-hybrid obs summary`` surfaces them):

* ``process.rss_bytes`` — current resident set size;
* ``process.peak_rss_bytes`` — lifetime peak RSS (``ru_maxrss``);
* ``gc.collections`` — cumulative collections across generations;
* ``mem.tracemalloc.current_bytes`` / ``mem.tracemalloc.peak_bytes`` —
  python-heap levels, when tracemalloc is active.

Section peaks land in per-name histograms
(``mem.section.<name>.peak_bytes``) with log-spaced byte buckets, so a
month-scale run keeps O(buckets) state per section, never O(samples).
"""

from __future__ import annotations

import gc
import os
import sys
import tracemalloc
from typing import Dict, Optional, Tuple

try:  # Unix-only stdlib module; absent on Windows
    import resource
except ImportError:  # pragma: no cover - non-Unix fallback
    resource = None  # type: ignore[assignment]

#: log-spaced byte buckets for section-peak histograms: 4KiB .. 256GiB
BYTE_BUCKETS: Tuple[float, ...] = tuple(
    float(4096 * 4**e) for e in range(0, 14)
)

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096

#: ru_maxrss unit: bytes on macOS, kilobytes on Linux/BSD
_RU_MAXRSS_SCALE = 1 if sys.platform == "darwin" else 1024


def rss_bytes() -> int:
    """Current resident set size, 0 where unknowable.

    ``/proc/self/statm`` where it exists (Linux); peak RSS as an upper
    bound elsewhere — honest enough for ceilings, which only ever
    assert "below".
    """
    try:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * _PAGE_SIZE
    except (OSError, ValueError, IndexError):
        return peak_rss_bytes()


def peak_rss_bytes() -> int:
    """Lifetime peak resident set size (``ru_maxrss``), 0 if unknown."""
    if resource is None:  # pragma: no cover - non-Unix fallback
        return 0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * _RU_MAXRSS_SCALE


def gc_collections() -> int:
    """Cumulative garbage collections summed across generations."""
    return sum(s.get("collections", 0) for s in gc.get_stats())


def sample_process_gauges(registry) -> Dict[str, float]:
    """Write the cheap process-level gauges into *registry*.

    Called by the trace exporter at export time (when instrumentation
    is enabled) so every ``.trace.json`` carries the process memory/GC
    state alongside counters and spans, and by
    :meth:`MemoryProbe.sample` for in-band sampling.
    """
    values = {
        "process.rss_bytes": float(rss_bytes()),
        "process.peak_rss_bytes": float(peak_rss_bytes()),
        "gc.collections": float(gc_collections()),
    }
    for name, value in values.items():
        registry.gauge(name).set(value)
    return values


class _Section:
    """Live context manager for one tracemalloc-measured region."""

    __slots__ = ("_probe", "_name", "_start_current")

    def __init__(self, probe: "MemoryProbe", name: str) -> None:
        self._probe = probe
        self._name = name

    def __enter__(self) -> "_Section":
        probe = self._probe
        if probe.tracing:
            current, _peak = tracemalloc.get_traced_memory()
            self._start_current = current
            # nested sections share one peak watermark; the outermost
            # reset wins, inner sections see a peak >= their own (an
            # upper bound, which is the safe direction for ceilings)
            if probe._section_depth == 0:
                tracemalloc.reset_peak()
            probe._section_depth += 1
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        probe = self._probe
        if probe.tracing:
            probe._section_depth -= 1
            current, peak = tracemalloc.get_traced_memory()
            probe._g_tm_current.set(float(current))
            probe._g_tm_peak.set(float(peak))
            probe.registry.histogram(
                f"mem.section.{self._name}.peak_bytes", bounds=BYTE_BUCKETS
            ).observe(float(peak))
        probe.sample()


class MemoryProbe:
    """Live memory probe bound to one metrics registry.

    ``trace_malloc=True`` (the default) starts :mod:`tracemalloc` if it
    is not already tracing and remembers whether it owns it, so
    :meth:`close` restores the interpreter state it found (a probe
    opened inside a test must not leak a 2x-allocation tax into the
    rest of the suite).
    """

    enabled = True

    def __init__(self, registry, trace_malloc: bool = True) -> None:
        self.registry = registry
        self._owns_tracemalloc = False
        self._section_depth = 0
        if trace_malloc and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._owns_tracemalloc = True
        self._g_tm_current = registry.gauge("mem.tracemalloc.current_bytes")
        self._g_tm_peak = registry.gauge("mem.tracemalloc.peak_bytes")

    @property
    def tracing(self) -> bool:
        return tracemalloc.is_tracing()

    def sample(self) -> Dict[str, float]:
        """Sample the process gauges (and tracemalloc levels if tracing)."""
        values = sample_process_gauges(self.registry)
        if self.tracing:
            current, peak = tracemalloc.get_traced_memory()
            self._g_tm_current.set(float(current))
            self._g_tm_peak.set(float(peak))
            values["mem.tracemalloc.current_bytes"] = float(current)
            values["mem.tracemalloc.peak_bytes"] = float(peak)
        return values

    def section(self, name: str) -> _Section:
        """Measure the python-heap peak of a ``with`` block."""
        return _Section(self, name)

    def close(self) -> None:
        """Stop tracemalloc iff this probe started it."""
        if self._owns_tracemalloc and tracemalloc.is_tracing():
            tracemalloc.stop()
        self._owns_tracemalloc = False


class _NullSection:
    __slots__ = ()

    def __enter__(self) -> "_NullSection":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SECTION = _NullSection()


class NullMemoryProbe:
    """The disabled default: free no-op sampling and sections."""

    enabled = False
    tracing = False

    def sample(self) -> Dict[str, float]:
        return {}

    def section(self, name: str) -> _NullSection:
        return _NULL_SECTION

    def close(self) -> None:
        pass


NULL_MEMORY_PROBE = NullMemoryProbe()
