"""Outside-in layer timing: wrap public entry points, never edit ``src/``.

A :class:`LayerTracer` replaces selected public functions and methods of
the ``repro`` package with timing wrappers while it is installed, and
puts the originals back on :meth:`LayerTracer.uninstall`.  Every wrapped
call is a span: its inclusive time is charged to its layer once per
outermost entry (re-entry into the same layer is not double counted),
and its self time is the span minus the wrapped child spans it covers.

Pool workers are forked from the benchmark process, so they inherit the
installed wrappers.  At fork the child's statistics are reset, and at
worker exit they are written to ``<spool>/layers-<pid>.json``; the
parent folds those files in with :meth:`LayerTracer.collect_workers`.
"""

from __future__ import annotations

import functools
import json
import multiprocessing.util
import os
import resource
import statistics
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional


class LayerStats:
    """Plain counters one process accumulates; JSON round-trippable."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        #: per-call durations (seconds) of selected spans
        self.samples: Dict[str, List[float]] = defaultdict(list)

    def clear(self) -> None:
        """Empty every table in place (wrappers hold references to them)."""
        for table in (self.calls, self.incl_s, self.self_s, self.counts,
                      self.samples):
            table.clear()

    def to_dict(self) -> dict:
        return {
            "calls": dict(self.calls),
            "incl_s": dict(self.incl_s),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "samples": {k: list(v) for k, v in self.samples.items()},
        }

    def merge(self, data: dict) -> None:
        for field in ("calls", "incl_s", "self_s", "counts"):
            mine = getattr(self, field)
            for key, value in data.get(field, {}).items():
                mine[key] += value
        for key, values in data.get("samples", {}).items():
            self.samples[key].extend(values)


class LayerTracer:
    """Installs timing wrappers on the repro package's layer boundaries."""

    def __init__(self, spool: str) -> None:
        self.spool = spool
        self.stats = LayerStats()
        self._stack: List[List[float]] = []
        self._depth: Dict[str, int] = defaultdict(int)
        self._restore: List[Callable[[], None]] = []
        #: per-call ``active_reservations`` times of the running simulation
        self._scan: Optional[List[float]] = None

    # ------------------------------------------------------------------
    # span bookkeeping
    # ------------------------------------------------------------------
    def _span(self, layer: str, fn: Callable, before=None, after=None,
              sample: bool = False) -> Callable:
        stats, stack, depth = self.stats, self._stack, self._depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ctx = before(args, kwargs) if before is not None else None
            frame = [0.0]
            stack.append(frame)
            depth[layer] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                depth[layer] -= 1
                if stack:
                    stack[-1][0] += dt
                stats.calls[layer] += 1
                stats.self_s[layer] += dt - frame[0]
                if not depth[layer]:
                    stats.incl_s[layer] += dt
                if sample:
                    stats.samples[layer].append(dt)
            if after is not None:
                after(args, kwargs, result, dt, ctx)
            return result

        return wrapper

    def _patch_method(self, cls: type, name: str, layer: str, **hooks) -> None:
        original = cls.__dict__[name]
        setattr(cls, name, self._span(layer, original, **hooks))
        self._restore.append(lambda: setattr(cls, name, original))

    def _patch_function(self, fn: Callable, layer: str, **hooks) -> None:
        """Replace *fn* in every repro module that holds a reference."""
        wrapped = self._span(layer, fn, **hooks)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)
                    self._restore.append(
                        functools.partial(setattr, module, attr, fn)
                    )

    # ------------------------------------------------------------------
    # install / uninstall
    # ------------------------------------------------------------------
    def install(self) -> None:
        import repro.campaign  # noqa: F401  (load every patched module)
        import repro.experiments.cli  # noqa: F401
        from repro.campaign import executor, html, progress, report
        from repro.campaign.store import ResultStore
        from repro.core.coordinator import HybridCoordinator
        from repro.core.reservation import ReservationBook
        from repro.metrics import summary
        from repro.metrics.accumulators import SummaryAccumulator
        from repro.sched.conservative import ConservativeBackfillPlanner
        from repro.sched.easy import BackfillPlanner
        from repro.sched.policy import SchedulingPolicy
        from repro.sim.engine import EventQueue
        from repro.sim.simulator import Simulation
        from repro.workload.theta import ThetaWorkloadGenerator
        from repro.workload.trace_cache import TraceCache

        counts = self.stats.counts

        # workload: lookups vs generations give the cache hit ratio
        self._patch_method(TraceCache, "theta_rows", "workload.lookup")
        self._patch_method(ThetaWorkloadGenerator, "build_rows",
                           "workload.gen")

        # sim: constructor, main loop, event heap
        self._patch_method(Simulation, "__init__", "sim.setup")
        self._patch_method(Simulation, "run", "sim.run",
                           before=self._run_before, after=self._run_after)
        def pop_after(args, kwargs, batch, dt, ctx):
            counts["sim.heap_pop_calls"] += 1

        self._patch_method(EventQueue, "push", "sim.heap")
        self._patch_method(EventQueue, "pop_batch", "sim.heap",
                           after=pop_after)

        # sched: queue ordering and the backfill planner
        def order_before(args, kwargs):
            counts["sched.order_elems"] += len(args[1])

        for cls in _with_subclasses(SchedulingPolicy):
            if "order" in cls.__dict__:
                self._patch_method(cls, "order", "sched.order",
                                   before=order_before)

        def plan_after(args, kwargs, decisions, dt, ctx):
            queue = (kwargs["ordered_queue"] if "ordered_queue" in kwargs
                     else args[2])
            counts["sched.plan_candidates"] += len(queue)
            counts["sched.plan_starts"] += len(decisions)

        for cls in (BackfillPlanner, ConservativeBackfillPlanner):
            self._patch_method(cls, "plan", "sched.plan", after=plan_after,
                               sample=True)

        # core: coordinator hooks, reservation-book scans, actions
        for name in list(HybridCoordinator.__dict__):
            if name.startswith("on_") or name == "try_start_queued_od":
                self._patch_method(HybridCoordinator, name, "core.coord")
        self._patch_method(ReservationBook, "active_reservations",
                           "core.book_scan", after=self._scan_after)
        self._patch_method(ReservationBook, "holding_reservations",
                           "core.book_scan")
        self._patch_method(Simulation, "preempt_running_job", "core.preempt")
        self._patch_method(Simulation, "shrink_running_malleable",
                           "core.shrink")

        # metrics: per-job funnel and the final reduction
        for name in ("observe_finished", "observe_noshow"):
            self._patch_method(SummaryAccumulator, name, "metrics.observe")
        self._patch_function(summary.summarize, "metrics.summarize")

        # campaign: planning, cells, store, status and report builders
        self._patch_function(executor.plan_campaign, "campaign.plan")
        self._patch_function(executor.execute_cell, "campaign.cell")
        self._patch_method(ResultStore, "put", "campaign.store_put")
        self._patch_method(ResultStore, "__init__", "campaign.store_load")
        self._patch_function(progress.status_report, "campaign.status")
        self._patch_function(report.build_pivot, "campaign.pivot")
        self._patch_function(report.build_diff, "campaign.diff")
        self._patch_function(html.render_campaign_html, "campaign.html")

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------
    def _run_before(self, args, kwargs):
        self._scan = []
        return args[0]

    def _run_after(self, args, kwargs, result, dt, sim) -> None:
        counts = self.stats.counts
        counts["sim.events"] += result.events_processed
        counts["sim.passes_run"] += result.schedule_passes
        counts["sim.passes_skipped"] += result.passes_skipped
        ratio = late_over_early(self._scan or [])
        self._scan = None
        if ratio is not None:
            key = "baseline" if sim.mechanism is None else sim.mechanism.name
            self.stats.samples[f"scan_ratio.{key}"].append(ratio)

    def _scan_after(self, args, kwargs, result, dt, ctx) -> None:
        if self._scan is not None:
            self._scan.append(dt)

    # ------------------------------------------------------------------
    # pool workers
    # ------------------------------------------------------------------
    def reset_for_child(self) -> None:
        self.stats.clear()
        self._stack.clear()
        self._depth.clear()
        self._scan = None

    def dump_child(self) -> None:
        path = os.path.join(self.spool, f"layers-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.stats.to_dict(), fh)

    def collect_workers(self) -> int:
        """Fold every worker's dumped statistics in; returns the count."""
        n = 0
        for name in sorted(os.listdir(self.spool)):
            if name.startswith("layers-"):
                path = os.path.join(self.spool, name)
                with open(path, encoding="utf-8") as fh:
                    self.stats.merge(json.load(fh))
                os.remove(path)
                n += 1
        return n


def late_over_early(samples: List[float]) -> Optional[float]:
    """Mean of the last quarter of *samples* over the mean of the first."""
    quarter = len(samples) // 4
    if quarter < 1:
        return None
    early = statistics.fmean(samples[:quarter])
    late = statistics.fmean(samples[-quarter:])
    return late / early if early > 0 else None


def _with_subclasses(cls: type) -> List[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


class WorkerWatch:
    """Per-worker exit hooks: peak RSS, and layer stats while tracing.

    Registered through :func:`multiprocessing.util.register_after_fork`,
    so the hook runs in every worker a ``multiprocessing`` pool forks;
    the worker writes its files from a finalizer when it exits.
    """

    def __init__(self, spool: str) -> None:
        self.spool = spool
        self.tracer: Optional[LayerTracer] = None
        multiprocessing.util.register_after_fork(self, WorkerWatch._in_child)

    def _in_child(self) -> None:
        if self.tracer is not None:
            self.tracer.reset_for_child()
        multiprocessing.util.Finalize(None, self._on_exit, exitpriority=100)

    def _on_exit(self) -> None:
        if self.tracer is not None:
            self.tracer.dump_child()
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        path = os.path.join(self.spool, f"rss-{os.getpid()}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{rss_kib}\n")

    def take_worker_rss_kib(self) -> List[int]:
        """Peak RSS of each worker that exited since the last call."""
        out = []
        for name in sorted(os.listdir(self.spool)):
            if name.startswith("rss-"):
                path = os.path.join(self.spool, name)
                with open(path, encoding="utf-8") as fh:
                    out.append(int(fh.read()))
                os.remove(path)
        return out
