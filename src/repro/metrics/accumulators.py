"""Streaming metric accumulators: O(in-flight) summaries for O(trace) runs.

Grouping per-job lists after the run is fine at 10k jobs and fatal at
month-scale SWF volume, where the job list *is* the memory wall.
Instead the simulator feeds every job through a
:class:`SummaryAccumulator` exactly once, at the moment it leaves the
in-flight set (completion, or admission for announced no-shows), and
the accumulator keeps only count/sum/min/max cells and fixed-bucket
histograms per job-type/notice-class group — O(1) state per group, O(1)
work per job.  :func:`repro.metrics.summary.summarize` and
:mod:`repro.metrics.breakdown` read nothing else.

Group sums are accumulated in job-completion order, which depends only
on the trace, never on how its jobs were supplied (a list or a
generator), so summaries of one trace are byte-identical either way.
Totals across groups add the group subtotals in
:class:`~repro.jobs.job.JobType` declaration order.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

from repro.jobs.job import Job, JobType, NoticeClass
from repro.obs.registry import Histogram

#: turnaround histogram bucket bounds, seconds (log-spaced 1 min .. ~6 weeks)
TURNAROUND_BUCKETS_S: Tuple[float, ...] = tuple(
    60.0 * 4.0 ** e for e in range(0, 9)
)

#: on-demand start-delay histogram bucket bounds, seconds
DELAY_BUCKETS_S: Tuple[float, ...] = tuple(
    10.0 * 4.0 ** e for e in range(0, 9)
)


class RunningStat:
    """Count / sum / min / max of a value stream, O(1) state.

    ``mean`` reproduces :func:`repro.metrics.summary._mean` on the same
    stream: NaN for an empty stream, a left-fold sum divided by the
    count otherwise.
    """

    __slots__ = ("count", "total", "vmin", "vmax")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.vmin = math.inf
        self.vmax = -math.inf

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan


class TypeGroup:
    """Per-job-type accumulator cell."""

    __slots__ = (
        "turnaround",
        "preempted",
        "shrunk",
        "preemptions",
        "allocated_ns",
        "lost_ns",
        "wasted_setup_ns",
        "checkpoint_ns",
        "turnaround_hist",
    )

    def __init__(self, label: str) -> None:
        self.turnaround = RunningStat()
        #: jobs preempted / shrunk at least once
        self.preempted = 0
        self.shrunk = 0
        #: total preemption events (waste_by_type reports these)
        self.preemptions = 0
        self.allocated_ns = 0.0
        self.lost_ns = 0.0
        self.wasted_setup_ns = 0.0
        self.checkpoint_ns = 0.0
        self.turnaround_hist = Histogram(
            f"jobs.{label}.turnaround_s", bounds=TURNAROUND_BUCKETS_S
        )


class NoticeGroup:
    """Per-notice-class accumulator cell (arrived on-demand jobs)."""

    __slots__ = ("count", "instant", "delay", "turnaround", "delay_hist")

    def __init__(self, label: str) -> None:
        self.count = 0
        self.instant = 0
        self.delay = RunningStat()
        self.turnaround = RunningStat()
        self.delay_hist = Histogram(
            f"ondemand.{label}.start_delay_s", bounds=DELAY_BUCKETS_S
        )


class SummaryAccumulator:
    """The job-finish funnel feeding every summary and breakdown metric.

    The simulator calls :meth:`observe_noshow` when an announced
    no-show enters the trace and :meth:`observe_finished` exactly once
    per completed job, after its ``stats.end_time`` is final.  Nothing
    here retains a :class:`~repro.jobs.job.Job` reference.
    """

    __slots__ = (
        "instant_threshold_s",
        "n_noshow",
        "turnaround_all",
        "by_type",
        "od_delay",
        "od_instant",
        "by_notice",
    )

    def __init__(self, instant_threshold_s: float = 60.0) -> None:
        self.instant_threshold_s = float(instant_threshold_s)
        self.n_noshow = 0
        self.turnaround_all = RunningStat()
        self.by_type: Dict[JobType, TypeGroup] = {
            t: TypeGroup(t.value) for t in JobType
        }
        self.od_delay = RunningStat()
        self.od_instant = 0
        self.by_notice: Dict[NoticeClass, NoticeGroup] = {
            c: NoticeGroup(c.value) for c in NoticeClass
        }

    # ------------------------------------------------------------------
    def observe_noshow(self, job: Job) -> None:
        """Count an announced job that will never arrive."""
        self.n_noshow += 1

    def observe_finished(self, job: Job) -> None:
        """Fold one completed job into every group it belongs to."""
        st = job.stats
        group = self.by_type[job.job_type]
        turnaround = job.turnaround
        self.turnaround_all.observe(turnaround)
        group.turnaround.observe(turnaround)
        group.turnaround_hist.observe(turnaround)
        if st.preemptions > 0:
            group.preempted += 1
        if st.shrinks > 0:
            group.shrunk += 1
        group.preemptions += st.preemptions
        group.allocated_ns += st.allocated_node_seconds
        group.lost_ns += st.lost_node_seconds
        group.wasted_setup_ns += st.wasted_setup_node_seconds
        group.checkpoint_ns += st.checkpoint_node_seconds
        if job.is_ondemand:
            delay = job.start_delay
            instant = delay <= self.instant_threshold_s + 1e-9
            self.od_delay.observe(delay)
            if instant:
                self.od_instant += 1
            ng = self.by_notice[job.notice_class]
            ng.count += 1
            ng.delay.observe(delay)
            ng.delay_hist.observe(delay)
            ng.turnaround.observe(turnaround)
            if instant:
                ng.instant += 1

    # ------------------------------------------------------------------
    # Totals (group subtotals added in JobType declaration order)
    # ------------------------------------------------------------------
    @property
    def n_jobs(self) -> int:
        return self.turnaround_all.count

    def count_of(self, jtype: JobType) -> int:
        return self.by_type[jtype].turnaround.count

    def _total(self, attr: str) -> float:
        total = 0.0
        for t in JobType:
            total += getattr(self.by_type[t], attr)
        return total

    @property
    def allocated_node_seconds(self) -> float:
        return self._total("allocated_ns")

    @property
    def lost_node_seconds(self) -> float:
        return self._total("lost_ns")

    @property
    def wasted_setup_node_seconds(self) -> float:
        return self._total("wasted_setup_ns")

    @property
    def checkpoint_node_seconds(self) -> float:
        return self._total("checkpoint_ns")

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Diagnostic snapshot: per-group stats + histogram buckets."""

        def stat(s: RunningStat) -> Dict[str, float]:
            return {
                "count": s.count,
                "sum": s.total,
                "min": s.vmin if s.count else 0.0,
                "max": s.vmax if s.count else 0.0,
            }

        return {
            "instant_threshold_s": self.instant_threshold_s,
            "n_noshow": self.n_noshow,
            "turnaround_s": stat(self.turnaround_all),
            "by_type": {
                t.value: {
                    "turnaround_s": stat(g.turnaround),
                    "turnaround_hist": g.turnaround_hist.to_dict(),
                    "preempted_jobs": g.preempted,
                    "shrunk_jobs": g.shrunk,
                    "preemptions": g.preemptions,
                    "allocated_node_s": g.allocated_ns,
                    "lost_node_s": g.lost_ns,
                    "wasted_setup_node_s": g.wasted_setup_ns,
                    "checkpoint_node_s": g.checkpoint_ns,
                }
                for t, g in self.by_type.items()
            },
            "ondemand": {
                "instant": self.od_instant,
                "start_delay_s": stat(self.od_delay),
                "by_notice_class": {
                    c.value: {
                        "count": g.count,
                        "instant": g.instant,
                        "start_delay_s": stat(g.delay),
                        "start_delay_hist": g.delay_hist.to_dict(),
                        "turnaround_s": stat(g.turnaround),
                    }
                    for c, g in self.by_notice.items()
                },
            },
        }
