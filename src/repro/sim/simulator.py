"""The trace-driven, event-driven scheduling simulator (CQSim analogue).

"A real system takes jobs from user submission, while CQSim takes jobs by
reading the job arrival information in the trace.  Rather than executing
jobs on system, CQSim simulates the execution by advancing the simulation
clock according to the job runtime information in the trace."

One :class:`Simulation` object runs one trace under one (mechanism,
policy) pair.  The event loop pops same-timestamp batches (finishes before
planned preemptions before notices before submissions before timeouts) and
runs one scheduling pass after each batch.  All mutation of running jobs —
start, preemption, shrink, expansion — funnels through the methods of this
class so node accounting and per-job statistics stay consistent; the
:class:`~repro.core.coordinator.HybridCoordinator` drives those methods
through the ``SimulatorOps`` surface.

The mutation funnel also maintains the **incremental scheduling state**:
a shared :class:`~repro.sched.profile.AvailabilityTimeline` of running
jobs' predicted releases (updated in place instead of re-derived inside
every planner call) and a dirty bit that lets :meth:`_schedule_pass`
short-circuit batches that provably cannot change any decision — an
event batch made entirely of stale events, or any batch with an empty
wait queue.  ``SimConfig.force_full_replan`` restores the seed
behaviour (full per-pass rebuild, no skipping); decisions and metrics
are identical in both modes.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Union

from repro.core.coordinator import HybridCoordinator
from repro.obs import get_obs
from repro.core.mechanisms import Mechanism
from repro.core.reservation import Reservation
from repro.jobs import Execution, MalleableExecution, RigidExecution
from repro.jobs.job import Job, JobState, NoticeClass, SegmentAccounting
from repro.metrics.accumulators import SummaryAccumulator
from repro.sched.conservative import ConservativeBackfillPlanner
from repro.sched.easy import BackfillPlanner
from repro.sched.fcfs import FcfsPolicy
from repro.sched.policy import SchedulingPolicy
from repro.sched.registry import resolve_dispatcher
from repro.sched.profile import AvailabilityTimeline, ProfileView
from repro.sim.cluster import Cluster
from repro.sim.config import SimConfig
from repro.sim.engine import EventQueue
from repro.sim.events import Event, EventType
from repro.sim.schedlog import LogKind, SchedulerLog
from repro.util.errors import ConfigurationError, SimulationError
from repro.util.rng import RngStreams
from repro.workload.stream import JobStream, as_stream

EPS = 1e-6


@dataclass(frozen=True)
class LatencyStats:
    """Summary of a latency sample stream (count / p50 / p95 / p99 /
    max / mean).

    Stored instead of the raw sample list: a 10k-job campaign cell used
    to drag tens of thousands of floats through every result record for
    two percentiles nobody recomputed.
    """

    count: int = 0
    p50_s: float = 0.0
    p95_s: float = 0.0
    p99_s: float = 0.0
    max_s: float = 0.0
    mean_s: float = 0.0

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "LatencyStats":
        if not samples:
            return cls()
        ordered = sorted(samples)

        def pct(p: float) -> float:
            # nearest-rank: the ceil(p*n)-th smallest sample (1-based).
            # ``int(p * n)`` indexed one past that position whenever
            # ``p*n`` was integral (p50 of [1,2,3,4] returned 3, not 2);
            # this matches Histogram.percentile's ``seen >= p*count``
            # bucket selection, so from_histogram agrees on shared
            # sample streams.
            rank = math.ceil(p * len(ordered))
            return ordered[max(0, min(len(ordered) - 1, rank - 1))]

        return cls(
            count=len(ordered),
            p50_s=pct(0.50),
            p95_s=pct(0.95),
            p99_s=pct(0.99),
            max_s=ordered[-1],
            mean_s=sum(ordered) / len(ordered),
        )

    @classmethod
    def from_histogram(cls, h) -> "LatencyStats":
        """Derive from an obs registry :class:`~repro.obs.registry.Histogram`
        (same sample stream, one source of truth; percentiles are
        bucket-approximate, mean/max exact)."""
        if not h.count:
            return cls()
        return cls(
            count=h.count,
            p50_s=h.percentile(0.50),
            p95_s=h.percentile(0.95),
            p99_s=h.percentile(0.99),
            max_s=h.vmax,
            mean_s=h.mean,
        )


@dataclass
class SimulationResult:
    """Everything a run produced; summarised by :mod:`repro.metrics`."""

    jobs: List[Job]
    mechanism: Optional[str]
    policy: str
    system_size: int
    makespan: float
    first_submit: float
    last_end: float
    reserved_idle_node_seconds: float
    free_node_seconds: float
    #: the job-finish metrics funnel: the source of every summary and
    #: breakdown metric
    accumulator: SummaryAccumulator
    decision_latency: LatencyStats = field(default_factory=LatencyStats)
    events_processed: int = 0
    schedule_passes: int = 0
    passes_skipped: int = 0
    wall_time_s: float = 0.0
    lease_resumes: int = 0
    lease_expands: int = 0
    failures_injected: int = 0
    #: populated when SimConfig.log_decisions is set
    log: Optional[SchedulerLog] = None

    @property
    def horizon(self) -> float:
        return max(self.last_end - self.first_submit, EPS)


class Simulation:
    """One trace-driven simulation run.

    Parameters
    ----------
    jobs:
        The workload, always consumed as a stream: jobs are admitted
        just ahead of the event clock and retired the moment they
        complete, and every metric flows through the result's
        :class:`~repro.metrics.accumulators.SummaryAccumulator`.  A
        :class:`~repro.workload.stream.JobStream` streams with its
        declared notice horizon, and any other iterator of
        submit-ordered jobs with the default one; memory is then
        O(in-flight), not O(trace), and ``result.jobs`` is empty.  A
        sequence is validated up front, stably sorted by submit time and
        streamed with its exact notice horizon; it is echoed back as
        ``result.jobs`` for per-job consumers
        (:func:`~repro.metrics.breakdown.utilization_series`, tests).
        Each job is mutated in place (state + stats), so pass a fresh
        copy per run (:func:`repro.workload.trace.clone_jobs`).
    config:
        Machine/behaviour knobs; defaults follow §IV-B.
    mechanism:
        One of the six mechanisms, or ``None`` for the baseline
        (FCFS/EASY with no special treatment of any job class).
    policy:
        Queue-ordering policy: a registered policy name (resolved via
        :mod:`repro.sched.registry`, with ``config.policy_params`` as
        the factory knobs), a :class:`SchedulingPolicy` instance, or
        ``None`` to fall back to ``config.policy`` (and to FCFS when
        that is unset too).  A named dispatcher that forces a planner
        ("easy"/"conservative") overrides ``config.backfill_mode``.
    """

    def __init__(
        self,
        jobs: Union[Sequence[Job], JobStream, Iterable[Job]],
        config: Optional[SimConfig] = None,
        mechanism: Optional[Mechanism] = None,
        policy: Union[None, str, SchedulingPolicy] = None,
    ) -> None:
        self.config = config or SimConfig()
        self.mechanism = mechanism
        resolved: Union[None, str, SchedulingPolicy] = (
            policy if policy is not None else self.config.policy
        )
        self._forced_backfill_mode: Optional[str] = None
        if isinstance(resolved, str):
            dispatcher = resolve_dispatcher(
                resolved, self.config.policy_params
            )
            self._forced_backfill_mode = dispatcher.backfill_mode
            resolved = dispatcher.ordering
        self.policy = resolved or FcfsPolicy()
        if isinstance(jobs, Sequence):
            self.jobs: List[Job] = list(jobs)
            stream = self._list_stream(self.jobs)
            #: the ``sim.run`` span's ``jobs`` attribute (-1: unknown)
            self._n_jobs_hint = len(self.jobs)
        else:  # a JobStream, or a bare iterator (default horizon)
            self.jobs = []
            stream = as_stream(jobs)
            self._n_jobs_hint = -1
        #: the job-finish metrics funnel, the only source of summary and
        #: breakdown metrics
        self.metrics = SummaryAccumulator(
            instant_threshold_s=self.config.instant_threshold_s
        )
        #: the in-flight window: admitted jobs not yet retired
        self.jobs_by_id: Dict[int, Job] = {}
        self._stream_it: Iterator[Job] = iter(stream)
        # +1 s pad: admission only ever moves *earlier*, and the pad
        # absorbs producers whose declared horizon is exact-to-the-ULP
        self._notice_horizon_s = stream.notice_horizon_s + 1.0
        self._stream_next: Optional[Job] = next(self._stream_it, None)
        #: admission/finish bookkeeping that replaces end-of-run scans
        #: of the (retired) jobs
        self._last_admit_submit = -math.inf
        self._admit_first_submit = math.inf
        self._admit_last_end = 0.0
        self._n_arrivals_admitted = 0
        self._n_completed = 0

        self.equeue = EventQueue()
        self.cluster = Cluster(self.config.system_size)
        self.coordinator = HybridCoordinator(
            mechanism, self, reservation_grace_s=self.config.reservation_grace_s
        )
        backfill_mode = (
            self._forced_backfill_mode or self.config.backfill_mode
        )
        if backfill_mode == "conservative":
            self.planner = ConservativeBackfillPlanner()
        else:
            self.planner = BackfillPlanner(
                backfill_enabled=self.config.backfill_enabled,
                backfill_depth=self.config.backfill_depth,
                allow_loans=self.config.allow_reserved_loans,
                flexible_malleable=self.config.flexible_malleable,
            )
        self.queue: List[Job] = []
        #: the running jobs' executions (also the coordinator's views)
        self.running: Dict[int, Execution] = {}
        #: every in-flight job's execution, kept across preemptions
        self._executions: Dict[int, Execution] = {}
        #: per-job allocation epoch; a finish or failure event drawn for
        #: an older epoch is stale
        self._epochs: Dict[int, int] = {}
        self._events_processed = 0
        self._schedule_passes = 0
        self._passes_skipped = 0
        #: incrementally maintained (release, nodes) blocks per running
        #: job; not maintained under force_full_replan, where every pass
        #: rebuilds its availability view from scratch instead
        self.timeline = AvailabilityTimeline()
        self._track_timeline = not self.config.force_full_replan
        #: True when something planning-relevant (queue, free pool,
        #: reservations, predicted releases) changed since the last
        #: executed scheduling pass
        self._sched_dirty = True
        # built lazily on first draw: SeedSequence + Generator setup is
        # ~20% of a short cell's wall time and most configs never inject
        # a failure; laziness cannot perturb draws (the stream is seeded
        # independently of construction order)
        self._failure_rng = None
        self._failures_injected = 0
        self.log = SchedulerLog(enabled=self.config.log_decisions)
        # Instrumentation (repro.obs): metric objects are resolved once
        # here — with the default disabled bundle every one is a shared
        # no-op, so the funnel pays a single no-op method call per hit.
        # Per-event totals are flushed in bulk at the end of run().
        obs = self._obs = get_obs()
        self._c_timeline_upserts = obs.counter("sim.timeline.upserts")
        self._c_timeline_removes = obs.counter("sim.timeline.removes")
        self._c_dirty = {
            cause: obs.counter(f"sim.dirty.{cause}")
            for cause in (
                "start",
                "finish",
                "preempt",
                "resize",
                "submit",
                "coordinator",
            )
        }
        # Hot-path reuse: one batch list, one reservation-overlay list,
        # and one timeline-backed ProfileView serve the whole run, so
        # the per-batch loop allocates nothing for its fixed machinery.
        self._batch: List[Event] = []
        self._resv_overlay: List = []
        self._view = ProfileView(0.0, 0, timeline=self.timeline)

    # ------------------------------------------------------------------
    def _validate_job(self, job: Job) -> None:
        if job.size > self.config.system_size:
            raise ConfigurationError(
                f"job {job.job_id} needs {job.size} nodes but the "
                f"system has {self.config.system_size}"
            )
        if job.state is not JobState.PENDING:
            raise ConfigurationError(
                f"job {job.job_id} enters the simulation in state "
                f"{job.state.value}; pass fresh jobs (clone_jobs)"
            )

    def _list_stream(self, jobs: List[Job]) -> JobStream:
        """Validate a job list up front and stream it in submit order.

        Duplicate ids are caught here, before any job is admitted: the
        in-flight window alone cannot see a duplicate of a job already
        retired.  The stable sort keeps the list order among equal
        submit times, and the horizon is the list's exact
        ``max(submit - notice)``.
        """
        seen = set()
        horizon = 0.0
        for job in jobs:
            if job.job_id in seen:
                raise ConfigurationError(f"duplicate job id {job.job_id}")
            seen.add(job.job_id)
            self._validate_job(job)
            if self._is_noticed(job):
                horizon = max(horizon, job.submit_time - job.notice_time)
        ordered = sorted(jobs, key=lambda j: j.submit_time)
        return JobStream(ordered, notice_horizon_s=horizon)

    @staticmethod
    def _is_noticed(job: Job) -> bool:
        return (
            job.is_ondemand
            and job.notice_class is not NoticeClass.NONE
            and job.notice_time is not None
        )

    # ------------------------------------------------------------------
    # Streaming admission
    # ------------------------------------------------------------------
    def _pump_stream(self) -> None:
        """Admit stream jobs whose events could precede the next batch.

        Invariant: a job left *unadmitted* has every event strictly in
        the future.  The stream is submit-ordered and every notice fires
        within ``notice_horizon_s`` of its submission, so the next job
        is safe to defer exactly when ``submit - horizon`` lies beyond
        the head of the event heap; once that stops holding (or the heap
        runs dry) the job is admitted, which pushes its events at times
        no earlier than the head.  Called before each batch pop, this
        keeps the in-flight window tight without ever scheduling an
        event in the past.
        """
        nxt = self._stream_next
        if nxt is None:
            return
        horizon = self._notice_horizon_s
        equeue = self.equeue
        while nxt is not None:
            front = equeue.peek()
            if front is not None and nxt.submit_time - horizon > front.time:
                break
            self._admit(nxt)
            nxt = next(self._stream_it, None)
        self._stream_next = nxt

    def _admit(self, job: Job) -> None:
        """Bring one streamed job into the in-flight window."""
        if job.submit_time + EPS < self._last_admit_submit:
            raise ConfigurationError(
                f"job stream is not sorted by submit time: job "
                f"{job.job_id} submits at {job.submit_time} after "
                f"{self._last_admit_submit}"
            )
        if job.submit_time > self._last_admit_submit:
            self._last_admit_submit = job.submit_time
        self._validate_job(job)
        if job.job_id in self.jobs_by_id:
            raise ConfigurationError(f"duplicate job id {job.job_id}")
        if job.submit_time < self._admit_first_submit:
            self._admit_first_submit = job.submit_time
        noticed = self._is_noticed(job)
        if job.no_show:
            self.metrics.observe_noshow(job)
            if not noticed:
                return  # pushes no events: nothing to retain
        else:
            self._n_arrivals_admitted += 1
        self.jobs_by_id[job.job_id] = job
        if not job.no_show:
            self.equeue.push(
                job.submit_time, EventType.JOB_SUBMIT, job_id=job.job_id
            )
        if noticed:
            self.equeue.push(
                job.notice_time, EventType.ADVANCE_NOTICE, job_id=job.job_id
            )

    def _retire(self, job_id: int) -> None:
        """Drop a settled job from the in-flight window.

        Late references are all benign by construction:
        :meth:`lookup_job` reports a retired job as ``None`` and every
        coordinator path treats that as "already done", while stale
        finish/failure events bounce off the epoch guard before touching
        ``jobs_by_id``.
        """
        self.jobs_by_id.pop(job_id, None)
        self._executions.pop(job_id, None)
        self._epochs.pop(job_id, None)

    # ------------------------------------------------------------------
    # SimulatorOps surface (driven by the coordinator)
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.equeue.now

    def usable_free(self) -> int:
        """Free nodes not held by any reservation."""
        return self.cluster.free - self.coordinator.book.total_held

    def running_views(self) -> List[Execution]:
        return list(self.running.values())

    def lookup_job(self, job_id: int) -> Optional[Job]:
        """The in-flight job with this id, or ``None`` once retired.

        Completed jobs leave the window, so a late reference (a planned
        preemption whose victim already finished, a lease whose lender
        completed before its on-demand borrower) sees ``None`` — which
        callers treat as "job already done".
        """
        return self.jobs_by_id.get(job_id)

    def push_planned_preempt(self, fire: float, od_id: int, victim_id: int) -> None:
        self.equeue.push(
            max(fire, self.now),
            EventType.PLANNED_PREEMPT,
            od_id=od_id,
            victim_id=victim_id,
        )

    def push_reservation_timeout(self, fire: float, od_id: int) -> None:
        if math.isfinite(fire):
            self.equeue.push(max(fire, self.now), EventType.RESERVATION_TIMEOUT, od_id=od_id)

    def mark_sched_dirty(self) -> None:
        """Note a planning-relevant state change made outside the funnel.

        The coordinator calls this when it mutates reservation state
        directly (notice-time reservations, timeout releases); every
        funnel method on this class marks itself.
        """
        self._sched_dirty = True
        self._c_dirty["coordinator"].inc()

    # ------------------------------------------------------------------
    # Job lifecycle operations
    # ------------------------------------------------------------------
    def _execution_for(self, job: Job) -> Execution:
        ex = self._executions.get(job.job_id)
        if ex is None:
            if job.is_malleable:
                ex = MalleableExecution(job)
            else:
                if job.is_rigid:
                    interval = self.config.checkpoint.interval(job.size)
                    cost = self.config.checkpoint.cost(job.size)
                else:  # on-demand jobs never checkpoint
                    interval, cost = math.inf, 0.0
                ex = RigidExecution(job, interval=interval, cost=cost)
            self._executions[job.job_id] = ex
        return ex

    def _start_job(
        self,
        job: Job,
        nodes: int,
        loans: Optional[Dict[int, int]] = None,
    ) -> None:
        """Start *job* on *nodes* nodes, borrowing per *loans* if given."""
        try:
            self.queue.remove(job)
        except ValueError as exc:
            raise SimulationError(
                f"job {job.job_id} started while not in the wait queue"
            ) from exc
        t = self.now
        self.cluster.start_job(job.job_id, nodes)
        if loans:
            for rid, k in loans.items():
                res = self.coordinator.book.get(rid)
                if res is None:
                    raise SimulationError(
                        f"loan from vanished reservation {rid} for job {job.job_id}"
                    )
                self.coordinator.book.loan_out(res, job.job_id, k)
        ex = self._execution_for(job)
        ex.start_segment(t, nodes)
        epoch = self._epochs.get(job.job_id, 0) + 1
        self._epochs[job.job_id] = epoch
        self.running[job.job_id] = ex
        self._sched_dirty = True
        self._c_dirty["start"].inc()
        if self._track_timeline:
            self.timeline.set_block(job.job_id, ex.predicted_finish(), nodes)
            self._c_timeline_upserts.inc()
        job.set_state(JobState.RUNNING)
        if job.stats.first_start is None:
            job.stats.first_start = t
        job.stats.last_start = t
        job.stats.segment_sizes.append(nodes)
        self.equeue.push(
            ex.finish_time(), EventType.JOB_FINISH, job_id=job.job_id, epoch=epoch
        )
        self._maybe_schedule_failure(ex)
        self.log.add(
            t,
            LogKind.START,
            job.job_id,
            nodes=nodes,
            detail="resume" if job.stats.preemptions else "",
        )

    def start_od_job(self, job: Job) -> None:
        """Start an on-demand job at its full size from the free pool."""
        self._start_job(job, job.size, None)

    def resume_from_queue(self, job: Job, nodes: int) -> None:
        """Lease-return resume (§III-B.3), bypassing the policy order."""
        self._start_job(job, nodes, None)

    def _close_segment(
        self, ex: Execution, acc: SegmentAccounting, interrupted: bool
    ) -> None:
        """Merge the segment *ex* just closed into its job's statistics.

        An interrupted (preempted or failed) segment's setup exists only
        because of the interruption, so all of it is charged as waste;
        the completing segment's setup is inherent.
        """
        st = ex.job.stats
        start = ex.segment_start
        end = self.now
        if end > start + EPS:
            st.segment_records.append(
                (start, end, acc.allocated / (end - start))
            )
        st.allocated_node_seconds += acc.allocated
        st.setup_node_seconds += acc.setup
        if interrupted:
            st.wasted_setup_node_seconds += acc.setup
        st.retained_node_seconds += acc.retained
        st.lost_node_seconds += acc.lost
        st.checkpoint_node_seconds += acc.checkpoint

    def preempt_running_job(self, job_id: int, reason: str) -> int:
        """Preempt a running job; returns the released node count.

        The caller (coordinator) is responsible for distributing the
        released nodes via ``on_job_release`` so targeted claims and loan
        returns happen in the right order.
        """
        ex = self.running.pop(job_id, None)
        if ex is None:
            raise SimulationError(f"preempt of non-running job {job_id}")
        self._sched_dirty = True
        self._c_dirty["preempt"].inc()
        if self._track_timeline:
            self.timeline.remove_block(job_id)
            self._c_timeline_removes.inc()
        job = ex.job
        self._close_segment(ex, ex.preempt(self.now), interrupted=True)
        job.stats.preemptions += 1
        job.set_state(JobState.QUEUED)
        self.queue.append(job)
        self._epochs[job_id] += 1
        released = self.cluster.end_job(job_id)
        self.log.add(
            self.now, LogKind.PREEMPT, job_id, nodes=released, detail=reason
        )
        return released

    def _running_malleable(self, job_id: int, op: str) -> Execution:
        """The execution of running malleable job *job_id* (for *op*)."""
        ex = self.running.get(job_id)
        if ex is None:
            raise SimulationError(f"{op} of non-running job {job_id}")
        if not ex.job.is_malleable:
            raise SimulationError(f"{op} of non-malleable job {job_id}")
        return ex

    def shrink_running_malleable(self, job_id: int, take: int) -> int:
        """Shrink a running malleable job by *take* nodes; returns *take*."""
        ex = self._running_malleable(job_id, "shrink")
        new_nodes = ex.nodes - take
        ex.resize(self.now, new_nodes)
        self.cluster.resize_job(job_id, new_nodes)
        ex.job.stats.shrinks += 1
        self._reschedule_finish(ex)
        self.log.add(self.now, LogKind.SHRINK, job_id, nodes=take)
        return take

    def expand_running_malleable(self, job_id: int, give: int) -> int:
        """Expand a running malleable job by up to *give* nodes."""
        ex = self._running_malleable(job_id, "expand")
        new_nodes = min(ex.job.max_size, ex.nodes + give)
        if new_nodes == ex.nodes:
            return 0
        grown = ex.resize(self.now, new_nodes)
        self.cluster.resize_job(job_id, new_nodes)
        ex.job.stats.expands += 1
        self._reschedule_finish(ex)
        self.log.add(self.now, LogKind.EXPAND, job_id, nodes=grown)
        return grown

    def _reschedule_finish(self, ex: Execution) -> None:
        job_id = ex.job.job_id
        epoch = self._epochs[job_id] + 1
        self._epochs[job_id] = epoch
        self._sched_dirty = True
        self._c_dirty["resize"].inc()
        if self._track_timeline:
            self.timeline.set_block(job_id, ex.predicted_finish(), ex.nodes)
            self._c_timeline_upserts.inc()
        self.equeue.push(
            ex.finish_time(), EventType.JOB_FINISH, job_id=job_id, epoch=epoch
        )
        # Redraw the failure gap for the new epoch; the exponential is
        # memoryless, so a fresh draw is statistically equivalent.
        self._maybe_schedule_failure(ex)

    def _maybe_schedule_failure(self, ex: Execution) -> None:
        """Arm a failure event for this allocation if injection is on."""
        fm = self.config.failures
        if not fm.enabled:
            return
        if self._failure_rng is None:
            self._failure_rng = RngStreams(
                self.config.failure_seed
            ).get("failures")
        gap = fm.draw_time_to_failure(ex.nodes, self._failure_rng)
        # Anchor the draw at the segment start so a restart delay cannot
        # produce a failure that precedes the restarted segment.
        at = max(self.now, ex.segment_start) + gap
        if at < ex.finish_time() - EPS:
            job_id = ex.job.job_id
            self.equeue.push(
                at, EventType.JOB_FAILURE, job_id=job_id, epoch=self._epochs[job_id]
            )

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _handle_submit(self, job_id: int) -> None:
        job = self.jobs_by_id[job_id]
        job.set_state(JobState.QUEUED)
        self.queue.append(job)
        self._sched_dirty = True
        self._c_dirty["submit"].inc()
        self.log.add(self.now, LogKind.SUBMIT, job_id, nodes=job.size)
        if job.is_ondemand:
            self.coordinator.on_od_arrival(job)

    def _handle_notice(self, job_id: int) -> None:
        job = self.jobs_by_id[job_id]
        job.set_state(JobState.NOTICED)
        self.log.add(
            self.now,
            LogKind.NOTICE,
            job_id,
            nodes=job.size,
            detail=f"eta={job.estimated_arrival:.0f}",
        )
        self.coordinator.on_advance_notice(job)
        if job.no_show and self.coordinator.book.get(job_id) is None:
            # no reservation was opened (baseline / NOTHING strategy),
            # so no timeout will ever fire for this no-show: this notice
            # was its last event
            self._retire(job_id)

    def _handle_finish(self, job_id: int, epoch: int) -> None:
        ex = self.running.get(job_id)
        if ex is None or self._epochs[job_id] != epoch:
            return  # stale event from before a resize/preemption
        self._sched_dirty = True
        self._c_dirty["finish"].inc()
        if self._track_timeline:
            self.timeline.remove_block(job_id)
            self._c_timeline_removes.inc()
        job = ex.job
        self._close_segment(ex, ex.complete(self.now), interrupted=False)
        del self.running[job_id]
        job.set_state(JobState.COMPLETED)
        job.stats.end_time = self.now
        released = self.cluster.end_job(job_id)
        self.log.add(self.now, LogKind.FINISH, job_id, nodes=released)
        self.metrics.observe_finished(job)
        if job.is_ondemand:
            self.coordinator.on_od_completion(job)
        else:
            self.coordinator.on_job_release(job_id, released)
        self._n_completed += 1
        if self.now > self._admit_last_end:
            self._admit_last_end = self.now
        self._retire(job_id)

    def _handle_failure(self, job_id: int, epoch: int) -> None:
        """A node under this job failed: roll back and restart in place.

        The allocation is kept (§II-A: rigid applications "restart from
        the latest checkpoint in the event of an interruption"); the job
        pays a fresh setup and, for rigid jobs, loses the compute after
        its last completed checkpoint.
        """
        ex = self.running.get(job_id)
        if ex is None or self._epochs[job_id] != epoch:
            return  # stale: the segment this failure was drawn for is gone
        self._failures_injected += 1
        job = ex.job
        nodes = ex.nodes
        self._close_segment(ex, ex.preempt(self.now), interrupted=True)
        job.stats.failures += 1
        ex.start_segment(self.now + self.config.failures.restart_delay_s, nodes)
        job.stats.segment_sizes.append(nodes)
        self._reschedule_finish(ex)
        self.log.add(self.now, LogKind.FAILURE, job_id, nodes=nodes)

    def _handle_planned_preempt(self, od_id: int, victim_id: int) -> None:
        self.coordinator.on_planned_preempt(od_id, victim_id)

    def _handle_timeout(self, od_id: int) -> None:
        self.coordinator.on_reservation_timeout(od_id)
        job = self.jobs_by_id.get(od_id)
        if job is not None and job.no_show:
            # the expired reservation was this announced no-show's last
            # trace of activity
            if job.state not in (JobState.PENDING, JobState.NOTICED):
                raise SimulationError(
                    f"no-show job {od_id} somehow reached state "
                    f"{job.state.value}"
                )
            self._retire(od_id)

    # ------------------------------------------------------------------
    # Scheduling pass
    # ------------------------------------------------------------------
    def _predict_wall(self, job: Job, nodes: int) -> float:
        """Estimated wall-clock duration of *job* if started now on *nodes*."""
        return self._execution_for(job).predict_wall(nodes)

    def _reservation_blocks(self, reservations: List[Reservation]) -> List:
        """Reservation pseudo-blocks: held nodes release when the owning
        on-demand job is predicted to finish.  Recomputed per pass (the
        release time of an *arrived* reservation tracks ``now``) into a
        single reused list; live reservations are few, so this overlay
        stays cheap."""
        blocks = self._resv_overlay
        blocks.clear()
        for r in reservations:
            if r.held <= 0:
                continue
            od = self.jobs_by_id[r.od_job_id]
            release = (
                self.now + od.estimate
                if r.arrived
                else r.estimated_arrival + od.estimate
            )
            # clamp to strictly after now: the profile builder folds
            # blocks at t <= now + EPS into *present* free capacity,
            # and held nodes are by definition not startable now — the
            # conservative planner would otherwise start backfills on
            # them without loans (oversubscribing the free pool)
            blocks.append((max(release, self.now + 2 * EPS), r.held))
        return blocks

    def _availability_view(
        self, usable: int, reservations: List[Reservation]
    ) -> ProfileView:
        """This instant's planner-facing availability profile."""
        overlay = self._reservation_blocks(reservations)
        if not self._track_timeline:
            # seed behaviour: re-derive every block from the running set
            blocks = [
                (ex.predicted_finish(), ex.nodes)
                for ex in self.running.values()
            ]
            blocks.extend(overlay)
            return ProfileView.from_blocks(self.now, usable, blocks)
        return self._view.reset(self.now, usable, overlay)

    def _has_clock_tracking_block(self) -> bool:
        """Does any reservation pseudo-block's release move with ``now``?

        Running jobs' predicted finishes are fixed between funnel
        mutations, but a reservation's pseudo-block releases at
        ``max(release, now)`` where ``release`` is ``now + estimate``
        for an *arrived* reservation (always clock-tracking) or
        ``estimated_arrival + estimate`` for a pending one — which also
        starts tracking the clock once that instant is overdue (the
        ``max`` clamps it to ``now``; reachable for LATE-notice jobs
        with short estimates inside the grace window).  Such a block
        can reorder against fixed blocks as time passes, voiding the
        stale-batch skip's time-invariance argument.
        """
        for r in self.coordinator.book.holding_reservations():
            if r.arrived:
                return True
            od = self.jobs_by_id[r.od_job_id]
            if r.estimated_arrival + od.estimate <= self.now + EPS:
                return True
        return False

    def _can_skip_pass(self) -> bool:
        """Is this pass provably a no-op?

        Two cases, both exact (never heuristic — skipping must not be
        able to change a single decision):

        * **Empty queue.**  There is nothing to order, nothing to start,
          and no waiting on-demand job for the pre-phase (those sit in
          the queue too).
        * **Nothing changed.**  No funnel mutation, queue change, or
          reservation change happened since the last executed pass —
          the event batch was entirely stale events — so the planner
          would see byte-identical inputs except ``now``.  With a
          time-invariant policy the queue order is unchanged, and as
          ``now`` advances against releases fixed in time, backfill
          windows only shrink and extra-node budgets cannot change, so
          a plan that started nothing then starts nothing now.  That
          argument requires every block's release to actually be fixed
          — a clock-tracking reservation pseudo-block (it can reorder
          against fixed blocks and grow the extra-node budget) refuses
          this skip (:meth:`_has_clock_tracking_block`).
        """
        if not self.queue:
            # any pending dirtiness is consumed: a no-op pass over an
            # empty queue re-establishes the clean fixpoint
            self._sched_dirty = False
            return True
        return (
            not self._sched_dirty
            and self.policy.time_invariant
            and not self._has_clock_tracking_block()
        )

    def _schedule_pass(self) -> None:
        if not self.config.force_full_replan and self._can_skip_pass():
            self._passes_skipped += 1
            return
        self._schedule_passes += 1
        # attrs deliberately omitted: this span fires once per executed
        # pass and is the hottest traced region — the enabled-path
        # budget (bench_sim_core) leaves no room for per-pass kwargs
        with self._obs.span("sim.pass"):
            self._schedule_pass_body()

    def _schedule_pass_body(self) -> None:
        self._sched_dirty = False
        book = self.coordinator.book
        # Pre-phase: waiting on-demand jobs assemble nodes via their
        # (still-collecting) reservations, earliest arrival first.
        if self.mechanism is not None:
            waiting_od = sorted(
                (j for j in self.queue if j.is_ondemand),
                key=lambda j: (j.submit_time, j.job_id),
            )
            for od in waiting_od:
                self.coordinator.try_start_queued_od(od)
        if not self.queue:
            return
        usable = self.usable_free()
        reservations = book.active_reservations()
        loanable = [
            (r.od_job_id, r.held)
            for r in reservations
            if not r.arrived and r.held > 0
        ]
        if usable <= 0 and not loanable:
            return
        ordered = self.policy.order(
            self.queue, self.now, prioritize_ondemand=self.mechanism is not None
        )
        decisions = self.planner.plan(
            profile=self._availability_view(usable, reservations),
            ordered_queue=ordered,
            loanable=loanable,
            predict_wall=self._predict_wall,
        )
        for d in decisions:
            self._start_job(d.job, d.nodes, d.loans or None)

    # ------------------------------------------------------------------
    # Invariant validation (tests / debug runs)
    # ------------------------------------------------------------------
    def validate_state(self) -> None:
        self.coordinator.book.validate(self.cluster.free)
        for job_id, ex in self.running.items():
            if self.cluster.allocation(job_id) != ex.nodes:
                raise SimulationError(
                    f"job {job_id}: cluster says "
                    f"{self.cluster.allocation(job_id)} nodes, record says "
                    f"{ex.nodes}"
                )
            if ex.job.state is not JobState.RUNNING:
                raise SimulationError(
                    f"job {job_id} in running set but state {ex.job.state}"
                )
        for job in self.queue:
            if job.state is not JobState.QUEUED:
                raise SimulationError(
                    f"job {job.job_id} in queue but state {job.state}"
                )
        if self.usable_free() < 0:
            raise SimulationError(
                f"reservations hold {self.coordinator.book.total_held} nodes "
                f"but only {self.cluster.free} are free"
            )
        if self._track_timeline:
            self.timeline.validate_against(
                {
                    job_id: (ex.predicted_finish(), ex.nodes)
                    for job_id, ex in self.running.items()
                }
            )

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Run the trace to completion and return the result record."""
        t0 = _time.perf_counter()
        dispatch = {
            EventType.JOB_SUBMIT: lambda p: self._handle_submit(p["job_id"]),
            EventType.ADVANCE_NOTICE: lambda p: self._handle_notice(p["job_id"]),
            EventType.JOB_FINISH: lambda p: self._handle_finish(
                p["job_id"], p["epoch"]
            ),
            EventType.JOB_FAILURE: lambda p: self._handle_failure(
                p["job_id"], p["epoch"]
            ),
            EventType.PLANNED_PREEMPT: lambda p: self._handle_planned_preempt(
                p["od_id"], p["victim_id"]
            ),
            EventType.RESERVATION_TIMEOUT: lambda p: self._handle_timeout(
                p["od_id"]
            ),
        }
        with self._obs.span("sim.run", jobs=self._n_jobs_hint), \
                self._obs.memory.section("sim.run"):
            while True:
                self._pump_stream()
                if not len(self.equeue):
                    break
                batch = self.equeue.pop_batch(self._batch)
                now = self.now
                self.cluster.advance(now)
                self.coordinator.book.advance(now)
                for ev in batch:
                    self._events_processed += 1
                    dispatch[ev.type](ev.payload)
                self._schedule_pass()
                if self.config.validate_invariants:
                    self.validate_state()
        # bulk-flush loop totals: one counter call per run, not per event
        obs = self._obs
        obs.counter("sim.events.processed").inc(self._events_processed)
        obs.counter("sim.passes.run").inc(self._schedule_passes)
        obs.counter("sim.passes.skipped").inc(self._passes_skipped)
        if obs.enabled:
            h = obs.histogram("sched.decision.latency_s")
            for sample in self.coordinator.decision_latencies:
                h.observe(sample)

        if self.running or self.queue:
            raise SimulationError(
                f"simulation drained its events with {len(self.running)} jobs "
                f"running and {len(self.queue)} queued — scheduling deadlock "
                f"(free={self.cluster.free}, "
                f"held={self.coordinator.book.total_held})"
            )

        # every admitted arrival completed; only no-shows stay admitted
        for job in self.jobs_by_id.values():
            if not job.no_show:
                raise SimulationError("some jobs never completed")
            if job.state not in (JobState.PENDING, JobState.NOTICED):
                raise SimulationError(
                    f"no-show job {job.job_id} somehow reached state "
                    f"{job.state.value}"
                )
        if self._n_completed != self._n_arrivals_admitted:
            raise SimulationError("some jobs never completed")
        first_submit = (
            self._admit_first_submit
            if math.isfinite(self._admit_first_submit)
            else 0.0
        )
        last_end = self._admit_last_end
        return SimulationResult(
            jobs=self.jobs,
            mechanism=self.mechanism.name if self.mechanism else None,
            policy=self.policy.name,
            system_size=self.config.system_size,
            makespan=last_end,
            first_submit=first_submit,
            last_end=last_end,
            reserved_idle_node_seconds=self.coordinator.book.held_node_seconds,
            free_node_seconds=self.cluster.free_node_seconds,
            accumulator=self.metrics,
            decision_latency=LatencyStats.from_samples(
                self.coordinator.decision_latencies
            ),
            events_processed=self._events_processed,
            schedule_passes=self._schedule_passes,
            passes_skipped=self._passes_skipped,
            wall_time_s=_time.perf_counter() - t0,
            lease_resumes=self.coordinator.lease_resumes,
            lease_expands=self.coordinator.lease_expands,
            failures_injected=self._failures_injected,
            log=self.log if self.config.log_decisions else None,
        )
