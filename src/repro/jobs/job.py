"""The job model (§III-A of the paper).

A :class:`Job` is the immutable-ish description a user submits, plus a small
amount of mutable bookkeeping the simulator maintains (state, per-lifecycle
statistics).  Three job classes exist:

* **Rigid** — fixed ``size``; runs for ``runtime`` compute-seconds; pays a
  setup on every (re)start; checkpoints regularly; a preemption rolls it
  back to the last completed checkpoint.
* **On-demand** — time-critical; fixed size; never preempted or shrunk;
  may announce itself with an *advance notice* 15–30 minutes ahead.  Its
  ``submit_time`` is its *actual arrival*.
* **Malleable** — can run on any integer node count in
  ``[min_size, size]`` with linear speedup; shrink/expand is free;
  preemption loses no work (two-minute-warning checkpoint) but a resume
  pays setup again.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import List, Optional

from repro.util.errors import ConfigurationError, InvariantViolation


class JobType(enum.Enum):
    """The three application classes the paper co-schedules."""

    RIGID = "rigid"
    ONDEMAND = "ondemand"
    MALLEABLE = "malleable"


class NoticeClass(enum.Enum):
    """The four on-demand arrival categories of Fig. 1."""

    #: No advance notice; the scheduler learns of the job at arrival.
    NONE = "none"
    #: Notice given, actual arrival equals the estimated arrival.
    ACCURATE = "accurate"
    #: Notice given, job arrives before its estimated arrival.
    EARLY = "early"
    #: Notice given, job arrives (up to 30 min) after its estimated arrival.
    LATE = "late"


class JobState(enum.Enum):
    """Lifecycle states tracked by the simulator."""

    PENDING = "pending"  # not yet submitted (trace future)
    NOTICED = "noticed"  # on-demand: advance notice received, not arrived
    QUEUED = "queued"  # waiting in the scheduler queue
    RUNNING = "running"
    COMPLETED = "completed"


#: Legal state transitions; used by :meth:`Job.set_state` to catch bugs.
_TRANSITIONS = {
    JobState.PENDING: {JobState.NOTICED, JobState.QUEUED},
    JobState.NOTICED: {JobState.QUEUED},
    JobState.QUEUED: {JobState.RUNNING},
    JobState.RUNNING: {JobState.QUEUED, JobState.COMPLETED},
    JobState.COMPLETED: set(),
}


@dataclass(frozen=True)
class SegmentAccounting:
    """Node-second decomposition of one closed running segment.

    ``allocated == setup + compute + checkpoint`` and
    ``compute == retained + lost`` (all in node-seconds).  Both execution
    models return one from ``preempt``/``complete``; a malleable segment
    never checkpoints and never loses compute.
    """

    allocated: float
    setup: float
    compute: float
    checkpoint: float
    retained: float
    lost: float

    def validate(self) -> None:
        if abs(self.allocated - (self.setup + self.compute + self.checkpoint)) > 1e-3:
            raise InvariantViolation(
                f"segment accounting mismatch: alloc={self.allocated} "
                f"setup={self.setup} compute={self.compute} ckpt={self.checkpoint}"
            )
        if abs(self.compute - (self.retained + self.lost)) > 1e-3:
            raise InvariantViolation(
                f"compute split mismatch: compute={self.compute} "
                f"retained={self.retained} lost={self.lost}"
            )


@dataclass
class JobStats:
    """Mutable per-job measurement record filled in during simulation."""

    first_start: Optional[float] = None
    last_start: Optional[float] = None
    end_time: Optional[float] = None
    preemptions: int = 0
    shrinks: int = 0
    expands: int = 0
    #: node-failure interruptions (failure injection is an extension;
    #: zero in paper-faithful runs)
    failures: int = 0
    #: node-seconds of compute that counted toward completion
    retained_node_seconds: float = 0.0
    #: node-seconds of compute rolled back by preemptions
    lost_node_seconds: float = 0.0
    #: node-seconds spent in setup (first start + every resume)
    setup_node_seconds: float = 0.0
    #: setup node-seconds that belong to *preempted* segments.  A completed
    #: job has exactly one completing segment whose setup is inherent; every
    #: preempted segment's setup exists only because of the preemption and
    #: is therefore waste.
    wasted_setup_node_seconds: float = 0.0
    #: node-seconds spent writing checkpoints
    checkpoint_node_seconds: float = 0.0
    #: total node-seconds the job held an allocation
    allocated_node_seconds: float = 0.0
    #: sizes the job ran at (one entry per running segment)
    segment_sizes: List[int] = field(default_factory=list)
    #: closed running segments as (start, end, mean_nodes); resizes within
    #: a segment are folded into the mean, preemption gaps are exact
    segment_records: List[tuple] = field(default_factory=list)

    @property
    def waste_node_seconds(self) -> float:
        """Node-seconds wasted because of preemption (lost work + re-setups)."""
        return self.lost_node_seconds + self.wasted_setup_node_seconds


@dataclass
class Job:
    """A single job in the workload.

    Parameters
    ----------
    job_id:
        Unique integer identifier.
    job_type:
        One of :class:`JobType`.
    submit_time:
        Submission time in seconds.  For on-demand jobs this is the
        *actual arrival* (the moment the job must start to count as
        "instant").
    size:
        Requested node count.  For malleable jobs, the *maximum* size.
    runtime:
        Actual compute demand in seconds when running at ``size`` nodes.
        (For malleable jobs total work is ``runtime * size`` node-seconds.)
    estimate:
        User walltime estimate at ``size`` nodes (``>= runtime``; CQSim-style
        traces guarantee this because jobs are killed at their estimate).
    setup_time:
        Seconds of setup paid at every (re)start.
    min_size:
        Malleable only — smallest node count the job can run on.
    project:
        Project identifier; the workload generator assigns job types at
        project granularity (§IV-A).
    notice_class / notice_time / estimated_arrival:
        On-demand only — the Fig. 1 arrival category, when the advance
        notice reaches the scheduler, and the arrival time announced in it.
    no_show:
        On-demand only — the job announces itself but never arrives
        (§III-B.4: "may arrive late or even do not show up").  Requires a
        notice; the reserved nodes are released at the grace timeout.
    """

    job_id: int
    job_type: JobType
    submit_time: float
    size: int
    runtime: float
    estimate: float
    setup_time: float = 0.0
    min_size: Optional[int] = None
    project: int = 0
    notice_class: NoticeClass = NoticeClass.NONE
    notice_time: Optional[float] = None
    estimated_arrival: Optional[float] = None
    no_show: bool = False

    state: JobState = field(default=JobState.PENDING, compare=False)
    stats: JobStats = field(default_factory=JobStats, compare=False)

    def __post_init__(self) -> None:
        if self.job_id < 0:
            raise ConfigurationError("job_id must be non-negative")
        if self.size <= 0:
            raise ConfigurationError(f"job {self.job_id}: size must be positive")
        if self.runtime <= 0:
            raise ConfigurationError(f"job {self.job_id}: runtime must be positive")
        if self.estimate < self.runtime:
            raise ConfigurationError(
                f"job {self.job_id}: estimate ({self.estimate}) < runtime "
                f"({self.runtime}); trace jobs are killed at their estimate"
            )
        if self.setup_time < 0:
            raise ConfigurationError(f"job {self.job_id}: setup_time must be >= 0")
        if self.submit_time < 0:
            raise ConfigurationError(f"job {self.job_id}: submit_time must be >= 0")
        if self.job_type is JobType.MALLEABLE:
            if self.min_size is None:
                raise ConfigurationError(
                    f"malleable job {self.job_id} requires min_size"
                )
            if not (1 <= self.min_size <= self.size):
                raise ConfigurationError(
                    f"job {self.job_id}: min_size must be in [1, size]"
                )
        elif self.min_size is not None and self.min_size != self.size:
            raise ConfigurationError(
                f"job {self.job_id}: only malleable jobs may set min_size"
            )
        if self.job_type is JobType.ONDEMAND:
            if self.notice_class is not NoticeClass.NONE:
                if self.notice_time is None or self.estimated_arrival is None:
                    raise ConfigurationError(
                        f"on-demand job {self.job_id} with notice_class "
                        f"{self.notice_class.value} requires notice_time and "
                        "estimated_arrival"
                    )
                if self.notice_time > self.submit_time:
                    raise ConfigurationError(
                        f"job {self.job_id}: notice_time after actual arrival"
                    )
            if self.no_show and self.notice_class is NoticeClass.NONE:
                raise ConfigurationError(
                    f"job {self.job_id}: a no-show without an advance notice "
                    "would be invisible to the scheduler; give it a notice"
                )
        else:
            if self.notice_class is not NoticeClass.NONE:
                raise ConfigurationError(
                    f"job {self.job_id}: only on-demand jobs carry notices"
                )
            if self.no_show:
                raise ConfigurationError(
                    f"job {self.job_id}: only on-demand jobs can be no-shows"
                )

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def is_rigid(self) -> bool:
        return self.job_type is JobType.RIGID

    @property
    def is_ondemand(self) -> bool:
        return self.job_type is JobType.ONDEMAND

    @property
    def is_malleable(self) -> bool:
        return self.job_type is JobType.MALLEABLE

    @property
    def max_size(self) -> int:
        """Largest node count the job can use (== ``size`` for all types)."""
        return self.size

    @property
    def smallest_size(self) -> int:
        """Smallest node count the job can start on."""
        if self.is_malleable:
            assert self.min_size is not None
            return self.min_size
        return self.size

    @property
    def work_node_seconds(self) -> float:
        """Total compute demand in node-seconds (linear-speedup model)."""
        return self.runtime * self.size

    @property
    def estimate_node_seconds(self) -> float:
        """Estimated compute demand in node-seconds."""
        return self.estimate * self.size

    def runtime_at(self, nodes: int) -> float:
        """Compute time (excl. setup) when running at *nodes* nodes.

        Rigid and on-demand jobs only ever run at ``size``; malleable jobs
        follow the paper's linear-speedup model ``t = t_single / n``.
        """
        if not self.is_malleable:
            if nodes != self.size:
                raise ValueError(
                    f"job {self.job_id} is {self.job_type.value} and can only "
                    f"run at {self.size} nodes, not {nodes}"
                )
            return self.runtime
        if not (self.smallest_size <= nodes <= self.size):
            raise ValueError(
                f"malleable job {self.job_id}: nodes {nodes} outside "
                f"[{self.smallest_size}, {self.size}]"
            )
        return self.work_node_seconds / nodes

    def estimate_at(self, nodes: int) -> float:
        """Estimated compute time (excl. setup) at *nodes* nodes."""
        if not self.is_malleable:
            if nodes != self.size:
                raise ValueError(
                    f"job {self.job_id} cannot run at {nodes} nodes"
                )
            return self.estimate
        return self.estimate_node_seconds / nodes

    # ------------------------------------------------------------------
    # State machine
    # ------------------------------------------------------------------
    def set_state(self, new_state: JobState) -> None:
        """Transition the job, validating against the state machine."""
        if new_state not in _TRANSITIONS[self.state]:
            raise ConfigurationError(
                f"job {self.job_id}: illegal transition "
                f"{self.state.value} -> {new_state.value}"
            )
        self.state = new_state

    # ------------------------------------------------------------------
    # Reporting helpers
    # ------------------------------------------------------------------
    @property
    def turnaround(self) -> float:
        """Submission-to-completion interval; NaN until completed."""
        if self.stats.end_time is None:
            return math.nan
        return self.stats.end_time - self.submit_time

    @property
    def start_delay(self) -> float:
        """Submission-to-first-start interval; NaN until started."""
        if self.stats.first_start is None:
            return math.nan
        return self.stats.first_start - self.submit_time

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Job(id={self.job_id}, {self.job_type.value}, n={self.size}, "
            f"rt={self.runtime:.0f}s, est={self.estimate:.0f}s, "
            f"state={self.state.value})"
        )
