"""Malleable-job execution model (§III-A).

The paper models malleable jobs with linear speedup on top of a constant
setup: ``t_actual = t_single / n + t_setup``.  We therefore track the job's
remaining *work* in node-seconds; on ``n`` nodes it drains at rate ``n``.

* **Shrink/expand** are free and instantaneous (the job is a bag of small
  tasks); remaining work is conserved and the finish time is recomputed.
* **Preemption** loses no compute — the two-minute warning lets the job
  save its state — but a resumed segment pays ``t_setup`` again.
* Setup progress does not speed up with more nodes and is *not* conserved
  across preemption (a job preempted mid-setup restarts setup).

The object lives for the job's whole life; node-second accounting is
integrated exactly across resize points.  It shares its surface with
:class:`~repro.jobs.rigid_exec.RigidExecution`.
"""

from __future__ import annotations

from repro.jobs.job import Job, SegmentAccounting
from repro.util.errors import InvariantViolation

EPS = 1e-6


class MalleableExecution:
    """Mutable execution state of one malleable job across its whole life."""

    __slots__ = (
        "job",
        "work_remaining",
        "nodes",
        "setup_remaining",
        "segment_start",
        "_last_update",
        "_seg_alloc",
        "_seg_setup",
        "_seg_compute",
        "_running",
    )

    def __init__(self, job: Job) -> None:
        if not job.is_malleable:
            raise ValueError(f"job {job.job_id} is not malleable")
        self.job = job
        #: node-seconds of compute still to do (persists across preemptions)
        self.work_remaining = job.work_node_seconds
        self.nodes = 0
        self.setup_remaining = 0.0
        #: wall time the current (or last) segment began; None before
        #: the first start
        self.segment_start: float | None = None
        self._last_update = 0.0
        self._seg_alloc = 0.0
        self._seg_setup = 0.0
        self._seg_compute = 0.0
        self._running = False

    # ------------------------------------------------------------------
    def start_segment(self, t: float, nodes: int) -> None:
        """Begin a (re)start on *nodes* nodes at wall time *t*."""
        if self._running:
            raise InvariantViolation(
                f"job {self.job.job_id}: start_segment while running"
            )
        if not (self.job.smallest_size <= nodes <= self.job.size):
            raise InvariantViolation(
                f"job {self.job.job_id}: start size {nodes} outside "
                f"[{self.job.smallest_size}, {self.job.size}]"
            )
        self.nodes = nodes
        self.setup_remaining = self.job.setup_time
        self.segment_start = t
        self._last_update = t
        self._seg_alloc = 0.0
        self._seg_setup = 0.0
        self._seg_compute = 0.0
        self._running = True

    def _advance(self, t: float) -> None:
        """Integrate setup/work consumption from the last update to *t*.

        A segment may start in the future (a failure restart delay); time
        before its start accrues nothing.
        """
        if t < self._last_update - EPS:
            if self._last_update > self.segment_start:
                raise InvariantViolation(
                    f"job {self.job.job_id}: time moved backwards "
                    f"({self._last_update} -> {t})"
                )
            return  # the segment has not begun yet
        dt = max(0.0, t - self._last_update)
        if dt == 0.0:
            self._last_update = t
            return
        self._seg_alloc += dt * self.nodes
        setup_dt = min(dt, self.setup_remaining)
        if setup_dt > 0:
            self.setup_remaining -= setup_dt
            self._seg_setup += setup_dt * self.nodes
            dt -= setup_dt
        if dt > 0:
            done = min(dt * self.nodes, self.work_remaining)
            self.work_remaining -= done
            self._seg_compute += done
            # Any surplus dt beyond work completion is a caller error; the
            # finish event should have fired exactly at depletion.
            surplus = dt - done / self.nodes if self.nodes else dt
            if surplus > 1e-3:
                raise InvariantViolation(
                    f"job {self.job.job_id}: advanced {surplus:.6f}s past "
                    "work depletion"
                )
        self._last_update = t

    # ------------------------------------------------------------------
    def resize(self, t: float, nodes: int) -> int:
        """Shrink or expand to *nodes* at time *t*; returns the delta.

        Positive delta = expansion (nodes taken from the pool), negative =
        shrink (nodes released to the pool).  Work is conserved.
        """
        if not self._running:
            raise InvariantViolation(f"job {self.job.job_id} is not running")
        if not (self.job.smallest_size <= nodes <= self.job.size):
            raise InvariantViolation(
                f"job {self.job.job_id}: resize to {nodes} outside "
                f"[{self.job.smallest_size}, {self.job.size}]"
            )
        self._advance(t)
        delta = nodes - self.nodes
        self.nodes = nodes
        return delta

    def finish_time(self) -> float:
        """Wall time the job completes at its current size."""
        if not self._running:
            raise InvariantViolation(f"job {self.job.job_id} is not running")
        if self.nodes <= 0:
            raise InvariantViolation(f"job {self.job.job_id}: zero-node run")
        return (
            self._last_update
            + self.setup_remaining
            + self.work_remaining / self.nodes
        )

    def predicted_finish(self) -> float:
        """Estimate-based finish prediction (for EASY backfilling).

        The user's estimate pads the total work by a fixed node-second
        amount; the padding survives shrinks/expands unchanged.
        """
        if not self._running:
            raise InvariantViolation(f"job {self.job.job_id} is not running")
        pad = (self.job.estimate - self.job.runtime) * self.job.size
        return (
            self._last_update
            + self.setup_remaining
            + (self.work_remaining + pad) / self.nodes
        )

    def predict_wall(self, nodes: int) -> float:
        """Estimated wall duration of a (re)start now on *nodes* nodes.

        A job that never ran predicts from its submitted estimate; a
        resumed one from its remaining work plus the estimate's padding.
        """
        job = self.job
        if self.segment_start is None:
            work = job.estimate_node_seconds
        else:
            work = self.work_remaining + (job.estimate - job.runtime) * job.size
        return job.setup_time + work / nodes

    def preemption_loss(self, t: float) -> float:
        """Node-seconds wasted by preempting at *t* (victim-ordering key).

        Only setup is wasted: the partial setup of the current segment (if
        still setting up) plus the full setup the resume will re-pay.
        """
        if not self._running:
            raise InvariantViolation(f"job {self.job.job_id} is not running")
        spent_setup = self.job.setup_time - self.setup_remaining
        # advance() has not necessarily been called at t; approximate the
        # additional setup progress between _last_update and t.
        extra = min(max(0.0, t - self._last_update), self.setup_remaining)
        return (spent_setup + extra + self.job.setup_time) * self.nodes

    def last_checkpoint_completion_at_or_before(self, t: float) -> None:
        """Malleable jobs never checkpoint."""
        return None

    # ------------------------------------------------------------------
    def _close(self) -> SegmentAccounting:
        compute = self._seg_compute
        acc = SegmentAccounting(
            allocated=self._seg_alloc,
            setup=self._seg_setup,
            compute=compute,
            checkpoint=0.0,
            retained=compute,
            lost=0.0,
        )
        acc.validate()
        self._running = False
        return acc

    def preempt(self, t: float) -> SegmentAccounting:
        """Close the current segment by preemption at time *t*.

        Work is conserved; a partial setup is thrown away (the next
        segment pays setup in full again).
        """
        if not self._running:
            raise InvariantViolation(f"job {self.job.job_id} is not running")
        self._advance(t)
        return self._close()

    def complete(self, t: float) -> SegmentAccounting:
        """Close the segment by natural completion at time *t*."""
        if not self._running:
            raise InvariantViolation(f"job {self.job.job_id} is not running")
        ft = self.finish_time()
        if abs(t - ft) > 1e-3:
            raise InvariantViolation(
                f"job {self.job.job_id}: complete() at {t}, natural finish {ft}"
            )
        self._advance(ft)
        if self.work_remaining > 1e-3:
            raise InvariantViolation(
                f"job {self.job.job_id}: completing with "
                f"{self.work_remaining:.3f} node-seconds outstanding"
            )
        return self._close()
