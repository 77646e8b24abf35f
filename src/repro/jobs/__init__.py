"""Job models: types, state machine, and execution timelines.

This subpackage implements §III-A of the paper:

* :class:`~repro.jobs.job.Job` — the static description of a job (what a
  user submits) plus mutable scheduling bookkeeping.
* :class:`~repro.jobs.checkpoint.CheckpointModel` — per-checkpoint cost
  (600 s / 1200 s by size) and Daly's optimal interval.
* :class:`~repro.jobs.rigid_exec.RigidExecution` — the piecewise
  setup→compute→checkpoint wall-clock timeline of a rigid (or
  on-demand) job, with preemption rollback to the last completed
  checkpoint; :class:`~repro.jobs.rigid_exec.RigidTimeline` holds the
  closed-form math of one segment.
* :class:`~repro.jobs.malleable_exec.MalleableExecution` — the
  linear-speedup work model (``t = t_single / n + t_setup``) with free
  shrink/expand and loss-free preemption.

Both execution models share one surface (:data:`Execution`): ``job``,
``nodes``, ``segment_start``, ``start_segment(t, nodes)``,
``finish_time()``, ``predicted_finish()``, ``predict_wall(nodes)``,
``preemption_loss(t)``, ``last_checkpoint_completion_at_or_before(t)``
and ``preempt(t)``/``complete(t)``, each closing the segment into one
:class:`~repro.jobs.job.SegmentAccounting`.  The simulator keeps the
execution as its only running-job record and hands it to the
coordinator as the running view.
"""

from typing import Union

from repro.jobs.checkpoint import CheckpointModel
from repro.jobs.job import Job, JobState, JobType, NoticeClass, SegmentAccounting
from repro.jobs.malleable_exec import MalleableExecution
from repro.jobs.rigid_exec import RigidExecution, RigidTimeline

#: a job's execution state, whichever its model
Execution = Union[RigidExecution, MalleableExecution]

__all__ = [
    "CheckpointModel",
    "Execution",
    "Job",
    "JobState",
    "JobType",
    "NoticeClass",
    "MalleableExecution",
    "RigidExecution",
    "RigidTimeline",
    "SegmentAccounting",
]
