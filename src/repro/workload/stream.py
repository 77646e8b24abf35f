"""Generator-backed workloads: the streaming side of the million-job core.

A :class:`JobStream` wraps any iterator of :class:`~repro.jobs.job.Job`
objects **sorted by submit time** and carries the one piece of metadata
the simulator needs to consume it lazily: the *notice horizon* — an
upper bound on ``submit_time - notice_time`` over the whole stream.
Advance notices fire *before* their job's submission, so a simulator
pulling jobs in submit order must admit every job whose submission lies
within the horizon of the next event batch; with the bound in hand it
can keep the admitted-but-not-finished window tight instead of
materializing the trace.

Producers that know their own bound attach it:

* :meth:`repro.workload.theta.ThetaWorkloadGenerator.iter_jobs` uses
  ``spec.notice_lead_range_s[1] + spec.late_window_s`` (a LATE job's
  notice precedes its actual arrival by at most lead + late window);
* :func:`repro.workload.swf.stream_swf` uses ``0`` (SWF jobs carry no
  notices);
* a job list handed to ``Simulation`` is sorted and streamed with its
  exact ``max(submit - notice)``;
* a bare generator handed straight to ``Simulation`` is wrapped with
  :data:`DEFAULT_NOTICE_HORIZON_S`, generous enough for every notice
  mix this repo generates.

The bound only affects *memory* (how far ahead the simulator admits),
never decisions: admission schedules each job's submit/notice events
before the clock can reach them, whenever that happens.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from repro.jobs.job import Job

#: fallback ``submit_time - notice_time`` bound for bare iterators:
#: 2 h covers the paper's 15-30 min leads plus the 30 min late window
#: with slack to spare.
DEFAULT_NOTICE_HORIZON_S = 7200.0


class JobStream:
    """An iterator of submit-time-ordered jobs plus its notice horizon.

    Parameters
    ----------
    jobs:
        Any iterable of jobs sorted by ``submit_time`` (ties in any
        order).  The simulator validates monotonicity as it pulls.
    notice_horizon_s:
        Upper bound on ``submit_time - notice_time`` across the stream.
        Jobs without notices contribute 0; pass 0.0 for notice-free
        workloads to keep the admission window minimal.
    """

    __slots__ = ("_it", "notice_horizon_s")

    def __init__(
        self,
        jobs: Iterable[Job],
        notice_horizon_s: float = DEFAULT_NOTICE_HORIZON_S,
    ) -> None:
        if notice_horizon_s < 0:
            raise ValueError("notice_horizon_s must be >= 0")
        self._it: Iterator[Job] = iter(jobs)
        self.notice_horizon_s = float(notice_horizon_s)

    def __iter__(self) -> Iterator[Job]:
        return self._it

    def __next__(self) -> Job:
        return next(self._it)


def as_stream(jobs, notice_horizon_s: Optional[float] = None) -> JobStream:
    """Coerce *jobs* into a :class:`JobStream`.

    An existing stream passes through untouched (unless a horizon
    override is given); any other iterable is wrapped with the default
    horizon.
    """
    if isinstance(jobs, JobStream):
        if notice_horizon_s is not None:
            return JobStream(jobs, notice_horizon_s=notice_horizon_s)
        return jobs
    return JobStream(
        jobs,
        notice_horizon_s=(
            DEFAULT_NOTICE_HORIZON_S
            if notice_horizon_s is None
            else notice_horizon_s
        ),
    )
