"""Conservative backfilling (substrate extension; EASY is the default).

EASY (§II-B) reserves a start time only for the *head* of the queue, so a
backfill can delay anyone behind the head.  Conservative backfilling gives
**every** queued job a reservation in queue order: a job may only jump
ahead if it delays none of the reservations made before it.  The paper
evaluates EASY only; this planner exists for the ablation suite, and as
the natural "stricter fairness" point of comparison for the mechanisms.

Implementation: a step-function *availability profile* over future time
(:class:`repro.sched.profile.AvailabilityProfile`), materialised from the
scheduling instant's :class:`~repro.sched.profile.ProfileView` — in
incremental mode that is a sort-free copy of the shared availability
timeline.  Jobs are inserted in queue order at the earliest feasible
start; a job whose reserved start is *now* actually starts.  Malleable
jobs are reserved at their maximum size (choosing per-reservation sizes
would make the profile search quadratic in sizes for marginal benefit);
reserved-idle loans are an EASY-specific device and are not used here.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.jobs.job import Job
from repro.sched.easy import StartDecision, WallPredictor
from repro.sched.profile import AvailabilityProfile, ProfileView

__all__ = ["AvailabilityProfile", "ConservativeBackfillPlanner"]

EPS = 1e-6


class ConservativeBackfillPlanner:
    """Plan starts so no earlier-queued job's reservation is delayed.

    Drop-in alternative to :class:`repro.sched.easy.BackfillPlanner`
    (same ``plan`` signature; the loanable pool is ignored).
    """

    def plan(
        self,
        profile: ProfileView,
        ordered_queue: Sequence[Job],
        loanable: Sequence[Tuple[int, int]],
        predict_wall: WallPredictor,
    ) -> List[StartDecision]:
        now = profile.now
        working = profile.build_profile()
        decisions: List[StartDecision] = []
        blocked_seen = False
        for job in ordered_queue:
            nodes = job.size
            wall = predict_wall(job, nodes)
            start = working.earliest_start(nodes, wall)
            working.reserve(start, wall, nodes)
            if start <= now + EPS:
                decisions.append(
                    StartDecision(
                        job=job,
                        nodes=nodes,
                        free_used=nodes,
                        # a start past an earlier (still waiting) job is a
                        # backfill; in-order starts are not
                        backfilled=blocked_seen,
                    )
                )
            else:
                blocked_seen = True
        return decisions
