"""Unit tests for the HybridCoordinator against a stub simulator.

The integration scenarios (test_simulator_scenarios) cover the end-to-end
paths; these tests pin down coordinator-local decisions — what gets
reserved, earmarked, planned, and in what order — without running a full
simulation.
"""

from typing import Dict, List, Optional

import pytest

from repro.core.coordinator import HybridCoordinator
from repro.core.ledger import LeaseKind
from repro.core.mechanisms import Mechanism
from repro.jobs.job import Job, JobState, JobType, NoticeClass


class StubView:
    """Minimal running-job view the coordinator consumes."""

    def __init__(self, job, nodes, pred_finish, loss=0.0, last_ckpt=None):
        self.job = job
        self.nodes = nodes
        self._pred = pred_finish
        self._loss = loss
        self._last_ckpt = last_ckpt

    def predicted_finish(self):
        return self._pred

    def preemption_loss(self, t):
        return self._loss

    def last_checkpoint_completion_at_or_before(self, t):
        if self._last_ckpt is None or self._last_ckpt > t:
            return None
        return self._last_ckpt


class StubOps:
    """Scriptable SimulatorOps double recording every coordinator call."""

    def __init__(self, now=0.0, free=0):
        self._now = now
        #: models the cluster free pool (reserved holdings live inside it)
        self.free = free
        self.book = None  # attached by make(); needed for usable_free
        self.views: List[StubView] = []
        self.jobs: Dict[int, Job] = {}
        self.preempted: List[int] = []
        self.shrunk: List[tuple] = []
        self.expanded: List[tuple] = []
        self.started: List[int] = []
        self.resumed: List[tuple] = []
        self.planned_events: List[tuple] = []
        self.timeouts: List[tuple] = []

    # --- SimulatorOps surface ---
    @property
    def now(self):
        return self._now

    def usable_free(self):
        held = self.book.total_held if self.book is not None else 0
        return self.free - held

    def running_views(self):
        return list(self.views)

    def lookup_job(self, job_id):
        return self.jobs[job_id]

    def preempt_running_job(self, job_id, reason):
        self.preempted.append(job_id)
        view = next(v for v in self.views if v.job.job_id == job_id)
        self.views.remove(view)
        view.job.state = JobState.QUEUED
        view.job.stats.preemptions += 1
        self.free += view.nodes
        return view.nodes

    def shrink_running_malleable(self, job_id, take):
        self.shrunk.append((job_id, take))
        view = next(v for v in self.views if v.job.job_id == job_id)
        view.nodes -= take
        self.free += take
        return take

    def expand_running_malleable(self, job_id, give):
        self.expanded.append((job_id, give))
        self.free -= give
        return give

    def start_od_job(self, job):
        self.started.append(job.job_id)
        self.free -= job.size

    def resume_from_queue(self, job, nodes):
        self.resumed.append((job.job_id, nodes))
        self.free -= nodes

    def push_planned_preempt(self, fire, od_id, victim_id):
        self.planned_events.append((fire, od_id, victim_id))

    def push_reservation_timeout(self, fire, od_id):
        self.timeouts.append((fire, od_id))

    def mark_sched_dirty(self):
        pass


def od_job(job_id=100, size=50, submit=3000.0, notice=1500.0, estimated=3000.0):
    job = Job(
        job_id=job_id,
        job_type=JobType.ONDEMAND,
        submit_time=submit,
        size=size,
        runtime=600.0,
        estimate=600.0,
        notice_class=NoticeClass.ACCURATE,
        notice_time=notice,
        estimated_arrival=estimated,
    )
    return job


def rigid_job(job_id, size, setup=100.0):
    return Job(
        job_id=job_id,
        job_type=JobType.RIGID,
        submit_time=0.0,
        size=size,
        runtime=10000.0,
        estimate=10000.0,
        setup_time=setup,
    )


def malleable_job(job_id, size, min_size):
    return Job(
        job_id=job_id,
        job_type=JobType.MALLEABLE,
        submit_time=0.0,
        size=size,
        min_size=min_size,
        runtime=10000.0,
        estimate=10000.0,
    )


def make(mechanism: Optional[str], now=1500.0, free=0):
    ops = StubOps(now=now, free=free)
    coord = HybridCoordinator(
        Mechanism.parse(mechanism) if mechanism else None, ops
    )
    ops.book = coord.book  # usable_free = cluster free - reserved holdings
    return coord, ops


class TestAdvanceNotice:
    def test_baseline_ignores_notice(self):
        coord, ops = make(None, free=100)
        coord.on_advance_notice(od_job())
        assert coord.book.get(100) is None
        assert ops.timeouts == []

    def test_n_strategy_ignores_notice(self):
        coord, ops = make("N&PAA", free=100)
        coord.on_advance_notice(od_job())
        assert coord.book.get(100) is None

    def test_cua_reserves_free_and_arms_timeout(self):
        coord, ops = make("CUA&PAA", free=30)
        coord.on_advance_notice(od_job(size=50))
        res = coord.book.get(100)
        assert res.held == 30
        assert res.collecting is True
        # timeout at estimated arrival + 10 min grace
        assert ops.timeouts == [(3000.0 + 600.0, 100)]

    def test_cup_earmarks_enders_before_planning(self):
        coord, ops = make("CUP&PAA", free=0)
        ender = rigid_job(1, 30)
        ender.state = JobState.RUNNING
        stayer = rigid_job(2, 100)
        stayer.state = JobState.RUNNING
        ops.views = [
            StubView(ender, 30, pred_finish=2500.0),
            StubView(stayer, 100, pred_finish=99999.0, last_ckpt=2700.0),
        ]
        ops.jobs = {1: ender, 2: stayer}
        coord.on_advance_notice(od_job(size=50))
        res = coord.book.get(100)
        assert res.earmarks == {1: 30}
        # remaining 20 nodes planned from the stayer, firing at its last
        # checkpoint completion before the arrival
        assert res.planned[2].pledge == 20
        assert ops.planned_events == [(2700.0, 100, 2)]

    def test_cup_malleable_victim_fires_at_arrival(self):
        coord, ops = make("CUP&SPAA", free=0)
        stayer = malleable_job(2, 100, 20)
        stayer.state = JobState.RUNNING
        ops.views = [StubView(stayer, 100, pred_finish=99999.0)]
        ops.jobs = {2: stayer}
        coord.on_advance_notice(od_job(size=50))
        assert ops.planned_events == [(3000.0, 100, 2)]

    def test_cup_never_double_pledges(self):
        coord, ops = make("CUP&PAA", free=0)
        stayer = rigid_job(2, 60)
        stayer.state = JobState.RUNNING
        ops.views = [StubView(stayer, 60, pred_finish=99999.0)]
        ops.jobs = {2: stayer}
        coord.on_advance_notice(od_job(job_id=100, size=50))
        coord.on_advance_notice(od_job(job_id=101, size=50))
        pledged = coord.book.pledged_on(2)
        assert pledged <= 60


class TestArrival:
    def test_instant_from_free_pool(self):
        coord, ops = make("N&PAA", now=3000.0, free=80)
        job = od_job(size=50)
        assert coord.on_od_arrival(job) is True
        assert ops.started == [100]
        assert ops.preempted == []

    def test_paa_preempts_cheapest_first(self):
        coord, ops = make("N&PAA", now=3000.0, free=0)
        cheap = rigid_job(1, 30)
        cheap.state = JobState.RUNNING
        pricey = rigid_job(2, 30)
        pricey.state = JobState.RUNNING
        ops.views = [
            StubView(pricey, 30, 9e9, loss=5000.0),
            StubView(cheap, 30, 9e9, loss=10.0),
        ]
        ops.jobs = {1: cheap, 2: pricey}
        assert coord.on_od_arrival(od_job(size=50)) is True
        assert ops.preempted == [1, 2]
        leases = coord.ledger.settle(100)
        assert [(l.lender_job_id, l.nodes) for l in leases] == [(1, 30), (2, 20)]

    def test_spaa_shrinks_evenly_without_preempting(self):
        coord, ops = make("N&SPAA", now=3000.0, free=0)
        m1 = malleable_job(1, 60, 10)
        m2 = malleable_job(2, 60, 10)
        m1.state = m2.state = JobState.RUNNING
        ops.views = [StubView(m1, 60, 9e9), StubView(m2, 60, 9e9)]
        ops.jobs = {1: m1, 2: m2}
        assert coord.on_od_arrival(od_job(size=50)) is True
        assert ops.preempted == []
        assert dict(ops.shrunk) == {1: 25, 2: 25}
        assert all(l.kind is LeaseKind.SHRUNK for l in coord.ledger.outstanding(100))

    def test_spaa_falls_back_to_paa(self):
        coord, ops = make("N&SPAA", now=3000.0, free=0)
        m1 = malleable_job(1, 60, 55)  # only 5 shrinkable
        m1.state = JobState.RUNNING
        ops.views = [StubView(m1, 60, 9e9, loss=1.0)]
        ops.jobs = {1: m1}
        assert coord.on_od_arrival(od_job(size=50)) is True
        assert ops.shrunk == []
        assert ops.preempted == [1]

    def test_insufficient_leaves_job_queued_with_collector(self):
        coord, ops = make("N&PAA", now=3000.0, free=10)
        assert coord.on_od_arrival(od_job(size=50)) is False
        res = coord.book.get(100)
        assert res is not None and res.collecting
        assert res.held == 10

    def test_arrival_cancels_cup_plans(self):
        coord, ops = make("CUP&PAA", free=0)
        stayer = rigid_job(2, 100)
        stayer.state = JobState.RUNNING
        ops.views = [StubView(stayer, 100, 9e9, loss=1.0, last_ckpt=2700.0)]
        ops.jobs = {2: stayer}
        job = od_job(size=50)
        coord.on_advance_notice(job)
        res = coord.book.get(100)
        assert res.planned
        ops._now = 2000.0  # arrives early
        coord.on_od_arrival(job)
        assert all(p.cancelled for p in res.planned.values())
        # the cancelled plan must not fire afterwards
        before = list(ops.preempted)
        coord.on_planned_preempt(100, 2)
        assert ops.preempted == before


class TestCompletion:
    def test_preempted_lender_resumes(self):
        coord, ops = make("N&PAA", now=5000.0, free=0)
        victim = rigid_job(1, 30)
        victim.state = JobState.RUNNING
        ops.views = [StubView(victim, 30, 9e9, loss=1.0)]
        ops.jobs = {1: victim}
        job = od_job(size=20, submit=5000.0)
        coord.on_od_arrival(job)
        assert ops.preempted == [1]
        # od completes; its 20 nodes return; victim needs 30: 20 lease +
        # 10 free that appeared meanwhile
        ops.free += job.size + 10
        coord.on_od_completion(job)
        assert ops.resumed == [(1, 30)]
        assert coord.lease_resumes == 1

    def test_shrunk_lender_expands(self):
        coord, ops = make("N&SPAA", now=5000.0, free=0)
        m1 = malleable_job(1, 60, 10)
        m1.state = JobState.RUNNING
        ops.views = [StubView(m1, 60, 9e9)]
        ops.jobs = {1: m1}
        job = od_job(size=40, submit=5000.0)
        coord.on_od_arrival(job)
        assert dict(ops.shrunk) == {1: 40}
        ops.free += job.size  # od released its nodes
        coord.on_od_completion(job)
        assert ops.expanded == [(1, 40)]
        assert coord.lease_expands == 1

    def test_finished_lender_gets_nothing(self):
        coord, ops = make("N&PAA", now=5000.0, free=0)
        victim = rigid_job(1, 30)
        victim.state = JobState.RUNNING
        ops.views = [StubView(victim, 30, 9e9, loss=1.0)]
        ops.jobs = {1: victim}
        job = od_job(size=20, submit=5000.0)
        coord.on_od_arrival(job)
        victim.state = JobState.COMPLETED  # finished some other way
        ops.free += job.size
        coord.on_od_completion(job)
        assert ops.resumed == []


class TestTimeout:
    def test_timeout_releases_holding(self):
        coord, ops = make("CUA&PAA", free=50)
        job = od_job(size=50)
        coord.on_advance_notice(job)
        assert coord.book.total_held == 50
        coord.on_reservation_timeout(100)
        assert coord.book.total_held == 0
        assert coord.book.get(100) is None

    def test_timeout_after_arrival_is_noop(self):
        coord, ops = make("CUA&PAA", now=3000.0, free=100)
        job = od_job(size=50)
        coord.on_advance_notice(job)
        coord.on_od_arrival(job)
        coord.on_reservation_timeout(100)  # must not blow up
        assert ops.started == [100]
