"""Unit + property tests for the rigid checkpoint timeline math.

This is the most delicate arithmetic in the simulator: the piecewise
setup -> compute -> checkpoint wall-clock layout, rollback to the last
completed checkpoint, and the node-second accounting identity.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.jobs.job import Job, JobType
from repro.jobs.rigid_exec import RigidExecution, RigidTimeline
from repro.util.errors import InvariantViolation


def tl(start=0.0, setup=100.0, base=0.0, work=10000.0, interval=3000.0, cost=600.0):
    return RigidTimeline(
        start=start,
        setup=setup,
        base_work=base,
        total_work=work,
        interval=interval,
        cost=cost,
    )


class TestBasicLayout:
    def test_finish_time_no_checkpoints(self):
        t = tl(interval=math.inf)
        assert t.finish_time() == 0.0 + 100.0 + 10000.0

    def test_num_checkpoints(self):
        # work 10000, interval 3000: marks at 3000, 6000, 9000 -> 3
        assert tl().num_checkpoints == 3

    def test_num_checkpoints_exact_multiple(self):
        # work 9000, interval 3000: marks at 3000, 6000 (not 9000) -> 2
        assert tl(work=9000.0).num_checkpoints == 2

    def test_num_checkpoints_resumed(self):
        # resumed at base 6000: marks at 9000 -> 1
        assert tl(base=6000.0).num_checkpoints == 1

    def test_finish_time_with_checkpoints(self):
        t = tl()
        assert t.finish_time() == 100.0 + 10000.0 + 3 * 600.0

    def test_checkpoint_completion_times(self):
        t = tl()
        assert t.checkpoint_completion_time(1) == 100.0 + 3000.0 + 600.0
        assert t.checkpoint_completion_time(2) == 100.0 + 2 * 3600.0
        with pytest.raises(ValueError):
            t.checkpoint_completion_time(4)
        with pytest.raises(ValueError):
            t.checkpoint_completion_time(0)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            tl(work=0.0)
        with pytest.raises(ValueError):
            tl(base=10000.0)  # base == total
        with pytest.raises(ValueError):
            tl(interval=0.0)
        with pytest.raises(ValueError):
            tl(cost=-1.0)
        with pytest.raises(ValueError):
            tl(setup=-1.0)


class TestProgressAndRetained:
    def test_during_setup(self):
        t = tl()
        assert t.progress_at(50.0) == 0.0
        assert t.retained_at(50.0) == 0.0

    def test_mid_first_chunk(self):
        t = tl()
        # 100 setup + 1000 compute
        assert t.progress_at(1100.0) == pytest.approx(1000.0)
        assert t.retained_at(1100.0) == 0.0  # no checkpoint yet

    def test_during_first_checkpoint(self):
        t = tl()
        # checkpoint 1 spans [3100, 3700)
        assert t.progress_at(3400.0) == pytest.approx(3000.0)
        assert t.completed_checkpoints_at(3400.0) == 0
        assert t.retained_at(3400.0) == 0.0

    def test_at_first_checkpoint_completion(self):
        t = tl()
        done = t.checkpoint_completion_time(1)
        assert t.completed_checkpoints_at(done) == 1
        assert t.retained_at(done) == pytest.approx(3000.0)

    def test_second_chunk(self):
        t = tl()
        # after ckpt1 at 3700, +500 compute
        assert t.progress_at(4200.0) == pytest.approx(3500.0)
        assert t.retained_at(4200.0) == pytest.approx(3000.0)

    def test_at_finish(self):
        t = tl()
        assert t.progress_at(t.finish_time()) == pytest.approx(10000.0)
        assert t.retained_at(t.finish_time()) == pytest.approx(10000.0)

    def test_resumed_base_offsets(self):
        t = tl(base=6000.0)
        assert t.remaining_work == 4000.0
        done = t.checkpoint_completion_time(1)
        assert t.retained_at(done) == pytest.approx(9000.0)

    def test_last_checkpoint_before(self):
        t = tl()
        c1 = t.checkpoint_completion_time(1)
        assert t.last_checkpoint_completion_at_or_before(c1 - 1) is None
        assert t.last_checkpoint_completion_at_or_before(c1) == pytest.approx(c1)
        c3 = t.checkpoint_completion_time(3)
        assert t.last_checkpoint_completion_at_or_before(1e9) == pytest.approx(c3)

    def test_next_checkpoint_after(self):
        t = tl()
        c1 = t.checkpoint_completion_time(1)
        assert t.next_checkpoint_completion_after(0.0) == pytest.approx(c1)
        c3 = t.checkpoint_completion_time(3)
        assert t.next_checkpoint_completion_after(c3) is None


class TestWallForWork:
    def test_matches_finish_time(self):
        t = tl()
        assert t.start + t.wall_for_work(t.total_work) == pytest.approx(
            t.finish_time()
        )

    def test_estimate_never_undershoots(self):
        t = tl()
        assert t.wall_for_work(12000.0) >= t.wall_for_work(10000.0)

    def test_below_base_rejected(self):
        t = tl(base=5000.0)
        with pytest.raises(ValueError):
            t.wall_for_work(4000.0)


class TestAccounting:
    def test_identity_at_many_instants(self):
        t = tl()
        for wall in [0, 50, 100, 1000, 3100, 3400, 3700, 8000, t.finish_time()]:
            acc = t.accounting_until(wall, nodes=7)
            acc.validate()  # raises on mismatch

    def test_full_segment(self):
        t = tl()
        acc = t.accounting_until(t.finish_time(), nodes=2)
        assert acc.retained == pytest.approx(2 * 10000.0)
        assert acc.lost == pytest.approx(0.0)
        assert acc.setup == pytest.approx(2 * 100.0)
        assert acc.checkpoint == pytest.approx(2 * 3 * 600.0)

    def test_preempt_mid_chunk_loses_tail(self):
        t = tl()
        acc = t.accounting_until(4200.0, nodes=1)
        assert acc.retained == pytest.approx(3000.0)
        assert acc.lost == pytest.approx(500.0)


# ----------------------------------------------------------------------
# Property tests
# ----------------------------------------------------------------------
timeline_args = st.tuples(
    st.floats(min_value=0.0, max_value=1e5),  # start
    st.floats(min_value=0.0, max_value=5e3),  # setup
    st.floats(min_value=100.0, max_value=1e5),  # total work
    st.floats(min_value=60.0, max_value=5e4),  # interval
    st.floats(min_value=0.0, max_value=2e3),  # cost
    st.floats(min_value=0.0, max_value=0.99),  # base fraction
)


@settings(max_examples=200, deadline=None)
@given(timeline_args, st.floats(min_value=0.0, max_value=2.0))
def test_timeline_properties(args, frac):
    start, setup, work, interval, cost, base_frac = args
    t = RigidTimeline(
        start=start,
        setup=setup,
        base_work=base_frac * work,
        total_work=work,
        interval=interval,
        cost=cost,
    )
    instant = start + frac * (t.finish_time() - start)
    progress = t.progress_at(instant)
    retained = t.retained_at(instant)
    # retained never exceeds raw progress (beyond base), both bounded by work
    assert retained - t.base_work <= progress + 1e-6
    assert progress <= t.remaining_work + 1e-6
    assert t.base_work - 1e-6 <= retained <= t.total_work + 1e-6
    acc = t.accounting_until(instant, nodes=3)
    acc.validate()


@settings(max_examples=200, deadline=None)
@given(timeline_args, st.floats(min_value=0.01, max_value=0.99))
def test_progress_monotone(args, frac):
    start, setup, work, interval, cost, base_frac = args
    t = RigidTimeline(
        start=start,
        setup=setup,
        base_work=base_frac * work,
        total_work=work,
        interval=interval,
        cost=cost,
    )
    t1 = start + frac * (t.finish_time() - start)
    t2 = t1 + 0.5 * (t.finish_time() - t1)
    assert t.progress_at(t1) <= t.progress_at(t2) + 1e-6
    assert t.retained_at(t1) <= t.retained_at(t2) + 1e-6


def _job(setup=100.0, runtime=10000.0, size=4):
    return Job(
        job_id=1,
        job_type=JobType.RIGID,
        submit_time=0.0,
        size=size,
        runtime=runtime,
        estimate=runtime * 1.5,
        setup_time=setup,
    )


class TestRigidExecution:
    def test_complete_lifecycle(self):
        ex = RigidExecution(_job(), interval=3000.0, cost=600.0)
        ex.start_segment(0.0, 4)
        ft = ex.finish_time()
        acc = ex.complete(ft)
        assert ex.completed_work == 10000.0
        assert acc.retained == pytest.approx(4 * 10000.0)

    def test_preempt_resume_conserves_work(self):
        ex = RigidExecution(_job(), interval=3000.0, cost=600.0)
        ex.start_segment(0.0, 4)
        c2 = ex.timeline.checkpoint_completion_time(2)
        acc1 = ex.preempt(c2 + 100.0)  # mid third chunk: retain 6000
        assert ex.completed_work == pytest.approx(6000.0)
        assert acc1.lost == pytest.approx(4 * 100.0)
        ex.start_segment(20000.0, 4)
        ft = ex.finish_time()
        # remaining 4000 work, one checkpoint at 9000 (mark < 10000)
        assert ft == pytest.approx(20000.0 + 100.0 + 4000.0 + 600.0)
        acc2 = ex.complete(ft)
        total_retained = acc1.retained + acc2.retained
        assert total_retained == pytest.approx(4 * 10000.0)

    def test_preempt_during_setup_retains_nothing(self):
        ex = RigidExecution(_job(), interval=3000.0, cost=600.0)
        ex.start_segment(0.0, 4)
        acc = ex.preempt(50.0)
        assert ex.completed_work == 0.0
        assert acc.setup == pytest.approx(4 * 50.0)
        assert acc.compute == 0.0

    def test_preemption_loss_grows_within_chunk(self):
        ex = RigidExecution(_job(), interval=3000.0, cost=600.0)
        ex.start_segment(0.0, 4)
        early = ex.preemption_loss(200.0)
        later = ex.preemption_loss(2000.0)
        assert later > early

    def test_preemption_loss_resets_at_checkpoint(self):
        ex = RigidExecution(_job(), interval=3000.0, cost=600.0)
        ex.start_segment(0.0, 4)
        c1 = ex.timeline.checkpoint_completion_time(1)
        assert ex.preemption_loss(c1) == pytest.approx(4 * 100.0)  # setup only

    def test_predicted_finish_never_early(self):
        ex = RigidExecution(_job(), interval=3000.0, cost=600.0)
        ex.start_segment(0.0, 4)
        assert ex.predicted_finish() >= ex.finish_time() - 1e-6

    def test_double_start_rejected(self):
        ex = RigidExecution(_job(), interval=3000.0, cost=600.0)
        ex.start_segment(0.0, 4)
        with pytest.raises(InvariantViolation):
            ex.start_segment(1.0, 4)

    def test_ops_require_running(self):
        ex = RigidExecution(_job(), interval=3000.0, cost=600.0)
        with pytest.raises(InvariantViolation):
            ex.finish_time()
        with pytest.raises(InvariantViolation):
            ex.preempt(0.0)
        with pytest.raises(InvariantViolation):
            ex.complete(0.0)

    def test_complete_at_wrong_time_rejected(self):
        ex = RigidExecution(_job(), interval=3000.0, cost=600.0)
        ex.start_segment(0.0, 4)
        with pytest.raises(InvariantViolation):
            ex.complete(ex.finish_time() - 500.0)

    def test_ondemand_mode_no_checkpoints(self):
        ex = RigidExecution(_job(setup=0.0), interval=math.inf, cost=0.0)
        ex.start_segment(0.0, 4)
        assert ex.finish_time() == pytest.approx(10000.0)


@settings(max_examples=100, deadline=None)
@given(
    preempt_fracs=st.lists(
        st.floats(min_value=0.01, max_value=0.99), min_size=0, max_size=4
    ),
    interval=st.floats(min_value=300.0, max_value=20000.0),
    cost=st.floats(min_value=0.0, max_value=1200.0),
    setup=st.floats(min_value=0.0, max_value=1000.0),
)
def test_execution_work_conservation(preempt_fracs, interval, cost, setup):
    """Across arbitrary preempt/resume cycles, total retained node-seconds
    equals the job's work, and per-segment accounting identities hold."""
    job = _job(setup=setup)
    ex = RigidExecution(job, interval=interval, cost=cost)
    t = 0.0
    total_retained = 0.0
    for frac in preempt_fracs:
        ex.start_segment(t, 4)
        ft = ex.finish_time()
        instant = t + frac * (ft - t)
        acc = ex.preempt(instant)
        acc.validate()
        total_retained += acc.retained
        assert acc.retained == pytest.approx(
            (ex.completed_work * job.size) - (total_retained - acc.retained),
            abs=1e-3,
        )
        t = instant + 100.0
    ex.start_segment(t, 4)
    acc = ex.complete(ex.finish_time())
    acc.validate()
    total_retained += acc.retained
    assert total_retained == pytest.approx(job.runtime * job.size, rel=1e-9)
