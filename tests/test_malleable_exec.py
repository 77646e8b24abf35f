"""Unit + property tests for the malleable linear-speedup execution model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.jobs.job import Job, JobType
from repro.jobs.malleable_exec import MalleableExecution
from repro.util.errors import InvariantViolation


def mjob(size=100, min_size=20, runtime=3600.0, setup=100.0, estimate=None):
    return Job(
        job_id=5,
        job_type=JobType.MALLEABLE,
        submit_time=0.0,
        size=size,
        min_size=min_size,
        runtime=runtime,
        estimate=estimate if estimate is not None else runtime * 1.5,
        setup_time=setup,
    )


class TestBasics:
    def test_only_malleable_accepted(self):
        j = Job(
            job_id=1,
            job_type=JobType.RIGID,
            submit_time=0.0,
            size=10,
            runtime=100.0,
            estimate=100.0,
        )
        with pytest.raises(ValueError):
            MalleableExecution(j)

    def test_finish_time_at_max_size(self):
        ex = MalleableExecution(mjob())
        ex.start_segment(0.0, 100)
        # setup 100 + work 360000/100
        assert ex.finish_time() == pytest.approx(100.0 + 3600.0)

    def test_finish_time_at_min_size(self):
        ex = MalleableExecution(mjob())
        ex.start_segment(0.0, 20)
        assert ex.finish_time() == pytest.approx(100.0 + 3600.0 * 100 / 20)

    def test_start_size_bounds(self):
        ex = MalleableExecution(mjob())
        with pytest.raises(InvariantViolation):
            ex.start_segment(0.0, 10)
        with pytest.raises(InvariantViolation):
            ex.start_segment(0.0, 150)

    def test_complete_lifecycle_accounting(self):
        ex = MalleableExecution(mjob())
        ex.start_segment(0.0, 100)
        acc = ex.complete(ex.finish_time())
        acc.validate()
        assert acc.compute == pytest.approx(360000.0)
        assert acc.setup == pytest.approx(100.0 * 100)

    def test_complete_wrong_time_rejected(self):
        ex = MalleableExecution(mjob())
        ex.start_segment(0.0, 100)
        with pytest.raises(InvariantViolation):
            ex.complete(ex.finish_time() - 50.0)


class TestResize:
    def test_shrink_conserves_work(self):
        ex = MalleableExecution(mjob())
        ex.start_segment(0.0, 100)
        # run 100 setup + 1000s compute at 100 nodes = 100k node-s done
        ex.resize(1100.0, 50)
        assert ex.work_remaining == pytest.approx(360000.0 - 100000.0)
        assert ex.finish_time() == pytest.approx(1100.0 + 260000.0 / 50)

    def test_expand_shortens_finish(self):
        ex = MalleableExecution(mjob(min_size=10))
        ex.start_segment(0.0, 50)
        before = ex.finish_time()
        ex.resize(500.0, 100)
        assert ex.finish_time() < before

    def test_resize_delta_sign(self):
        ex = MalleableExecution(mjob())
        ex.start_segment(0.0, 100)
        assert ex.resize(200.0, 60) == -40
        assert ex.resize(300.0, 80) == 20

    def test_resize_during_setup(self):
        """Setup progress is wall-clock and unaffected by the size change."""
        ex = MalleableExecution(mjob())
        ex.start_segment(0.0, 100)
        ex.resize(50.0, 20)  # mid-setup
        assert ex.setup_remaining == pytest.approx(50.0)
        assert ex.finish_time() == pytest.approx(50.0 + 50.0 + 360000.0 / 20)

    def test_resize_bounds(self):
        ex = MalleableExecution(mjob())
        ex.start_segment(0.0, 100)
        with pytest.raises(InvariantViolation):
            ex.resize(10.0, 10)

    def test_time_backwards_rejected(self):
        ex = MalleableExecution(mjob())
        ex.start_segment(0.0, 100)
        ex.resize(500.0, 50)
        with pytest.raises(InvariantViolation):
            ex.resize(400.0, 60)


class TestPreemption:
    def test_preempt_loses_no_work(self):
        ex = MalleableExecution(mjob())
        ex.start_segment(0.0, 100)
        acc = ex.preempt(1100.0)  # 1000s of compute done
        acc.validate()
        assert acc.setup == pytest.approx(100.0 * 100)
        assert acc.lost == 0.0
        assert acc.retained == acc.compute == pytest.approx(100000.0)
        assert ex.work_remaining == pytest.approx(260000.0)
        # resume: full setup again, work continues
        ex.start_segment(5000.0, 50)
        assert ex.finish_time() == pytest.approx(5000.0 + 100.0 + 260000.0 / 50)

    def test_preempt_mid_setup_wastes_partial_setup(self):
        ex = MalleableExecution(mjob())
        ex.start_segment(0.0, 100)
        acc = ex.preempt(40.0)
        assert acc.setup == pytest.approx(40.0 * 100)
        assert acc.compute == acc.lost == 0.0
        assert ex.work_remaining == pytest.approx(360000.0)

    def test_preemption_loss_key(self):
        ex = MalleableExecution(mjob())
        ex.start_segment(0.0, 100)
        # after setup: loss = setup already spent + setup to re-pay
        assert ex.preemption_loss(1100.0) == pytest.approx(2 * 100.0 * 100)

    def test_ops_require_running(self):
        ex = MalleableExecution(mjob())
        for op in (
            lambda: ex.finish_time(),
            lambda: ex.preempt(0.0),
            lambda: ex.resize(0.0, 50),
            lambda: ex.complete(0.0),
        ):
            with pytest.raises(InvariantViolation):
                op()

    def test_predicted_finish_never_early(self):
        ex = MalleableExecution(mjob())
        ex.start_segment(0.0, 100)
        assert ex.predicted_finish() >= ex.finish_time()
        ex.resize(1000.0, 30)
        assert ex.predicted_finish() >= ex.finish_time()


@settings(max_examples=150, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=20, max_value=100), min_size=1, max_size=6),
    gaps=st.lists(
        st.floats(min_value=1.0, max_value=5000.0), min_size=6, max_size=6
    ),
)
def test_work_conserved_across_resizes_and_preemptions(sizes, gaps):
    """Arbitrary resize/preempt sequences never create or destroy work."""
    job = mjob()
    ex = MalleableExecution(job)
    t = 0.0
    done = 0.0
    ex.start_segment(t, sizes[0])
    for i, size in enumerate(sizes[1:], start=1):
        t += min(gaps[i % len(gaps)], max(1.0, (ex.finish_time() - t) * 0.3))
        if i % 3 == 2:
            acc = ex.preempt(t)
            acc.validate()
            done += acc.compute
            t += 10.0
            ex.start_segment(t, size)
        else:
            ex.resize(t, size)
    ft = ex.finish_time()
    acc = ex.complete(ft)
    acc.validate()
    done += acc.compute
    assert done == pytest.approx(job.work_node_seconds, rel=1e-9)
