"""The execution surface shared by rigid, on-demand and malleable jobs.

The simulator keeps one execution object per running job and hands it
to the coordinator as the running view, so every model must honour the
same contract: ``start_segment(t, nodes)`` records ``segment_start``,
and ``preempt``/``complete`` close the segment into a
:class:`~repro.jobs.job.SegmentAccounting` whose node-second identities
hold.
"""

import math

import pytest

from repro.jobs import MalleableExecution, RigidExecution
from repro.jobs.job import Job, JobType
from repro.util.errors import InvariantViolation


def _rigid():
    job = Job(
        job_id=1,
        job_type=JobType.RIGID,
        submit_time=0.0,
        size=8,
        runtime=10_000.0,
        estimate=12_000.0,
        setup_time=100.0,
    )
    return RigidExecution(job, interval=3000.0, cost=600.0)


def _ondemand():
    job = Job(
        job_id=2,
        job_type=JobType.ONDEMAND,
        submit_time=0.0,
        size=8,
        runtime=10_000.0,
        estimate=12_000.0,
    )
    return RigidExecution(job, interval=math.inf, cost=0.0)


def _malleable():
    job = Job(
        job_id=3,
        job_type=JobType.MALLEABLE,
        submit_time=0.0,
        size=8,
        min_size=2,
        runtime=10_000.0,
        estimate=12_000.0,
        setup_time=100.0,
    )
    return MalleableExecution(job)


MODELS = pytest.mark.parametrize(
    "make", [_rigid, _ondemand, _malleable], ids=["rigid", "ondemand", "malleable"]
)


def _identities(acc):
    acc.validate()
    assert acc.allocated == pytest.approx(acc.setup + acc.compute + acc.checkpoint)
    assert acc.compute == pytest.approx(acc.retained + acc.lost)


@MODELS
def test_segment_lifecycle_contract(make):
    ex = make()
    job = ex.job
    assert ex.segment_start is None
    ex.start_segment(500.0, job.size)
    assert ex.segment_start == 500.0
    assert ex.nodes == job.size
    assert ex.finish_time() > 500.0
    assert ex.predicted_finish() >= ex.finish_time() - 1e-6
    assert ex.preemption_loss(4000.0) >= 0.0

    preempt_at = 500.0 + 0.5 * (ex.finish_time() - 500.0)
    acc = ex.preempt(preempt_at)
    _identities(acc)
    assert acc.allocated == pytest.approx((preempt_at - 500.0) * job.size)
    assert ex.segment_start == 500.0  # survives the close

    ex.start_segment(20_000.0, job.size)
    assert ex.segment_start == 20_000.0
    end = ex.finish_time()
    done = ex.complete(end)
    _identities(done)
    assert acc.retained + done.retained == pytest.approx(job.work_node_seconds)


@MODELS
def test_checkpoint_query(make):
    ex = make()
    ex.start_segment(0.0, ex.job.size)
    last = ex.last_checkpoint_completion_at_or_before(ex.finish_time() - 1.0)
    if ex.job.is_rigid:
        assert last == pytest.approx(100.0 + 3 * 3600.0)
    else:  # malleable jobs and on-demand jobs never checkpoint
        assert last is None


@MODELS
def test_predict_wall_covers_a_fresh_start(make):
    ex = make()
    wall = ex.predict_wall(ex.job.size)
    ex.start_segment(0.0, ex.job.size)
    assert wall == pytest.approx(ex.predicted_finish())
    assert wall >= ex.finish_time() - 1e-6


@pytest.mark.parametrize("make", [_rigid, _ondemand], ids=["rigid", "ondemand"])
def test_rigid_rejects_wrong_size_start(make):
    ex = make()
    with pytest.raises(InvariantViolation):
        ex.start_segment(0.0, ex.job.size - 1)
    assert ex.segment_start is None


def test_malleable_accounting_never_checkpoints_or_loses():
    ex = _malleable()
    ex.start_segment(0.0, 4)
    ex.resize(1000.0, 8)
    acc = ex.preempt(2000.0)
    assert acc.checkpoint == 0.0
    assert acc.lost == 0.0
    assert acc.retained == acc.compute
