"""The streaming simulation core: generator-backed workloads, the O(1)
metrics funnel, and the at-scale correctness fixes that ride along.

Covers the three equivalence contracts the streaming path promises:

* ``iter_jobs()`` / ``iter_swf()`` yield *exactly* the jobs their
  materializing counterparts build — same ids, same fields, same order;
* a streamed simulation — and a list-fed one, which streams the sorted
  list — produces byte-identical summaries, breakdowns, and scheduler
  decision logs to the materialized run recorded in
  ``golden/stream_reference.json`` (the simulator's former up-front
  seeding mode), for the baseline, every paper mechanism and every
  policy, while a streamed run retains no job list
  (``result.jobs == []``);
* the two bugfix satellites: ``EventQueue.pop_batch`` must not split
  same-instant batches at month-scale timestamps (the seed's absolute
  ``1e-9`` tolerance did, past ``t ~ 1e8`` s), and
  ``LatencyStats.from_samples`` percentiles are nearest-rank
  (``int(p*n)`` indexed one past the rank whenever ``p*n`` was
  integral).
"""

import math
import os
import random

import pytest

from repro.core.mechanisms import ALL_MECHANISMS
from repro.core.reservation import ReservationBook
from repro.jobs.job import JobType
from repro.sched.registry import policy_names
from repro.metrics.breakdown import utilization_series
from repro.metrics.summary import deterministic_view, summarize
from repro.obs.registry import Histogram
from repro.sim.config import SimConfig
from repro.sim.engine import EventQueue
from repro.sim.events import EventType
from repro.sim.simulator import LatencyStats, Simulation
from repro.util.errors import ConfigurationError
from repro.util.timeconst import HOUR
from repro.workload.spec import theta_spec
from repro.workload.stream import as_stream
from repro.workload.swf import iter_swf, load_swf, stream_swf
from repro.workload.theta import ThetaWorkloadGenerator

from stream_reference import check, sim_view

#: small but fully featured: every job type, every notice class, a few
#: hundred jobs — enough for preemptions, loans, and shrinks to occur
SPEC = theta_spec(days=4, target_load=0.85)

_ONLY = os.environ.get("REPRO_POLICY")
STREAM_POLICIES = tuple(
    n for n in policy_names() if not _ONLY or n == _ONLY
)


def _sim_config(**overrides) -> SimConfig:
    return SimConfig(system_size=SPEC.system_size, **overrides)


# ----------------------------------------------------------------------
# Workload producers: lazy == materialized, job for job
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 7, 2022])
def test_iter_jobs_matches_generate(seed):
    materialized = ThetaWorkloadGenerator(SPEC, seed=seed).generate()
    streamed = list(ThetaWorkloadGenerator(SPEC, seed=seed).iter_jobs())
    assert len(materialized) > 100  # non-trivial trace
    assert streamed == materialized  # dataclass equality: every field


def test_iter_jobs_declares_the_spec_notice_horizon():
    gen = ThetaWorkloadGenerator(SPEC, seed=0)
    stream = gen.iter_jobs()
    assert stream.notice_horizon_s == (
        SPEC.notice_lead_range_s[1] + SPEC.late_window_s
    )
    # the declared horizon really bounds submit - notice
    for job in stream:
        if job.notice_time is not None:
            assert (
                job.submit_time - job.notice_time
                <= stream.notice_horizon_s + 1e-9
            )


SWF_TEXT = """\
; SWF header comment
; UnixStartTime: 0

1 1000 10 3600 64 0 0 64 7200 0 1 11 21 31 0 0 0 0
2 1010 -1 -1 32 0 0 32 -1 0 1 12 22 32 0 0 0 0
3 1200 5 30 16 0 0 16 10 0 1 13 23 -1 0 0 0 0
4 1300 0 7200 128 0 0 128 3600 0 1 14 24 34 0 0 0 0
"""


def test_iter_swf_matches_load_swf(tmp_path):
    path = tmp_path / "trace.swf"
    path.write_text(SWF_TEXT)
    materialized = load_swf(str(path))
    streamed = list(iter_swf(str(path)))
    assert streamed == materialized
    # job 2 is cleaned (non-positive runtime); ids stay dense
    assert [j.job_id for j in materialized] == [0, 1, 2]
    # submit times are normalized to the first *kept* job's submit
    assert materialized[0].submit_time == 0.0
    assert materialized[1].submit_time == 200.0
    # job 3's estimate (10 s) undershoots the cleaned runtime
    assert materialized[1].runtime == 60.0  # min_runtime_s clamp
    assert materialized[1].estimate == 60.0
    # group id -1 falls back to the user id
    assert materialized[1].project == 13
    # SWF jobs carry no notices: the stream admits at the event clock
    assert stream_swf(str(path)).notice_horizon_s == 0.0
    assert list(iter_swf(str(path), max_jobs=2)) == materialized[:2]


# ----------------------------------------------------------------------
# Streamed and list-fed runs == the recorded materialized reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "mechanism",
    [None] + list(ALL_MECHANISMS),
    ids=lambda m: str(m) if m else "baseline",
)
def test_streamed_matches_materialized(mechanism):
    """A streamed run and a list-fed run each reproduce the recorded
    materialized run byte for byte: summary, breakdowns, run counters,
    and the full decision transcript (same starts, preemptions, and
    reservations, in the same order)."""
    config = _sim_config(log_decisions=True)
    jobs = ThetaWorkloadGenerator(SPEC, seed=3).generate()
    listed = Simulation(jobs, config, mechanism).run()
    st = Simulation(
        ThetaWorkloadGenerator(SPEC, seed=3).iter_jobs(), config, mechanism
    ).run()
    assert st.jobs == []  # the stream was never materialized
    # the caller's list comes back, its jobs mutated in place
    assert len(listed.jobs) == len(jobs)
    assert all(a is b for a, b in zip(listed.jobs, jobs))
    assert all(j.stats.end_time is not None for j in jobs if not j.no_show)
    case = f"sim/mechanism/{mechanism.name if mechanism else 'baseline'}"
    check(case, sim_view(listed))
    check(case, sim_view(st))


@pytest.mark.parametrize("policy", STREAM_POLICIES)
def test_streamed_matches_materialized_every_policy(policy):
    """The reference holds for every *registered* policy — aging
    policies (time-varying keys) exercise the pass-skip interplay
    hardest.  A policy registered after the reference was recorded
    needs its case recorded (``REPRO_UPDATE_GOLDEN=1``)."""
    spec = theta_spec(days=2, target_load=0.85)
    config = SimConfig(
        system_size=spec.system_size, log_decisions=True, policy=policy
    )
    mechanism = ALL_MECHANISMS[0]
    listed = Simulation(
        ThetaWorkloadGenerator(spec, seed=9).generate(), config, mechanism
    ).run()
    st = Simulation(
        ThetaWorkloadGenerator(spec, seed=9).iter_jobs(), config, mechanism
    ).run()
    assert st.jobs == []
    check(f"sim/policy/{policy}", sim_view(listed))
    check(f"sim/policy/{policy}", sim_view(st))


@pytest.mark.parametrize("backfill_mode", ["easy", "conservative"])
@pytest.mark.parametrize("mechanism", ALL_MECHANISMS, ids=str)
def test_streamed_run_keeps_no_closed_reservation(
    mechanism, backfill_mode, monkeypatch
):
    """The reservation book holds only in-flight on-demand jobs: once
    a streamed run drains, every reservation it opened is gone and no
    node is still held."""
    opened = []
    create = ReservationBook.create

    def counting_create(book, od_job_id, *args, **kwargs):
        opened.append(od_job_id)
        return create(book, od_job_id, *args, **kwargs)

    monkeypatch.setattr(ReservationBook, "create", counting_create)
    spec = theta_spec(days=2, target_load=0.85)
    sim = Simulation(
        ThetaWorkloadGenerator(spec, seed=9).iter_jobs(),
        SimConfig(system_size=spec.system_size, backfill_mode=backfill_mode),
        mechanism,
    )
    sim.run()
    book = sim.coordinator.book
    assert opened
    assert len(book) == 0
    assert book.total_held == 0


def test_any_iterable_is_accepted_as_a_stream():
    st = Simulation(
        iter(ThetaWorkloadGenerator(SPEC, seed=5).generate()), _sim_config()
    ).run()
    assert st.jobs == []
    check("sim/any_iterable", sim_view(st))


def test_list_order_does_not_matter():
    """A list is sorted by submit time before it streams, so a shuffled
    copy of the trace runs exactly like the generator's sorted one."""
    jobs = ThetaWorkloadGenerator(SPEC, seed=5).generate()
    random.Random(0).shuffle(jobs)
    check("sim/any_iterable", sim_view(Simulation(jobs, _sim_config()).run()))


def test_unsorted_stream_is_rejected():
    jobs = ThetaWorkloadGenerator(SPEC, seed=0).generate()
    jobs[10], jobs[40] = jobs[40], jobs[10]
    with pytest.raises(ConfigurationError, match="sorted by submit"):
        Simulation(as_stream(jobs), _sim_config()).run()


def test_streamed_result_rejects_per_job_consumers():
    st = Simulation(
        ThetaWorkloadGenerator(SPEC, seed=0).iter_jobs(), _sim_config()
    ).run()
    # segment records retire with their jobs; only a list-fed run keeps
    # them (as result.jobs)
    with pytest.raises(ValueError):
        utilization_series(st)
    # the accumulator carries the configured threshold
    assert st.accumulator.instant_threshold_s == (
        _sim_config().instant_threshold_s
    )


def _legacy_summary(result) -> dict:
    """The per-job grouping ``summarize`` used before the accumulator
    became its only source: a test oracle over a list-fed run's jobs."""
    threshold = result.accumulator.instant_threshold_s
    noshows = [j for j in result.jobs if j.no_show]
    jobs = [j for j in result.jobs if not j.no_show]
    by_type = {t: [j for j in jobs if j.job_type is t] for t in JobType}
    rigid = by_type[JobType.RIGID]
    malleable = by_type[JobType.MALLEABLE]
    ondemand = by_type[JobType.ONDEMAND]
    capacity = result.system_size * result.horizon
    allocated = sum(j.stats.allocated_node_seconds for j in jobs)
    lost = sum(j.stats.lost_node_seconds for j in jobs)
    wasted_setup = sum(j.stats.wasted_setup_node_seconds for j in jobs)
    ckpt = sum(j.stats.checkpoint_node_seconds for j in jobs)
    instant = [
        j
        for j in ondemand
        if j.stats.first_start is not None
        and j.start_delay <= threshold + 1e-9
    ]

    def mean(values):
        vals = [v for v in values if not math.isnan(v)]
        return sum(vals) / len(vals) if vals else math.nan

    def ratio(group, hit):
        return sum(1 for j in group if hit(j)) / len(group) if group else 0.0

    return {
        "mechanism": result.mechanism,
        "n_jobs": len(jobs),
        "n_rigid": len(rigid),
        "n_malleable": len(malleable),
        "n_ondemand": len(ondemand),
        "n_noshow": len(noshows),
        "avg_turnaround_h": mean([j.turnaround for j in jobs]) / HOUR,
        "avg_turnaround_rigid_h": mean([j.turnaround for j in rigid]) / HOUR,
        "avg_turnaround_malleable_h": (
            mean([j.turnaround for j in malleable]) / HOUR
        ),
        "avg_turnaround_ondemand_h": (
            mean([j.turnaround for j in ondemand]) / HOUR
        ),
        "instant_start_rate": (
            len(instant) / len(ondemand) if ondemand else 0.0
        ),
        "avg_ondemand_delay_s": mean([j.start_delay for j in ondemand]),
        "preemption_ratio_rigid": ratio(rigid, lambda j: j.stats.preemptions),
        "preemption_ratio_malleable": ratio(
            malleable, lambda j: j.stats.preemptions
        ),
        "shrink_ratio_malleable": ratio(malleable, lambda j: j.stats.shrinks),
        "system_utilization": max(0.0, allocated - lost - wasted_setup)
        / capacity,
        "allocated_frac": allocated / capacity,
        "lost_compute_frac": lost / capacity,
        "wasted_setup_frac": wasted_setup / capacity,
        "checkpoint_frac": ckpt / capacity,
        "reserved_idle_frac": result.reserved_idle_node_seconds / capacity,
        "makespan_h": result.makespan / HOUR,
        "lease_resumes": result.lease_resumes,
        "lease_expands": result.lease_expands,
        "events_processed": result.events_processed,
        "schedule_passes": result.schedule_passes,
        "passes_skipped": result.passes_skipped,
    }


def test_materialized_summary_dispatch_matches_legacy_grouping():
    """On a list-fed run, the accumulator summary agrees with the legacy
    per-job grouping (:func:`_legacy_summary`).  Agreement is to
    float-summation-order precision: the accumulator folds in finish
    order, the legacy grouping in job-id order, so sums can differ by an
    ULP (exactness is pinned where it matters — by the recorded
    reference above)."""
    result = Simulation(
        ThetaWorkloadGenerator(SPEC, seed=9).generate(),
        _sim_config(),
        ALL_MECHANISMS[0],
    ).run()
    via_acc = deterministic_view(summarize(result))
    via_jobs = _legacy_summary(result)
    assert set(via_acc) == set(via_jobs)
    for key, value in via_jobs.items():
        got = via_acc[key]
        if isinstance(value, float):
            assert got == pytest.approx(value, rel=1e-12, abs=1e-12), key
        else:
            assert got == value, key


# ----------------------------------------------------------------------
# Satellite fix: pop_batch tie tolerance at large timestamps
# ----------------------------------------------------------------------
def test_pop_batch_keeps_ulp_ties_together_at_large_times():
    # a month-scale replay clock: ulp(3e8) ~ 6e-8 > the seed's absolute
    # 1e-9 tolerance, so two same-instant events computed by different
    # float expressions used to land in *separate* batches
    q = EventQueue()
    t = 3.0e8
    q.push(t, EventType.JOB_SUBMIT, job_id=1)
    q.push(math.nextafter(t, math.inf), EventType.JOB_SUBMIT, job_id=2)
    batch = q.pop_batch()
    assert [e.payload["job_id"] for e in batch] == [1, 2]
    assert len(q) == 0


def test_pop_batch_still_splits_genuinely_distinct_times():
    q = EventQueue()
    t = 3.0e8
    q.push(t, EventType.JOB_SUBMIT, job_id=1)
    q.push(t + 1.0, EventType.JOB_SUBMIT, job_id=2)
    assert len(q.pop_batch()) == 1
    assert len(q.pop_batch()) == 1


def test_pop_batch_small_time_tolerance_unchanged():
    # at ordinary trace times the seed's 1e-9 still applies
    q = EventQueue()
    q.push(100.0, EventType.JOB_SUBMIT, job_id=1)
    q.push(100.0 + 5e-10, EventType.JOB_SUBMIT, job_id=2)
    q.push(100.0 + 1e-6, EventType.JOB_SUBMIT, job_id=3)
    assert len(q.pop_batch()) == 2
    assert len(q.pop_batch()) == 1


def test_pop_batch_reuses_the_out_list():
    q = EventQueue()
    q.push(1.0, EventType.JOB_SUBMIT, job_id=1)
    q.push(2.0, EventType.JOB_SUBMIT, job_id=2)
    out = []
    first = q.pop_batch(out)
    assert first is out and len(out) == 1
    second = q.pop_batch(out)
    assert second is out and len(out) == 1
    assert out[0].payload["job_id"] == 2


# ----------------------------------------------------------------------
# Satellite fix: nearest-rank percentiles
# ----------------------------------------------------------------------
def test_latency_percentiles_are_nearest_rank():
    s = LatencyStats.from_samples([1.0, 2.0, 3.0, 4.0])
    # p50 of 4 samples is the 2nd smallest; int(0.5 * 4) indexed the 3rd
    assert s.p50_s == 2.0
    assert s.max_s == 4.0

    s = LatencyStats.from_samples([float(i) for i in range(1, 101)])
    assert (s.p50_s, s.p95_s, s.p99_s) == (50.0, 95.0, 99.0)

    s = LatencyStats.from_samples([7.0])
    assert (s.p50_s, s.p95_s, s.p99_s, s.max_s) == (7.0, 7.0, 7.0, 7.0)


def test_from_histogram_agrees_with_from_samples_on_bucket_bounds():
    # samples that sit exactly on bucket bounds: the two constructors
    # must agree (both are ceil-rank); before the fix from_samples
    # returned the next sample up whenever p*n was integral
    samples = [1.0, 2.0, 3.0, 4.0]
    h = Histogram("t", bounds=(1.0, 2.0, 3.0, 4.0))
    for v in samples:
        h.observe(v)
    exact = LatencyStats.from_samples(samples)
    approx = LatencyStats.from_histogram(h)
    assert approx.count == exact.count
    assert approx.p50_s == exact.p50_s == 2.0
    assert approx.max_s == exact.max_s
    assert approx.mean_s == exact.mean_s
