"""Simulator-core throughput: incremental scheduling vs full replanning.

The incremental core (PR 5) keeps a shared availability timeline updated
through the simulator's mutation funnel and skips scheduling passes that
provably cannot change a decision; ``SimConfig.force_full_replan=True``
restores the seed behaviour (re-derive every planner input from scratch
inside every pass, never skip).  This benchmark runs synthetic
1k/5k/10k-job scenarios — a near-saturated 4096-node machine packed
with small jobs, so the running set (and therefore the per-pass rebuild
the seed paid for) is large — across mechanisms and both backfill
planners, and asserts the ISSUE floor:

* **>= 3x wall-clock speedup** over ``force_full_replan=True`` at 10k
  jobs (aggregated over the EASY scenarios; typically it is >20x);
* **byte-identical metrics** between the two modes for every scenario
  (``replan_invariant_view`` masks only wall-clock fields and the
  executed/skipped pass counters).

All timings route through :mod:`repro.perf.harness` and land in the
session :class:`~repro.perf.store.PerfStore`
(``benchmarks/out/perf_history.jsonl``), so every CI run extends one
comparable trajectory.  The workload itself
(:func:`repro.perf.scenarios.synth_jobs`) is shared with the
``repro-hybrid perf`` CLI — one definition, one scenario hash.

``REPRO_BENCH_PROFILE=0`` skips the cProfile artifact of the 10k run;
``REPRO_BENCH_STREAM_JOBS`` scales the million-job memory-ceiling
scenario (default 1M jobs, ~8 min — the streamed path's headline
scale).
"""

import cProfile
import json
import os
import pathlib
import pstats
import time

from repro.core.mechanisms import Mechanism
from repro.metrics.breakdown import ondemand_by_notice_class, waste_by_type
from repro.metrics.report import format_table
from repro.metrics.summary import (
    deterministic_view,
    replan_invariant_view,
    summarize,
)
from repro.perf.harness import bench, measure
from repro.perf.record import PerfRecord, canonical_json, current_git_sha
from repro.perf.scenarios import (
    SYSTEM,
    bench_sim_config as _config,
    make_sim_core,
    stream_synth_jobs,
    synth_jobs,
)
from repro.sim.simulator import Simulation
from repro.workload.trace import clone_jobs

from conftest import emit, out_dir, perf_store  # noqa: F401 - fixtures

#: the materialized runs recorded before the simulator became
#: stream-only (shared with tests/test_streaming.py)
REFERENCE = (
    pathlib.Path(__file__).parent.parent
    / "tests" / "golden" / "stream_reference.json"
)

SIZES = (1_000, 5_000, 10_000)
ASSERT_AT = 10_000
SPEEDUP_FLOOR = 3.0
#: EASY scenarios timed at every size (the assertion set)
MECHANISMS = (None, "CUA&SPAA")

#: streamed (generator-backed) scenario scale — the million-job target
STREAM_JOBS = int(os.environ.get("REPRO_BENCH_STREAM_JOBS", "1000000"))
#: *absolute* heap ceiling for streamed runs, independent of trace
#: length: memory is O(in-flight jobs), and the near-saturated synth
#: stream keeps ~2k jobs in flight regardless of n_jobs.  Measured
#: peak is ~4.3 MiB at 100k and ~5.4 MiB at 1M — flat, with >10x
#: headroom under the 64 MiB bound the ROADMAP item asks for.
STREAM_MEMORY_CEILING_BYTES = 64 * 2**20
#: time floor for the streamed path — the laziness must not cost
#: throughput (measured ~24k events/s; CI runners get wide headroom)
STREAM_EVENTS_PER_S_FLOOR = 4_000.0


def _run(jobs, config, mech_name):
    """One timed simulation; returns (measurement, result)."""
    mech = Mechanism.parse(mech_name) if mech_name else None
    holder = {}

    def once():
        result = holder["result"] = Simulation(
            clone_jobs(jobs), config, mech
        ).run()
        return {
            "events_processed": float(result.events_processed),
            "schedule_passes": float(result.schedule_passes),
            "passes_skipped": float(result.passes_skipped),
        }

    m = measure(once, warmup=0, repeat=1)
    return m, holder["result"]


def test_incremental_core_speedup(emit, perf_store):  # noqa: F811
    rows = []
    totals = {}  # n_jobs -> [inc_total, full_total]
    git_sha = current_git_sha()
    for n_jobs in SIZES:
        jobs = synth_jobs(n_jobs)
        for mech_name in MECHANISMS:
            inc_m, inc = _run(jobs, _config(False), mech_name)
            full_m, full = _run(jobs, _config(True), mech_name)
            assert replan_invariant_view(summarize(inc)) == (
                replan_invariant_view(summarize(full))
            ), f"metric drift at n={n_jobs} mech={mech_name}"
            for full_replan, m in ((0, inc_m), (1, full_m)):
                perf_store.append(
                    PerfRecord(
                        scenario="sim_core",
                        params={
                            "n_jobs": n_jobs,
                            "mechanism": mech_name or "",
                            "full_replan": full_replan,
                        },
                        metrics=m.metrics(),
                        git_sha=git_sha,
                        recorded_unix=time.time(),
                    )
                )
            inc_s, full_s = inc_m.wall_time_s, full_m.wall_time_s
            tot = totals.setdefault(n_jobs, [0.0, 0.0])
            tot[0] += inc_s
            tot[1] += full_s
            rows.append(
                [
                    n_jobs,
                    mech_name or "baseline",
                    f"{full_s:.2f}",
                    f"{inc_s:.2f}",
                    f"{full_s / inc_s:.1f}x",
                    inc.schedule_passes,
                    inc.passes_skipped,
                ]
            )
    speedups = {n: t[1] / t[0] for n, t in totals.items()}
    emit(
        "bench_sim_core",
        format_table(
            [
                "jobs",
                "mechanism",
                "full replan s",
                "incremental s",
                "speedup",
                "passes",
                "skipped",
            ],
            rows,
            title=(
                "Simulator core: incremental availability profile + pass "
                f"skipping vs force_full_replan (speedup@10k="
                f"{speedups.get(ASSERT_AT, float('nan')):.1f}x)"
            ),
        ),
    )
    (out_dir() / "bench_sim_core.json").write_text(
        canonical_json(
            {
                "system_size": SYSTEM,
                "speedups": {str(k): v for k, v in speedups.items()},
                "rows": rows,
            }
        )
        + "\n"
    )
    assert speedups[ASSERT_AT] >= SPEEDUP_FLOOR, (
        f"incremental core only {speedups[ASSERT_AT]:.2f}x faster than "
        f"full replanning at {ASSERT_AT} jobs (floor {SPEEDUP_FLOOR}x)"
    )


def test_conservative_planner_speedup(emit, perf_store):  # noqa: F811
    """Conservative backfilling builds its per-pass working profile from
    the shared timeline without sorting; smaller win, same equivalence."""
    jobs = synth_jobs(1_000)
    inc_m, inc = _run(jobs, _config(False, "conservative"), None)
    full_m, full = _run(jobs, _config(True, "conservative"), None)
    inc_s, full_s = inc_m.wall_time_s, full_m.wall_time_s
    assert replan_invariant_view(summarize(inc)) == (
        replan_invariant_view(summarize(full))
    )
    perf_store.append(
        PerfRecord(
            scenario="sim_core",
            params={"n_jobs": 1000, "backfill": "conservative"},
            metrics=inc_m.metrics(),
            git_sha=current_git_sha(),
            recorded_unix=time.time(),
        )
    )
    emit(
        "bench_sim_core_conservative",
        f"conservative backfill, 1k jobs: full={full_s:.2f}s "
        f"incremental={inc_s:.2f}s ({full_s / inc_s:.1f}x)",
    )
    assert inc_s <= full_s * 1.10, (
        "incremental conservative planning slower than full replan: "
        f"{inc_s:.2f}s vs {full_s:.2f}s"
    )


def test_policy_zoo_throughput(emit, perf_store):  # noqa: F811
    """Every registered dispatcher on the 1k-job scenario.

    PRB/EWT and the score policy land in the perf observatory next to
    the legacy orderings: one record per policy under the content-
    addressed ``{"n_jobs": 1000, "policy": <name>}`` params, so each
    policy gets its own trend line.  Also asserts the aging policy's
    cost stays sane — ``prb_ewt`` disables the time-invariance skip,
    so it bounds how much a pass-per-batch policy may cost relative
    to FCFS (generous 10x: CI runners are noisy; the point is to
    catch an accidentally quadratic policy, not 20% drift).
    """
    from repro.sched.registry import policy_names

    rows = []
    walls = {}
    for name in policy_names():
        params = {"n_jobs": 1000, "policy": name}
        record = bench(
            "sim_core",
            params,
            make_sim_core(params),
            store=perf_store,
            warmup=0,
            repeat=1,
        )
        walls[name] = record.metrics["wall_time_s"]
        rows.append(
            [
                name,
                f"{record.metrics['wall_time_s']:.2f}",
                int(record.metrics["schedule_passes"]),
                int(record.metrics["passes_skipped"]),
                f"{record.metrics.get('events_per_s', 0.0):.0f}",
            ]
        )
    emit(
        "bench_sim_core_policy_zoo",
        format_table(
            ["policy", "wall s", "passes", "skipped", "events/s"],
            rows,
            title="Policy zoo at 1k jobs (one perf trend line each)",
        ),
    )
    assert walls["prb_ewt"] <= max(walls["fcfs"], 0.5) * 10.0, (
        f"prb_ewt at {walls['prb_ewt']:.2f}s vs fcfs "
        f"{walls['fcfs']:.2f}s — aging policy cost blew past 10x"
    )


def test_obs_overhead(emit):  # noqa: F811
    """Instrumentation overhead budget on the 10k-job scenario.

    The :mod:`repro.obs` hooks — metric objects, spans, and the
    MemoryProbe's no-op sections — are wired into the simulator
    permanently, so the budget is asserted two ways:

    * **disabled < 2%**: the per-hit cost of the shared no-op metric,
      span, and memory-section objects is microbenchmarked, multiplied
      by the *actual* hook hit counts of the 10k run (taken from an
      enabled run's own counters — an overestimate, since bulk-flushed
      counters are charged per event and every span is charged a
      memory section too), and compared against the run's wall time;
    * **enabled < 10%**: best-of-three wall clock with a live registry
      + tracer vs best-of-three with the disabled default, interleaved
      so machine drift lands on both modes equally.

    Also exports the enabled run's trace + ``obs summary`` text to
    ``benchmarks/out/`` — the CI ``obs-bench`` job uploads both.
    """
    from repro.obs import disable, enabled_obs, get_obs
    from repro.obs.export import render_summary, trace_data, write_trace_data

    jobs = synth_jobs(ASSERT_AT)
    config = _config(False)

    def run_once():
        t0 = time.perf_counter()
        Simulation(clone_jobs(jobs), config, None).run()
        return time.perf_counter() - t0

    run_once()  # warm caches so round 1 is comparable to round 3
    # interleave D/E/D/E so machine drift hits both modes equally
    disabled_times, enabled_times = [], []
    doc = spans_started = None
    for _round in range(3):
        disable()
        disabled_times.append(run_once())
        with enabled_obs() as obs:
            enabled_times.append(run_once())
            spans_started = obs.tracer.n_started
            doc = trace_data(obs, process_name="bench-sim-core-10k")
    disabled_s = min(disabled_times)
    enabled_s = min(enabled_times)

    write_trace_data(out_dir() / "bench_sim_core_10k.trace.json", doc)
    (out_dir() / "bench_sim_core_10k_obs_summary.txt").write_text(
        render_summary(doc) + "\n"
    )

    # null-hook microbenchmark: the only cost the disabled path pays
    null_obs = get_obs()  # disable() above left the DISABLED bundle
    assert not null_obs.enabled
    assert not null_obs.memory.enabled
    n = 200_000
    counter = null_obs.counter("bench.noop")
    t0 = time.perf_counter()
    for _ in range(n):
        counter.inc()
    per_inc_s = (time.perf_counter() - t0) / n
    span = null_obs.span
    t0 = time.perf_counter()
    for _ in range(n):
        with span("bench.noop"):
            pass
    per_span_s = (time.perf_counter() - t0) / n
    section = null_obs.memory.section
    t0 = time.perf_counter()
    for _ in range(n):
        with section("bench.noop"):
            pass
    per_msection_s = (time.perf_counter() - t0) / n

    metrics = doc["otherData"]["metrics"]
    counter_hits = sum(metrics["counters"].values())
    hist_hits = sum(h["count"] for h in metrics["histograms"].values())
    # memory sections fire once per sim.run, but charge one per span
    # as a deliberate overestimate
    disabled_cost_s = (
        (counter_hits + hist_hits) * per_inc_s
        + spans_started * (per_span_s + per_msection_s)
    )
    disabled_frac = disabled_cost_s / disabled_s
    enabled_frac = enabled_s / disabled_s - 1.0
    emit(
        "bench_sim_core_obs_overhead",
        (
            f"obs overhead, 10k jobs: disabled hooks "
            f"{disabled_cost_s * 1e3:.1f}ms of {disabled_s:.2f}s "
            f"({disabled_frac * 100:.2f}%, {counter_hits + hist_hits} "
            f"metric hits + {spans_started} spans incl. null memory "
            f"sections); enabled run "
            f"{enabled_s:.2f}s ({enabled_frac * 100:+.1f}%)"
        ),
    )
    assert disabled_frac < 0.02, (
        f"disabled-path hook cost {disabled_frac * 100:.2f}% of the 10k "
        "run (budget 2%)"
    )
    assert enabled_s <= disabled_s * 1.10, (
        f"enabled instrumentation cost {enabled_frac * 100:.1f}% "
        f"({enabled_s:.2f}s vs {disabled_s:.2f}s; budget 10%)"
    )


def test_streamed_differential_10k(emit):  # noqa: F811
    """Streamed == the recorded materialized reference at 10k jobs.

    The generator-backed path retires jobs at completion and keeps only
    the streaming accumulator; this asserts that the summaries (and the
    notice-class / waste breakdowns) it produces are *byte-identical*
    to the materialized run recorded in
    ``tests/golden/stream_reference.json`` — same canonical JSON, not
    merely close — for the baseline and the full CUA&SPAA stack.
    """
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    config = _config(False)
    rows = []
    for mech_name in MECHANISMS:
        mech = Mechanism.parse(mech_name) if mech_name else None
        st = Simulation(
            stream_synth_jobs(ASSERT_AT), config, mech
        ).run()
        assert st.jobs == [], "streamed run must not retain the trace"
        st_bytes = canonical_json(
            {
                "summary": deterministic_view(summarize(st)),
                "by_notice": [vars(o) for o in ondemand_by_notice_class(st)],
                "waste": waste_by_type(st),
            }
        ).encode()
        case = f"bench_sim_core/10k/{mech_name or 'baseline'}"
        assert st_bytes == canonical_json(reference[case]).encode(), (
            f"streamed summary diverged from the recorded materialized "
            f"reference at {ASSERT_AT} jobs, mech={mech_name or 'baseline'}"
        )
        rows.append(
            [mech_name or "baseline", len(st_bytes), "identical"]
        )
    emit(
        "bench_sim_core_streamed_differential",
        format_table(
            ["mechanism", "summary bytes", "streamed vs reference"],
            rows,
            title=f"Streamed differential at {ASSERT_AT} jobs",
        ),
    )


def _streamed_memory_run(n_jobs, emit, perf_store, label):
    params = {"n_jobs": n_jobs}
    record = bench(
        "sim_core",
        params,
        make_sim_core(params),
        store=perf_store,
        warmup=0,
        repeat=1,
        memory=True,
    )
    peak = record.metrics["tracemalloc_peak_bytes"]
    rate = record.metrics.get("events_per_s", 0.0)
    emit(
        label,
        (
            f"streamed memory ceiling, {n_jobs} jobs: tracemalloc peak "
            f"{peak / 2**20:.1f} MiB "
            f"(ceiling {STREAM_MEMORY_CEILING_BYTES / 2**20:.0f} MiB "
            f"absolute — O(in-flight), not O(trace)), "
            f"peak RSS {record.metrics['peak_rss_bytes'] / 2**20:.0f} MiB, "
            f"wall {record.metrics['wall_time_s']:.1f}s, "
            f"{rate:.0f} events/s (floor {STREAM_EVENTS_PER_S_FLOOR:.0f})"
        ),
    )
    assert peak < STREAM_MEMORY_CEILING_BYTES, (
        f"streamed python-heap peak {peak / 2**20:.1f} MiB exceeds the "
        f"{STREAM_MEMORY_CEILING_BYTES / 2**20:.0f} MiB absolute ceiling "
        f"at {n_jobs} jobs — something is scaling with the trace"
    )
    assert rate >= STREAM_EVENTS_PER_S_FLOOR, (
        f"streamed run at {rate:.0f} events/s is below the "
        f"{STREAM_EVENTS_PER_S_FLOOR:.0f}/s floor at {n_jobs} jobs"
    )


def test_streamed_memory_ceiling_100k(emit, perf_store):  # noqa: F811
    """Streamed 100k: an absolute ceiling, not per-job — the bound
    must not grow with n_jobs."""
    _streamed_memory_run(
        100_000, emit, perf_store, "bench_sim_core_streamed_100k"
    )


def test_streamed_memory_ceiling_1m(emit, perf_store):  # noqa: F811
    """The million-job scenario: the same absolute ceiling at 10x the
    trace length (REPRO_BENCH_STREAM_JOBS scales it for smoke runs)."""
    _streamed_memory_run(
        STREAM_JOBS, emit, perf_store, "bench_sim_core_streamed_1m"
    )


def test_profile_artifact(emit):  # noqa: F811
    """cProfile of the 10k-job incremental run (uploaded by CI)."""
    if os.environ.get("REPRO_BENCH_PROFILE", "1") == "0":
        return
    jobs = synth_jobs(ASSERT_AT)
    config = _config(False)
    profiler = cProfile.Profile()
    profiler.enable()
    result = Simulation(clone_jobs(jobs), config, None).run()
    profiler.disable()
    prof_path = out_dir() / "bench_sim_core_10k.prof"
    profiler.dump_stats(prof_path)
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    with open(out_dir() / "bench_sim_core_10k_profile.txt", "w") as fh:
        stats.stream = fh
        fh.write(
            f"cProfile, incremental 10k-job run "
            f"(events={result.events_processed}, "
            f"passes={result.schedule_passes}, "
            f"skipped={result.passes_skipped})\n"
        )
        stats.print_stats(30)
    emit(
        "bench_sim_core_profile",
        f"cProfile written to {prof_path} "
        f"({result.events_processed} events, "
        f"{result.schedule_passes} passes, "
        f"{result.passes_skipped} skipped)",
    )
