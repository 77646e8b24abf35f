"""Self-tests of the benchmark (not of the package it measures).

Run from the repository root::

    python3 -m pytest -q perfbench/selftest.py

They use tiny workload configurations, so they finish in seconds.
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import pytest  # noqa: E402

import run  # noqa: E402
from checks import Tally, latency_summary, tail_percentile  # noqa: E402
from hostspeed import REFERENCE_S, HostClock, kernel_s  # noqa: E402
from layers import LayerTracer, WorkerWatch  # noqa: E402
from metrics import end_to_end, per_layer  # noqa: E402
from workloads import Fig6Grid, PaperLong, ReportRead  # noqa: E402

TINY_LONG = PaperLong(days=1.0)
TINY_GRID = Fig6Grid(days=0.5, n_seeds=1, mixes=("W1", "W5"), nodes=1024,
                     workers=1)


def _specs() -> dict:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# percentile rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n, want", [
    (0, None), (9, None), (19, None), (20, 50.0), (40, 75.0), (99, 75.0),
    (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0), (9999, 99.0),
    (10000, 99.9),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, want):
    assert tail_percentile(n) == want


def test_latency_summary_reports_sample_count():
    values = [float(i) for i in range(1, 101)]
    out = latency_summary(values)
    assert out == {"n": 100, "p50": 50.0, "tail_pct": 90.0, "tail": 90.0}
    assert latency_summary(values[:5])["p50"] is None


# ----------------------------------------------------------------------
# failure accounting
# ----------------------------------------------------------------------
def test_injected_digest_mismatch_counts_as_failed(tmp_path):
    result = TINY_LONG.run_pass(str(tmp_path), 1, 0, HostClock())
    expected = {op: digest for op, digest, _err in result.outputs}
    victim = sorted(expected)[0]
    expected[victim] = "0" * 16
    tally = Tally(expected)
    tally.check_all(result.outputs)
    assert (tally.attempted, tally.failed) == (7, 1)
    assert not tally.correct
    assert victim in tally.problems[0]


def test_mismatch_across_passes_without_reference():
    tally = Tally()
    tally.check("cell", "aaaa")
    tally.check("cell", "aaaa")
    tally.check("cell", "bbbb")
    assert (tally.attempted, tally.failed) == (3, 1)


def test_injected_cell_error_counts_as_failed(tmp_path, monkeypatch):
    from repro.campaign import executor

    real = executor.run_one

    def flaky(spec, seed, mechanism, *args, **kwargs):
        if mechanism is not None and mechanism.name == "CUP&SPAA":
            raise RuntimeError("injected cell error")
        return real(spec, seed, mechanism, *args, **kwargs)

    monkeypatch.setattr(executor, "run_one", flaky)
    monkeypatch.chdir(tmp_path)
    result = TINY_GRID.run_pass(".", 1, 0, HostClock())
    tally = Tally()
    tally.check_all(result.outputs)
    # one CUP&SPAA cell per mix; the run and the report still finish
    assert tally.failed == 2
    assert tally.attempted == 2 * 7 + 1
    assert any("injected cell error" in p for p in tally.problems)


# ----------------------------------------------------------------------
# host-speed correction
# ----------------------------------------------------------------------
def _pass(wall_s: float, host_s: float, sequential: bool = True):
    from workloads import PassResult

    return PassResult(wall_s=wall_s, n_cells=2, op_s=[wall_s / 2] * 2,
                      op_ids=["a", "b"], outputs=[], op_host_s=[host_s] * 2,
                      host_s=host_s, sequential=sequential)


@pytest.mark.parametrize("sequential", [True, False])
def test_slow_host_phase_is_scaled_to_reference_seconds(sequential):
    # the same work, once at reference speed and twice on a host running
    # at half speed: every pass reads the same in reference seconds
    plain = [_pass(1.0, REFERENCE_S, sequential),
             _pass(2.0, 2 * REFERENCE_S, sequential),
             _pass(2.0, 2 * REFERENCE_S, sequential)]
    out = end_to_end(plain, [(0.5, REFERENCE_S), (1.0, 2 * REFERENCE_S),
                             (0.7, REFERENCE_S)], 1024, Tally())
    values, extra = out["values"], out["extra"]
    assert values["ref_wall_s"] == pytest.approx(1.0)
    assert values["ref_op_s_p50"] == pytest.approx(0.5)
    assert values["ref_cells_per_min"] == pytest.approx(120.0)
    assert values["setup_s"] == pytest.approx(0.5)
    assert extra["wall_s"][0] == pytest.approx(2.0)
    assert extra["setup_wall_s"][0] == pytest.approx(0.7)


def test_parallel_calibration_reaps_its_children():
    assert 0.0 < kernel_s(processes=2, repeats=1) < 10.0
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# ----------------------------------------------------------------------
# every metric in BENCHMARK.json is measured and printed with its unit
# ----------------------------------------------------------------------
def _tiny_results(tmp_path, monkeypatch, trace: bool):
    monkeypatch.chdir(tmp_path)
    spool = tmp_path / "spool"
    spool.mkdir()
    watch = WorkerWatch(str(spool))
    results = {}
    for workload in (TINY_LONG, TINY_GRID, ReportRead(n_seeds=2)):
        data = str(tmp_path / workload.name)
        workload.setup(data, 1)
        plain = [workload.run_pass(data, 1, 0, HostClock())]
        plain[0].worker_rss_kib = watch.take_worker_rss_kib()
        tally = Tally()
        tally.check_all(plain[0].outputs)
        assert tally.correct, tally.problems
        if trace:
            tracer = LayerTracer(str(spool))
            tracer.install()
            try:
                traced = [workload.run_pass(data, 1, 1, HostClock())]
            finally:
                tracer.uninstall()
            tracer.collect_workers()
            metrics = per_layer(workload, plain, traced, tracer.stats, tally)
        else:
            metrics = end_to_end(plain, [(0.5, REFERENCE_S)], 1024, tally)
        results[workload.name] = {"workload": workload.name, "tally": tally,
                                  "metrics": metrics}
    return results


@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_printed_with_its_unit(tmp_path, monkeypatch,
                                                     trace):
    specs = _specs()
    key = "per_layer" if trace else "end_to_end"
    for result in _tiny_results(tmp_path, monkeypatch, trace).values():
        out = io.StringIO()
        with redirect_stdout(out):
            line = run.emit(result, specs, trace)
        printed = out.getvalue().splitlines()
        for metric in specs[key]:
            name, unit = metric["name"], metric["unit"]
            assert line["metrics"][name]["unit"] == unit
            assert isinstance(line["metrics"][name]["value"], float | int)
            assert any(row.split()[:1] == [name] and row.endswith(unit)
                       for row in printed), name
        assert set(line) == {"correct", "attempted", "failed", "metrics"}


def test_tracer_restores_the_original_entry_points():
    from repro.experiments import runner
    from repro.sim.simulator import Simulation

    before = (Simulation.run, runner.summarize)
    tracer = LayerTracer(HERE)
    tracer.install()
    assert Simulation.run is not before[0]
    tracer.uninstall()
    assert (Simulation.run, runner.summarize) == before
