"""Tests for the unified instrumentation layer (:mod:`repro.obs`).

Covers the three pillars — metrics registry, span tracer, trace
export — plus the wiring contracts that make them trustworthy:

* span nesting depths and ring-buffer truncation (property-tested);
* registry snapshot determinism and exact totals under thread races;
* a golden Perfetto/Chrome trace-event document for a tiny 3-job
  simulation (regenerate with ``REPRO_UPDATE_GOLDEN=1``);
* the ``campaign run --trace`` CLI end-to-end: a 2-cell grid must
  produce a loadable trace whose ``sim.pass`` spans nest under their
  ``campaign.cell`` spans.
"""

import json
import os
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.mechanisms import Mechanism
from repro.jobs.checkpoint import CheckpointModel
from repro.jobs.job import Job, JobType, NoticeClass
from repro.obs import (
    DISABLED,
    MetricsRegistry,
    NullRegistry,
    NullTracer,
    Observability,
    Tracer,
    disable,
    enabled_obs,
    get_obs,
)
from repro.obs.export import (
    events_from_schedlog,
    events_from_spans,
    load_trace,
    render_summary,
    trace_data,
    write_trace_data,
)
from repro.sim.config import SimConfig
from repro.sim.simulator import Simulation

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def cfg():
    return SimConfig(
        system_size=100,
        checkpoint=CheckpointModel.disabled(),
        validate_invariants=True,
    )


def tiny_trace():
    return [
        Job(job_id=1, job_type=JobType.RIGID, submit_time=0.0, size=100,
            runtime=10000.0, estimate=12000.0, setup_time=100.0),
        Job(job_id=2, job_type=JobType.ONDEMAND, submit_time=5000.0, size=40,
            runtime=1000.0, estimate=1000.0,
            notice_class=NoticeClass.ACCURATE, notice_time=3500.0,
            estimated_arrival=5000.0),
        Job(job_id=3, job_type=JobType.MALLEABLE, submit_time=11000.0,
            size=60, min_size=12, runtime=500.0, estimate=500.0),
    ]


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_gauge_histogram_basics(self):
        reg = MetricsRegistry()
        reg.counter("a.b.c").inc()
        reg.counter("a.b.c").inc(4)
        reg.gauge("a.g").set(7.5)
        reg.histogram("a.h").observe(0.5)
        snap = reg.snapshot()
        assert snap["counters"] == {"a.b.c": 5}
        assert snap["gauges"] == {"a.g": 7.5}
        h = snap["histograms"]["a.h"]
        assert h["count"] == 1 and h["min"] == h["max"] == 0.5

    def test_same_name_shares_object(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.histogram("h") is reg.histogram("h")

    def test_snapshot_skips_idle_metrics(self):
        reg = MetricsRegistry()
        reg.counter("never.hit")
        reg.histogram("never.observed")
        snap = reg.snapshot()
        assert snap["counters"] == {} and snap["histograms"] == {}

    def test_histogram_bucket_upper_bound_inclusive(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", bounds=[1.0, 10.0])
        for v in (1.0, 10.0, 99.0):
            h.observe(v)
        assert h.counts == [1, 1, 1]  # <=1, <=10, overflow
        d = h.to_dict()
        assert d["buckets"] == {"1": 1, "10": 1, "+inf": 1}
        assert d["p50"] == 10.0  # bucket upper bound
        assert d["max"] == 99.0

    def test_merge_dict_folds_counters_and_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(2)
        b.counter("c").inc(3)
        a.histogram("h").observe(0.01)
        b.histogram("h").observe(0.02)
        a.merge_dict(b.snapshot())
        snap = a.snapshot()
        assert snap["counters"]["c"] == 5
        assert snap["histograms"]["h"]["count"] == 2
        assert snap["histograms"]["h"]["max"] == 0.02

    def test_null_registry_shares_noop_objects(self):
        reg = NullRegistry()
        c = reg.counter("anything")
        assert c is reg.counter("something.else")
        c.inc(10**6)  # no state anywhere
        assert reg.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}
        }

    def test_threaded_increments_are_exact(self):
        """Snapshot totals are exact under racing writer threads."""
        reg = MetricsRegistry()
        n_threads, n_iter = 8, 2_000

        def work():
            c = reg.counter("t.hits")
            h = reg.histogram("t.lat")
            for _ in range(n_iter):
                c.inc()
                h.observe(0.001)

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = reg.snapshot()
        assert snap["counters"]["t.hits"] == n_threads * n_iter
        assert snap["histograms"]["t.lat"]["count"] == n_threads * n_iter
        # determinism: re-snapshotting an unchanged registry is stable
        assert json.dumps(snap, sort_keys=True) == json.dumps(
            reg.snapshot(), sort_keys=True
        )


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_nesting_depths(self):
        tr = Tracer()
        with tr.span("outer"):
            assert tr.current_depth() == 1
            with tr.span("inner"):
                assert tr.current_depth() == 2
        depth = {r.name: r.depth for r in tr.records()}
        assert depth == {"inner": 1, "outer": 0}
        # inner completes first (append-on-exit)
        assert [r.name for r in tr.records()] == ["inner", "outer"]

    def test_attrs_and_thread_id(self):
        tr = Tracer()
        with tr.span("s", key="k", n=3):
            pass
        rec = tr.records()[0]
        assert dict(rec.attrs) == {"key": "k", "n": 3}
        assert rec.thread_id == threading.get_ident()

    def test_depth_restored_after_exception(self):
        tr = Tracer()
        with pytest.raises(ValueError):
            with tr.span("boom"):
                raise ValueError
        assert tr.current_depth() == 0
        assert tr.records()[0].name == "boom"

    @settings(max_examples=50, deadline=None)
    @given(
        capacity=st.integers(min_value=1, max_value=64),
        n_spans=st.integers(min_value=0, max_value=200),
    )
    def test_ring_buffer_truncation(self, capacity, n_spans):
        """The ring keeps the newest ``capacity`` spans and accounts for
        every drop — for any (capacity, load) combination."""
        tr = Tracer(capacity=capacity)
        for i in range(n_spans):
            with tr.span(f"s{i}"):
                pass
        kept = tr.records()
        assert len(kept) == min(capacity, n_spans)
        assert tr.n_started == n_spans
        assert tr.n_dropped == max(0, n_spans - capacity)
        # the survivors are exactly the newest spans, oldest first
        expect = [f"s{i}" for i in range(max(0, n_spans - capacity), n_spans)]
        assert [r.name for r in kept] == expect

    def test_null_tracer_is_free_and_empty(self):
        tr = NullTracer()
        with tr.span("x", a=1):
            assert tr.current_depth() == 0
        assert tr.records() == [] and tr.n_dropped == 0


# ----------------------------------------------------------------------
# Global bundle
# ----------------------------------------------------------------------
class TestGlobalBundle:
    def test_default_is_disabled_singleton(self):
        assert get_obs() is DISABLED
        assert not get_obs().enabled

    def test_enabled_obs_scopes_and_restores(self):
        assert get_obs() is DISABLED
        with enabled_obs() as obs:
            assert get_obs() is obs and obs.enabled
            obs.counter("x").inc()
            assert obs.snapshot()["counters"] == {"x": 1}
        assert get_obs() is DISABLED

    def test_enabled_obs_restores_on_raise(self):
        with pytest.raises(RuntimeError):
            with enabled_obs():
                raise RuntimeError
        assert get_obs() is DISABLED

    def test_ingest_absorbs_foreign_events_and_metrics(self):
        obs = Observability()
        obs.ingest(
            [{"name": "s", "ph": "X", "ts": 0, "dur": 1, "pid": 9, "tid": 1}],
            {"counters": {"c": 4}, "gauges": {}, "histograms": {}},
        )
        assert obs.foreign_events[0]["pid"] == 9
        assert obs.snapshot()["counters"]["c"] == 4
        doc = trace_data(obs)
        assert any(e.get("pid") == 9 for e in doc["traceEvents"])


# ----------------------------------------------------------------------
# Export
# ----------------------------------------------------------------------
def _normalize(doc):
    """Strip run-dependent fields (timing, pids, tids) for goldening."""
    out = {"displayTimeUnit": doc["displayTimeUnit"], "traceEvents": []}
    for e in sorted(
        doc["traceEvents"],
        key=lambda e: (str(e.get("ph")), float(e.get("ts", 0.0)),
                       str(e.get("name"))),
    ):
        e = dict(e)
        for key in ("ts", "dur"):
            if key in e:
                e[key] = 0
        e["pid"] = 0
        e["tid"] = 0
        out["traceEvents"].append(e)
    metrics = doc["otherData"]["metrics"]
    out["metrics"] = {
        "counters": metrics["counters"],
        # histogram timings vary run to run; keep only the exact counts
        "histogram_counts": {
            name: h["count"] for name, h in metrics["histograms"].items()
        },
    }
    return out


class TestExport:
    def test_events_from_spans_structure(self):
        tr = Tracer()
        with tr.span("sim.pass", t=1.0):
            pass
        events = events_from_spans(tr.records(), pid=7, process_name="p")
        meta, x = events
        assert meta == {
            "name": "process_name", "ph": "M", "pid": 7, "tid": 0,
            "args": {"name": "p"},
        }
        assert x["ph"] == "X" and x["cat"] == "sim"
        assert x["args"] == {"t": 1.0} and x["dur"] >= 0

    def test_write_load_roundtrip_and_bare_array(self, tmp_path):
        doc = {"traceEvents": [{"ph": "X", "name": "a"}],
               "displayTimeUnit": "ms", "otherData": {}}
        path = tmp_path / "sub" / "t.trace.json"  # parent auto-created
        write_trace_data(path, doc)
        assert load_trace(path)["traceEvents"] == doc["traceEvents"]
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(doc["traceEvents"]))
        assert load_trace(bare)["traceEvents"] == doc["traceEvents"]

    def test_schedlog_events_use_sim_time_track(self):
        from repro.sim.schedlog import LogKind, SchedulerLog

        log = SchedulerLog()
        log.add(3600.0, LogKind.START, 7, nodes=64)
        events = events_from_schedlog(log.entries)
        assert events[0]["ph"] == "M"
        inst = events[1]
        assert inst["ph"] == "i" and inst["ts"] == 3600.0
        assert inst["args"]["job_id"] == 7

    def test_render_summary_lists_spans_and_counters(self):
        with enabled_obs() as obs:
            obs.counter("sim.events.processed").inc(3)
            obs.histogram("lat").observe(0.1)
            with obs.span("sim.pass"):
                pass
            doc = trace_data(obs)
        text = render_summary(doc)
        assert "sim.pass" in text
        assert "sim.events.processed" in text and "lat" in text
        assert render_summary({"traceEvents": [], "otherData": {}}).startswith(
            "(empty trace"
        )

    def test_golden_tiny_sim_trace(self):
        """A 3-job simulation exports a byte-stable (normalized) trace."""
        with enabled_obs() as obs:
            Simulation(
                tiny_trace(), cfg(), Mechanism.parse("CUP&SPAA")
            ).run()
            doc = trace_data(obs, process_name="tiny-sim")
        got = json.dumps(_normalize(doc), indent=2, sort_keys=True) + "\n"
        path = os.path.join(GOLDEN_DIR, "tiny_sim.trace.json")
        if os.environ.get("REPRO_UPDATE_GOLDEN"):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(got)
            pytest.skip("golden tiny_sim.trace.json regenerated")
        assert os.path.exists(path), (
            "golden tiny_sim.trace.json missing — run with "
            "REPRO_UPDATE_GOLDEN=1"
        )
        with open(path, "r", encoding="utf-8") as fh:
            assert got == fh.read(), (
                "normalized trace drifted from golden; if the span/metric "
                "set changed intentionally, REPRO_UPDATE_GOLDEN=1 and "
                "review the diff"
            )


# ----------------------------------------------------------------------
# Simulator wiring
# ----------------------------------------------------------------------
class TestSimWiring:
    def test_disabled_run_records_nothing(self):
        disable()
        result = Simulation(tiny_trace(), cfg(), None).run()
        assert result.events_processed > 0
        assert get_obs().snapshot()["counters"] == {}

    def test_enabled_run_counts_match_result(self):
        with enabled_obs() as obs:
            result = Simulation(tiny_trace(), cfg(), None).run()
            counters = obs.snapshot()["counters"]
        assert counters["sim.events.processed"] == result.events_processed
        assert counters["sim.passes.run"] == result.schedule_passes
        assert counters.get("sim.passes.skipped", 0) == result.passes_skipped
        spans = {r.name for r in obs.tracer.records()}
        assert {"sim.run", "sim.pass"} <= spans

    def test_pass_spans_nest_under_run_span(self):
        with enabled_obs() as obs:
            Simulation(tiny_trace(), cfg(), None).run()
        by_name = {}
        for r in obs.tracer.records():
            by_name.setdefault(r.name, []).append(r)
        (run,) = by_name["sim.run"]
        assert run.depth == 0
        for p in by_name["sim.pass"]:
            assert p.depth == 1
            assert run.start_s <= p.start_s
            assert p.end_s <= run.end_s + 1e-9


# ----------------------------------------------------------------------
# Campaign wiring
# ----------------------------------------------------------------------
class TestCampaignCLI:
    def test_campaign_run_trace_end_to_end(self, tmp_path, capsys):
        """`campaign run --trace` on a 2-cell grid: the trace loads as a
        Chrome trace-event object and every sim.pass span is contained
        in a campaign.cell span."""
        from repro.experiments.cli import campaign_main

        trace_path = tmp_path / "run.trace.json"
        rc = campaign_main([
            "run", "--dir", str(tmp_path / "grid"),
            "--days", "2", "--nodes", "512", "--load", "0.6",
            "--mechanisms", "baseline", "N&PAA", "--seeds", "1",
            "--trace", str(trace_path),
            "--log-decisions", str(tmp_path / "logs"),
        ])
        disable()  # campaign_main enabled the process-global bundle
        assert rc == 0
        doc = load_trace(trace_path)
        x = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        cells = [e for e in x if e["name"] == "campaign.cell"]
        passes = [e for e in x if e["name"] == "sim.pass"]
        assert len(cells) == 2 and passes
        for p in passes:
            assert any(
                c["pid"] == p["pid"]
                and c["ts"] <= p["ts"] + 1e-6
                and p["ts"] + p["dur"] <= c["ts"] + c["dur"] + 1e-6
                for c in cells
            ), "sim.pass span not nested in any campaign.cell span"
        counters = doc["otherData"]["metrics"]["counters"]
        assert counters["campaign.cells.run"] == 2
        assert counters["sim.passes.run"] > 0
        # --log-decisions wrote one JSONL per simulated cell
        logs = sorted((tmp_path / "logs").glob("*.jsonl"))
        assert len(logs) == 2

    def test_obs_summary_cli(self, tmp_path, capsys):
        from repro.experiments.cli import obs_main

        with enabled_obs() as obs:
            obs.counter("sim.events.processed").inc(9)
            with obs.span("sim.pass"):
                pass
            doc = trace_data(obs)
        path = tmp_path / "t.trace.json"
        write_trace_data(path, doc)
        assert obs_main(["summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "sim.pass" in out and "sim.events.processed" in out

    def test_obs_from_decisions_cli(self, tmp_path, capsys):
        from repro.experiments.cli import obs_main
        from repro.sim.schedlog import LogKind, SchedulerLog

        log = SchedulerLog()
        log.add(10.0, LogKind.SUBMIT, 1)
        log.add(20.0, LogKind.START, 1, nodes=4)
        src = tmp_path / "d.jsonl"
        log.write_jsonl(src)
        out = tmp_path / "d.trace.json"
        assert obs_main(["from-decisions", str(src), "-o", str(out)]) == 0
        doc = load_trace(out)
        inst = [e for e in doc["traceEvents"] if e.get("ph") == "i"]
        assert [e["ts"] for e in inst] == [10.0, 20.0]
