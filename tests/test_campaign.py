"""Tests for the campaign engine: spec expansion, store, executor, report."""

import json

import pytest

from repro.campaign import (
    CampaignCell,
    CampaignSpec,
    CellRecord,
    ResultStore,
    diff_text,
    report_text,
    run_campaign,
    status_text,
)
from repro.experiments.cli import main as cli_main
from repro.experiments.config import ExperimentConfig
from repro.jobs.checkpoint import CheckpointModel
from repro.sim.config import SimConfig
from repro.sim.failures import FailureModel
from repro.util.errors import ConfigurationError
from repro.util.timeconst import DAY
from repro.workload.spec import theta_spec

#: small-but-real grid: 2 mechanisms x 2 seeds on a tiny machine
SMALL = {
    "name": "small",
    "days": 2,
    "target_load": 0.6,
    "system_size": 512,
    "mechanism": [None, "N&PAA"],
    "seeds": [1, 2],
}


def small_spec(**overrides) -> CampaignSpec:
    return CampaignSpec.from_dict({**SMALL, **overrides})


class TestSpecExpansion:
    def test_axes_cross_product(self):
        spec = small_spec(backfill_mode=["easy", "conservative"])
        assert spec.n_cells == 2 * 2 * 2
        assert len(spec.expand()) == spec.n_cells

    def test_expansion_deterministic(self):
        a = [c.key() for c in small_spec().expand()]
        b = [c.key() for c in small_spec().expand()]
        assert a == b
        assert len(set(a)) == len(a)

    def test_hashes_order_independent(self):
        """Permuting axis order changes cell order, never cell identity."""
        fwd = small_spec(mechanism=[None, "N&PAA"], seeds=[1, 2])
        rev = small_spec(mechanism=["N&PAA", None], seeds=[2, 1])
        assert [c.key() for c in fwd.expand()] != [
            c.key() for c in rev.expand()
        ]
        assert {c.key() for c in fwd.expand()} == {
            c.key() for c in rev.expand()
        }

    def test_key_covers_every_axis(self):
        base = small_spec().expand()[0]
        for field, other in [
            ("days", 3.0),
            ("target_load", 0.7),
            ("system_size", 1024),
            ("notice_mix", "W1"),
            ("mechanism", "CUA&SPAA"),
            ("backfill_mode", "conservative"),
            ("checkpoint_multiplier", 2.0),
            ("failure_mtbf_days", 30.0),
            ("seed", 99),
            ("kind", "trace"),
            ("trace_file", "some.swf"),
        ]:
            from dataclasses import replace

            assert replace(base, **{field: other}).key() != base.key(), field

    def test_cell_config_round_trip(self):
        cell = small_spec().expand()[-1]
        again = CampaignCell.from_config(
            json.loads(json.dumps(cell.config()))
        )
        assert again == cell
        assert again.key() == cell.key()

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec.from_dict({**SMALL, "bogus_axis": [1]})

    def test_from_dict_rejects_bad_mechanism_and_mix(self):
        with pytest.raises(ConfigurationError):
            small_spec(mechanism=["NOPE&PAA"])
        with pytest.raises(ConfigurationError):
            small_spec(notice_mix=["W9"])

    def test_mechanism_all_shorthand(self):
        assert len(small_spec(mechanism="all").mechanism) == 6
        spec = small_spec(mechanism="all+baseline")
        assert spec.mechanism[0] is None and len(spec.mechanism) == 7

    def test_cell_materializes_spec_and_sim(self):
        cell = small_spec(
            backfill_mode="conservative",
            checkpoint_multiplier=2.0,
            failure_mtbf_days=30.0,
            spec_overrides={"n_projects": 17},
        ).expand()[0]
        wspec, sim = cell.workload_spec(), cell.sim_config()
        assert wspec.system_size == sim.system_size == 512
        assert wspec.n_projects == 17
        assert sim.backfill_mode == "conservative"
        assert sim.checkpoint.interval_multiplier == 2.0
        assert sim.failures.enabled


class TestStore:
    def test_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "c")
        record = CellRecord(
            key="abc", config={"seed": 1}, status="ok", summary=None,
            payload={"x": 1}, elapsed_s=0.5,
        )
        store.put(record)
        again = ResultStore(tmp_path / "c")
        assert again.get("abc").payload == {"x": 1}
        assert "abc" in again and len(again) == 1

    def test_torn_tail_line_dropped(self, tmp_path):
        store = ResultStore(tmp_path / "c")
        store.put(CellRecord(key="k1", config={}, status="ok"))
        with (tmp_path / "c" / "results.jsonl").open("a") as fh:
            fh.write('{"key": "k2", "config": {}, "st')  # torn write
        again = ResultStore(tmp_path / "c")
        assert "k1" in again and "k2" not in again

    def test_spec_conflict_rejected(self, tmp_path):
        store = ResultStore(tmp_path / "c")
        store.write_spec(small_spec().to_dict())
        store.write_spec(small_spec().to_dict())  # idempotent
        with pytest.raises(ConfigurationError):
            store.write_spec(small_spec(name="other").to_dict())


class TestExecutor:
    def test_cold_run_then_full_cache_hit(self, tmp_path):
        spec = small_spec()
        first = run_campaign(spec, directory=tmp_path / "c")
        assert (first.n_cached, first.n_ran, first.n_failed) == (0, 4, 0)
        second = run_campaign(spec, directory=tmp_path / "c")
        assert (second.n_cached, second.n_ran) == (4, 0)
        a = first.records[0].summary_metrics()
        b = second.records[0].summary_metrics()
        assert a == b

    def test_resume_after_interruption(self, tmp_path):
        spec = small_spec()
        run_campaign(spec, directory=tmp_path / "c")
        results = tmp_path / "c" / "results.jsonl"
        lines = results.read_text().splitlines()
        results.write_text("\n".join(lines[:2]) + "\n")  # lose 2 of 4 cells
        resumed = run_campaign(spec, directory=tmp_path / "c")
        assert (resumed.n_cached, resumed.n_ran) == (2, 2)
        assert len(resumed.records) == 4

    def test_parallel_matches_serial(self, tmp_path):
        spec = small_spec()
        serial = run_campaign(spec, directory=tmp_path / "s")
        parallel = run_campaign(spec, directory=tmp_path / "p", workers=2)
        for r_s, r_p in zip(serial.records, parallel.records):
            assert r_s.key == r_p.key
            from repro.metrics.summary import deterministic_view

            assert deterministic_view(dict(r_s.summary)) == (
                deterministic_view(dict(r_p.summary))
            )

    def test_failed_cell_does_not_kill_campaign(self, tmp_path):
        # min_size > system_size passes spec validation only at
        # materialization time, so the worker raises inside the cell
        spec = small_spec(spec_overrides={"min_size": 100_000})
        result = run_campaign(spec, directory=tmp_path / "c")
        assert result.n_failed == result.n_total == 4
        assert all(not r.ok and r.error for r in result.records)

    def test_failed_cells_cached_then_retried(self, tmp_path):
        bad = small_spec(spec_overrides={"min_size": 100_000})
        first = run_campaign(bad, directory=tmp_path / "c")
        assert first.n_failed == 4
        second = run_campaign(bad, directory=tmp_path / "c")
        assert second.n_ran == 0  # failures are remembered, not re-run
        third = run_campaign(
            bad, directory=tmp_path / "c", retry_failed=True
        )
        assert third.n_ran == 4 and third.n_failed == 4

    def test_trace_kind_produces_payload(self, tmp_path):
        spec = small_spec(kind="trace", mechanism=[None])
        result = run_campaign(spec, directory=tmp_path / "c")
        assert result.n_failed == 0
        for record in result.records:
            assert record.summary is None
            assert record.payload["n_jobs"] > 0
            assert isinstance(record.payload["weekly_ondemand"], list)

    def test_content_addressing_shares_cells_across_campaigns(
        self, tmp_path
    ):
        store_dir = tmp_path / "shared"
        run_campaign(small_spec(), directory=store_dir)
        grown = small_spec(seeds=[1, 2, 3])  # superset grid, same store
        result = run_campaign(grown, directory=store_dir, store=ResultStore(store_dir))
        assert (result.n_cached, result.n_ran) == (4, 2)

    def test_grow_in_place(self, tmp_path):
        d = tmp_path / "c"
        run_campaign(small_spec(), directory=d)
        grown = small_spec(seeds=[1, 2, 3])
        with pytest.raises(ConfigurationError):
            run_campaign(grown, directory=d)  # guard still on by default
        result = run_campaign(grown, directory=d, allow_spec_update=True)
        assert (result.n_cached, result.n_ran) == (4, 2)
        # the stored spec now reflects the grown grid
        assert ResultStore(d).read_spec()["seeds"] == [1, 2, 3]

    def test_duplicate_cells_run_once(self, tmp_path):
        spec = small_spec(mechanism=[None, None], seeds=[1, 1])
        result = run_campaign(spec, directory=tmp_path / "c")
        assert result.n_total == 1
        assert result.n_ran == 1
        assert len(result.records) == 1


class TestRetryFilter:
    BAD = {"spec_overrides": {"min_size": 100_000}}

    def test_filter_narrows_retry(self, tmp_path):
        bad = small_spec(**self.BAD)
        first = run_campaign(bad, directory=tmp_path / "c")
        assert first.n_failed == 4
        # retry only the N&PAA failures: 2 of the 4 cells re-run
        result = run_campaign(
            bad,
            directory=tmp_path / "c",
            retry_failed=True,
            retry_filter={"mechanism": "N&PAA"},
        )
        assert result.n_ran == 2

    def test_filter_by_seed(self, tmp_path):
        bad = small_spec(**self.BAD)
        run_campaign(bad, directory=tmp_path / "c")
        result = run_campaign(
            bad,
            directory=tmp_path / "c",
            retry_failed=True,
            retry_filter={"seed": 1},
        )
        assert result.n_ran == 2

    def test_unmatched_filter_retries_nothing(self, tmp_path):
        bad = small_spec(**self.BAD)
        run_campaign(bad, directory=tmp_path / "c")
        result = run_campaign(
            bad,
            directory=tmp_path / "c",
            retry_failed=True,
            retry_filter={"mechanism": "CUP&SPAA"},
        )
        assert result.n_ran == 0

    def test_filter_cli_parsing(self):
        from repro.experiments.cli import _parse_filters

        parsed = _parse_filters(["mechanism=N&PAA", "seed=2", "x=y"])
        assert parsed == {"mechanism": "N&PAA", "seed": 2, "x": "y"}
        assert _parse_filters(["mechanism=baseline"]) == {"mechanism": None}
        assert _parse_filters(None) is None
        with pytest.raises(SystemExit):
            _parse_filters(["no-equals-sign"])


class TestGc:
    def test_compact_drops_superseded_lines(self, tmp_path):
        d = tmp_path / "c"
        bad = small_spec(spec_overrides={"min_size": 100_000})
        run_campaign(bad, directory=d)
        run_campaign(bad, directory=d, retry_failed=True)
        results = d / "results.jsonl"
        assert len(results.read_text().splitlines()) == 8  # 4 + 4 retries
        stats = ResultStore(d).compact()
        assert (stats.n_kept, stats.n_superseded) == (4, 4)
        assert len(results.read_text().splitlines()) == 4
        # still a loadable store with the same records
        assert len(ResultStore(d)) == 4

    def test_compact_drop_errors_makes_cells_rerun(self, tmp_path):
        d = tmp_path / "c"
        bad = small_spec(spec_overrides={"min_size": 100_000})
        run_campaign(bad, directory=d)
        stats = ResultStore(d).compact(drop_errors=True)
        assert stats.n_errors_dropped == 4 and stats.n_kept == 0
        # the healthy grid now recomputes everything
        result = run_campaign(
            small_spec(), directory=d, allow_spec_update=True
        )
        assert result.n_ran == 4 and result.n_failed == 0

    def test_compact_memory_store(self):
        store = ResultStore()
        store.put(CellRecord(key="k", config={}, status="error", error="x"))
        stats = store.compact(drop_errors=True)
        assert stats.n_errors_dropped == 1 and len(store) == 0

    def test_gc_cli(self, tmp_path, capsys):
        d = str(tmp_path / "c")
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SMALL))
        assert cli_main(["campaign", "run", "--spec", str(spec_path), "--dir", d]) == 0
        capsys.readouterr()
        assert cli_main(["campaign", "gc", "--dir", d]) == 0
        out = capsys.readouterr().out
        assert "kept 4 records" in out


def write_demo_swf(path, n_jobs=60, n_groups=6):
    """A tiny plausible SWF log (one line per job, 18 fields)."""
    lines = ["; demo SWF for tests"]
    t = 0.0
    for i in range(1, n_jobs + 1):
        t += 120.0 + (i % 7) * 60.0
        runtime = 600.0 + (i % 5) * 900.0
        procs = [64, 128, 256][i % 3]
        group = i % n_groups
        lines.append(
            f"{i} {t:.0f} 1 {runtime:.0f} {procs} -1 -1 {procs} "
            f"{runtime * 1.5:.0f} -1 1 {group + 100} -1 {group} -1 -1 -1 -1"
        )
    path.write_text("\n".join(lines) + "\n")


class TestTraceFileAxis:
    def spec(self, tmp_path, **overrides):
        swf = tmp_path / "demo.swf"
        write_demo_swf(swf)
        # the WorkloadSpec still materializes for SWF cells (it carries
        # the §IV-A retype fractions), so system_size must satisfy its
        # validation (>= the generator's default 128-node size floor)
        # even though no synthetic jobs are drawn
        return small_spec(
            trace_file=str(swf),
            trace_options={"cores_per_node": 64},
            system_size=256,
            **overrides,
        )

    def test_swf_cells_simulate(self, tmp_path):
        spec = self.spec(tmp_path, seeds=[1], mechanism=[None, "N&PAA"])
        result = run_campaign(spec, directory=tmp_path / "c")
        assert result.n_failed == 0 and result.n_total == 2
        for record in result.records:
            assert record.config["trace_file"].endswith("demo.swf")
            assert record.summary_metrics().n_jobs > 0

    def test_swf_cells_deterministic_across_runs(self, tmp_path):
        spec = self.spec(tmp_path, seeds=[1], mechanism=[None])
        a = run_campaign(spec, directory=tmp_path / "a")
        b = run_campaign(spec, directory=tmp_path / "b")
        from repro.metrics.summary import deterministic_view

        # decision latency is wall-clock measurement, not simulation state
        assert deterministic_view(a.records[0].summary) == (
            deterministic_view(b.records[0].summary)
        )

    def test_swf_axis_alongside_synthetic(self, tmp_path):
        """trace_file is an axis: None and a log path sweep together."""
        swf = tmp_path / "demo.swf"
        write_demo_swf(swf)
        spec = small_spec(
            trace_file=[None, str(swf)], seeds=[1], mechanism=[None]
        )
        cells = spec.expand()
        assert spec.n_cells == 2
        assert {c.trace_file for c in cells} == {None, str(swf)}
        # synthetic cell hashes exactly as a spec without the axis
        legacy = small_spec(seeds=[1], mechanism=[None]).expand()[0]
        synth = next(c for c in cells if c.trace_file is None)
        assert synth.key() == legacy.key()

    def test_swf_trace_kind_characterizes(self, tmp_path):
        spec = self.spec(tmp_path, kind="trace", seeds=[1], mechanism=[None])
        result = run_campaign(spec, directory=tmp_path / "c")
        assert result.n_failed == 0
        payload = result.records[0].payload
        assert payload["n_jobs"] == 60
        assert sum(payload["type_shares"].values()) == pytest.approx(1.0)

    def test_trace_options_require_trace_file(self):
        with pytest.raises(ConfigurationError, match="trace_options"):
            small_spec(trace_options={"cores_per_node": 64})

    def test_trace_file_cli(self, tmp_path, capsys):
        swf = tmp_path / "demo.swf"
        write_demo_swf(swf)
        d = str(tmp_path / "c")
        assert (
            cli_main(
                [
                    "campaign", "run", "--dir", d, "--nodes", "256",
                    "--mechanisms", "baseline", "--seeds", "1",
                    "--trace-file", str(swf), "--cores-per-node", "64",
                ]
            )
            == 0
        )
        assert "1 ran" in capsys.readouterr().out


class TestFig7Campaign:
    def config(self):
        from repro.core.mechanisms import ALL_MECHANISMS

        return ExperimentConfig(
            spec=theta_spec(days=2, system_size=512, target_load=0.6),
            sim=SimConfig(system_size=512),
            mechanisms=[ALL_MECHANISMS[0]],
            n_traces=1,
        )

    def test_fig7_runs_on_campaign_engine(self, tmp_path):
        from repro.experiments import figures

        config = self.config()
        out = figures.fig7_checkpointing(
            config, multipliers=(0.5, 2.0), campaign_dir=tmp_path / "f7"
        )
        assert set(out["results"]) == {0.5, 2.0}
        # a second invocation is pure cache hits
        cspec = config.to_campaign_spec(name="fig7")
        from dataclasses import replace as dreplace

        cspec = dreplace(cspec, checkpoint_multiplier=(0.5, 2.0))
        again = run_campaign(cspec, directory=tmp_path / "f7", store=ResultStore(tmp_path / "f7"))
        assert again.n_ran == 0 and again.n_cached == again.n_total == 2

    def test_fig7_multiplier_axis_beats_checkpoint_override(self):
        """The checkpoint_multiplier axis scales even when sim_overrides
        carries the other checkpoint knobs."""
        from dataclasses import replace as dreplace

        from repro.jobs.checkpoint import CheckpointModel

        config = self.config()
        config = config.with_sim(
            dreplace(
                config.sim,
                checkpoint=CheckpointModel(min_interval_s=120.0),
            )
        )
        cspec = config.to_campaign_spec(name="x")
        cspec = dreplace(cspec, checkpoint_multiplier=(2.0,))
        sim = cspec.expand()[0].sim_config()
        assert sim.checkpoint.interval_multiplier == 2.0
        assert sim.checkpoint.min_interval_s == 120.0


class TestReport:
    def test_status_and_report_text(self, tmp_path):
        spec = small_spec()
        run_campaign(spec, directory=tmp_path / "c")
        store = ResultStore(tmp_path / "c")
        status = status_text(store.read_spec(), store.records())
        assert "4/4 cells done" in status
        report = report_text(store.records())
        assert "N&PAA" in report and "baseline" in report

    def test_diff_detects_varying_axis(self, tmp_path):
        run_campaign(small_spec(), directory=tmp_path / "easy")
        run_campaign(
            small_spec(backfill_mode="conservative"),
            directory=tmp_path / "cons",
        )
        a = ResultStore(tmp_path / "easy").records()
        b = ResultStore(tmp_path / "cons").records()
        text = diff_text(a, b, a_name="easy", b_name="cons")
        assert "varying: backfill_mode" in text
        assert "delta" in text and "N&PAA" in text

    def test_status_counts_only_current_spec_cells(self, tmp_path):
        d = tmp_path / "c"
        bad = small_spec(spec_overrides={"min_size": 100_000})
        assert run_campaign(bad, directory=d).n_failed == 4
        # grow into a healthy grid: the 4 stale error records must not
        # leak into the new spec's pending/failed counts
        good = small_spec()
        run_campaign(good, directory=d, allow_spec_update=True)
        store = ResultStore(d)
        status = status_text(store.read_spec(), store.records())
        assert "4/4 cells done, 0 failed, 0 pending" in status

    @pytest.mark.parametrize("exhibit", ["table2", "compare", "fig6", "fig7"])
    def test_fig6_raises_on_failed_cells(self, monkeypatch, exhibit):
        # every seed-averaged exhibit runs on the campaign engine and
        # refuses to average over a grid with a failed cell
        import repro.campaign.executor as executor_mod
        from repro.core.mechanisms import ALL_MECHANISMS
        from repro.experiments import figures
        from repro.workload.spec import W5

        def boom(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(executor_mod, "run_one", boom)
        config = ExperimentConfig(
            spec=theta_spec(days=2, system_size=512, target_load=0.6),
            sim=SimConfig(system_size=512),
            mechanisms=[ALL_MECHANISMS[0]],
            n_traces=1,
        )
        drivers = {
            "table2": lambda: figures.table2_baseline(config),
            "compare": lambda: figures.headline_comparison(config),
            "fig6": lambda: figures.fig6_mechanisms(config, mixes=[W5]),
            "fig7": lambda: figures.fig7_checkpointing(
                config, multipliers=(1.0,)
            ),
        }
        with pytest.raises(RuntimeError, match="cells failed"):
            drivers[exhibit]()

    def test_diff_no_overlap(self, tmp_path):
        run_campaign(small_spec(), directory=tmp_path / "a")
        run_campaign(
            small_spec(days=3, backfill_mode="conservative"),
            directory=tmp_path / "b",
        )
        a = ResultStore(tmp_path / "a").records()
        b = ResultStore(tmp_path / "b").records()
        # both days and backfill vary jointly -> still comparable
        assert diff_text(a, b)


#: (spec overrides, sim overrides) the grid callers bridge to campaigns
BRIDGE_CASES = {
    "knobs": ({"n_projects": 13}, {"allow_reserved_loans": False}),
    # s -> days -> s is off by one ulp for this MTBF
    "mtbf_ulp": (
        {},
        {
            "failures": FailureModel(
                enabled=True, node_mtbf_s=28444641.774354108
            )
        },
    ),
    "table2": ({}, {"flexible_malleable": False}),
    "conservative_failures_noshow": (
        {"ondemand_noshow_frac": 0.3},
        {
            "backfill_mode": "conservative",
            "failures": FailureModel(
                enabled=True, node_mtbf_s=0.5 * 365 * DAY
            ),
        },
    ),
    "checkpoint_quarter": (
        {},
        {"checkpoint": CheckpointModel().with_multiplier(0.25)},
    ),
    "policy_params": (
        {},
        {"policy": "score", "policy_params": {"wait_weight": 2.0}},
    ),
}


class TestExperimentConfigBridge:
    @pytest.mark.parametrize("case", list(BRIDGE_CASES))
    def test_to_campaign_spec_round_trips_overrides(self, case):
        spec_kw, sim_kw = BRIDGE_CASES[case]
        config = ExperimentConfig(
            spec=theta_spec(
                days=2, system_size=512, target_load=0.6, **spec_kw
            ),
            sim=SimConfig(system_size=512, **sim_kw),
            n_traces=2,
        )
        cspec = config.to_campaign_spec(name="bridge")
        cell = cspec.expand()[0]
        assert cell.workload_spec() == config.spec
        assert cell.sim_config() == config.sim

    def test_fig6_runs_on_campaign_engine(self, tmp_path):
        from repro.core.mechanisms import ALL_MECHANISMS
        from repro.experiments import figures
        from repro.workload.spec import W5

        config = ExperimentConfig(
            spec=theta_spec(days=2, system_size=512, target_load=0.6),
            sim=SimConfig(system_size=512),
            mechanisms=[ALL_MECHANISMS[0]],
            n_traces=1,
        )
        out = figures.fig6_mechanisms(
            config, mixes=[W5], campaign_dir=tmp_path / "fig6"
        )
        assert "W5" in out["sweep"]
        # second invocation is served from the store
        result = run_campaign(
            config.to_campaign_spec(name="fig6", mixes=[W5]),
            directory=tmp_path / "fig6",
        )
        assert result.n_ran == 0 and result.n_cached == result.n_total

    def test_fig5_runs_on_campaign_engine(self, tmp_path):
        from repro.experiments import figures

        config = ExperimentConfig(
            spec=theta_spec(days=2, system_size=512, target_load=0.6),
            sim=SimConfig(system_size=512),
            n_traces=2,
        )
        out = figures.fig5_burstiness(config, campaign_dir=tmp_path / "f5")
        assert set(out["series"]) == set(config.seeds()[:3])


class TestCampaignCli:
    ARGS = [
        "campaign", "run", "--days", "2", "--load", "0.6", "--nodes",
        "512", "--mechanisms", "baseline", "N&PAA", "--seeds", "1", "2",
    ]

    def test_run_status_report(self, tmp_path, capsys):
        d = str(tmp_path / "c")
        assert cli_main([*self.ARGS, "--dir", d]) == 0
        out = capsys.readouterr().out
        assert "0 cached, 4 ran" in out
        assert cli_main([*self.ARGS, "--dir", d]) == 0
        assert "4 cached, 0 ran" in capsys.readouterr().out
        assert cli_main(["campaign", "status", "--dir", d]) == 0
        assert "4/4 cells done" in capsys.readouterr().out
        assert cli_main(["campaign", "report", "--dir", d]) == 0
        assert "N&PAA" in capsys.readouterr().out

    def test_run_from_spec_file(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(SMALL))
        d = str(tmp_path / "c")
        assert cli_main(["campaign", "run", "--spec", str(path), "--dir", d]) == 0
        assert "4 ran" in capsys.readouterr().out

    def test_diff_cli(self, tmp_path, capsys):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert cli_main([*self.ARGS, "--dir", a]) == 0
        assert (
            cli_main(
                [*self.ARGS, "--dir", b, "--backfill", "conservative"]
            )
            == 0
        )
        capsys.readouterr()
        assert cli_main(["campaign", "report", "--dir", a, "--diff", b]) == 0
        assert "varying: backfill_mode" in capsys.readouterr().out
