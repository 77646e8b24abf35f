"""Streaming campaign pipeline: equivalence, ordering, batched dispatch.

The streamed path (generator-backed cells off the shared
:class:`~repro.workload.trace_cache.TraceCache`, batched pool dispatch,
per-worker scratch reuse) must be a pure execution-strategy change:
every store a campaign produces matches, cell for cell, the store the
materialized pre-cache path produced, as recorded in
``golden/stream_reference.json`` — across mechanisms, scheduling
policies, checkpoint/failure axes, SWF-backed cells and trace-kind
payloads.
"""

import pytest

from repro.campaign import CampaignSpec, ResultStore, run_campaign
from repro.campaign.executor import _batch_size, trace_affine_order
from repro.metrics.summary import deterministic_view
from repro.sched.registry import policy_names
from repro.workload.trace_cache import reset_trace_cache

from stream_reference import check, store_view

SWF_TEXT = """\
; MaxNodes: 512
1  100  5 3600 64  -1 -1 64 7200 -1 1 10 -1 2 -1 -1 -1 -1
2  200  1 1800 128 -1 -1 128 3600 -1 1 11 -1 3 -1 -1 -1 -1
4  400  2 900  32  -1 -1 32 -1   -1 1 12 -1 -1 -1 -1 -1 -1
"""

SMALL = {
    "name": "streamed",
    "days": 1,
    "target_load": 0.6,
    "system_size": 512,
    "mechanism": [None, "N&PAA"],
    "seeds": [1, 2],
}

ALL_MECHANISMS = (
    None,
    "N&PAA",
    "N&SPAA",
    "CUA&PAA",
    "CUA&SPAA",
    "CUP&PAA",
    "CUP&SPAA",
)


def small_spec(**overrides) -> CampaignSpec:
    return CampaignSpec.from_dict({**SMALL, **overrides})


@pytest.fixture(autouse=True)
def fresh_cache():
    reset_trace_cache()
    yield
    reset_trace_cache()


def check_store(case: str, spec: CampaignSpec) -> None:
    """Run *spec* and compare every cell with the recorded reference."""
    store = ResultStore()
    assert run_campaign(spec, store=store).n_failed == 0
    check(case, store_view(store))


class TestStreamedStoreEquivalence:
    def test_small_grid_byte_identical(self):
        check_store("campaign/small_grid", small_spec())

    @pytest.mark.parametrize("mechanism", ALL_MECHANISMS)
    def test_every_mechanism(self, mechanism):
        spec = small_spec(mechanism=[mechanism], seeds=[1])
        check_store(f"campaign/mechanism/{mechanism or 'baseline'}", spec)

    @pytest.mark.parametrize("policy", policy_names())
    def test_every_policy(self, policy):
        spec = small_spec(policy=[policy], mechanism=[None], seeds=[1])
        check_store(f"campaign/policy/{policy}", spec)

    def test_checkpoint_and_failure_axes(self):
        # failure cells exercise the lazily built failure RNG;
        # checkpoint variants share one cached trace
        spec = small_spec(
            mechanism=["CUP&SPAA"],
            checkpoint_multiplier=[0.5, 2.0],
            failure_mtbf_days=[0.0, 30.0],
            seeds=[1],
        )
        check_store("campaign/checkpoint_failure", spec)

    def test_swf_backed_cells(self, tmp_path):
        log = tmp_path / "log.swf"
        log.write_text(SWF_TEXT)
        spec = small_spec(trace_file=[str(log)], seeds=[1, 2])
        check_store("campaign/swf", spec)

    def test_trace_kind_payloads_match(self):
        spec = small_spec(kind="trace", mechanism=[None])
        check_store("campaign/trace_kind", spec)


class TestRunOneIterable:
    def test_bare_generator_matches_list(self):
        from repro.experiments.runner import run_one
        from repro.workload.spec import WorkloadSpec
        from repro.workload.theta import generate_trace

        spec = WorkloadSpec(days=1.0, system_size=512, target_load=0.6)
        jobs = generate_trace(spec, seed=3)
        as_list = run_one(spec, 3, None, jobs=generate_trace(spec, seed=3))
        as_gen = run_one(spec, 3, None, jobs=iter(jobs))
        assert deterministic_view(as_list) == deterministic_view(as_gen)


class TestTraceAffineOrder:
    def test_preserves_cell_set(self):
        cells = small_spec(
            checkpoint_multiplier=[0.5, 1.0], seeds=[1, 2, 3]
        ).expand()
        ordered = trace_affine_order(cells)
        assert sorted(c.key() for c in ordered) == sorted(
            c.key() for c in cells
        )

    def test_groups_shared_traces_adjacently(self):
        from repro.workload.trace_cache import spec_hash

        cells = small_spec(
            checkpoint_multiplier=[0.5, 1.0], seeds=[1, 2, 3]
        ).expand()
        ordered = trace_affine_order(cells)
        seen = []
        for cell in ordered:
            ident = (spec_hash(cell.workload_spec()), cell.seed)
            if ident in seen:
                # a trace already visited must be the most recent one:
                # each group is contiguous
                assert seen[-1] == ident
            else:
                seen.append(ident)
        # 3 seeds x one workload spec -> 3 groups of 4 cells
        assert len(seen) == 3

    def test_invalid_cells_are_kept_not_raised(self):
        cells = small_spec(
            spec_overrides={"min_size": 100_000}
        ).expand()
        ordered = trace_affine_order(cells)
        assert len(ordered) == len(cells)

    def test_is_deterministic(self):
        cells = small_spec(seeds=[3, 1, 2]).expand()
        assert [c.key() for c in trace_affine_order(cells)] == [
            c.key() for c in trace_affine_order(list(reversed(cells)))
        ]


class TestBatchedDispatch:
    def test_batch_size_bounds(self):
        assert _batch_size(0, 4) == 1
        assert _batch_size(1, 4) == 1
        assert _batch_size(64, 2) == 8  # capped
        assert _batch_size(16, 2) == 2
        assert 1 <= _batch_size(1000, 1) <= 8

    def test_pool_batched_run_matches_serial(self):
        spec = small_spec(mechanism=list(ALL_MECHANISMS), seeds=[1, 2, 3])
        # big enough that the automatic sizing ships multi-cell batches
        assert _batch_size(spec.n_cells, 2) >= 2
        serial = ResultStore()
        run_campaign(spec, store=serial, workers=1)
        pooled = ResultStore()
        result = run_campaign(spec, store=pooled, workers=2)
        assert result.n_failed == 0
        assert pooled.canonical_bytes() == serial.canonical_bytes()

    def test_pool_failed_cells_still_isolated(self):
        # an invalid cell inside a batch errors alone; batchmates finish
        spec = small_spec(
            system_size=[512, 1],  # size-1 machine: min_size > system
            mechanism=list(ALL_MECHANISMS),
        )
        todo = trace_affine_order(spec.expand())
        n = _batch_size(len(todo), 2)
        assert n >= 2
        batches = [todo[i:i + n] for i in range(0, len(todo), n)]
        assert any(len({c.system_size for c in b}) == 2 for b in batches)
        store = ResultStore()
        result = run_campaign(spec, store=store, workers=2)
        assert result.n_failed == 14  # the system_size=1 half
        assert result.n_ran == 28
        ok = [r for r in store.records() if r.status == "ok"]
        assert len(ok) == 14
