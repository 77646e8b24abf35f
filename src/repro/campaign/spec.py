"""Declarative campaign specifications.

A :class:`CampaignSpec` names the *axes* of a scenario grid — horizon,
offered load, system size, notice mix, mechanism, backfill mode,
checkpoint-interval multiplier, failure MTBF, and trace seeds — and
expands their cross product into a deterministic list of
:class:`CampaignCell` s.  Each cell is a complete, self-contained
description of one simulation (or trace-characterization) run: its
canonical config dict hashes to a stable content address, which is how
the result store recognises already-computed cells across runs,
processes, and machines.

Specs are plain data: ``CampaignSpec.from_dict`` accepts the JSON shape
(scalars or lists per axis), so campaign files are hand-writable::

    {
      "name": "backfill-shootout",
      "days": 7,
      "mechanism": ["N&PAA", "CUA&SPAA"],
      "backfill_mode": ["easy", "conservative"],
      "seeds": [2022, 2023, 2024]
    }
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.mechanisms import ALL_MECHANISMS, Mechanism
from repro.jobs.checkpoint import CheckpointModel
from repro.sched.registry import resolve_dispatcher
from repro.sim.config import SimConfig
from repro.sim.failures import FailureModel
from repro.util.errors import ConfigurationError
from repro.util.timeconst import DAY
from repro.workload.spec import NOTICE_MIXES, NoticeMix, WorkloadSpec, theta_spec

#: a notice mix is referenced by Table III name or embedded as a dict
MixLike = Union[str, Dict[str, object]]

CELL_KINDS = ("sim", "trace")


def canonical_json(value: object) -> str:
    """Deterministic JSON: sorted keys, no whitespace variance."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _resolve_mix(mix: MixLike) -> NoticeMix:
    if isinstance(mix, str):
        try:
            return NOTICE_MIXES[mix]
        except KeyError:
            raise ConfigurationError(
                f"unknown notice mix {mix!r}; expected one of "
                f"{sorted(NOTICE_MIXES)} or an embedded mix dict"
            ) from None
    return NoticeMix.from_dict(mix)


def _coerce_overrides(
    defaults: object, overrides: Mapping[str, object]
) -> Dict[str, object]:
    """Coerce JSON-shaped override values back to dataclass field types.

    JSON has no tuples, so list values targeting tuple-typed fields are
    converted; everything else passes through untouched.
    """
    out: Dict[str, object] = {}
    fields = type(defaults).__dataclass_fields__  # type: ignore[attr-defined]
    for key, value in overrides.items():
        if key not in fields:
            raise ConfigurationError(
                f"unknown override {key!r} for {type(defaults).__name__}"
            )
        if isinstance(value, list) and isinstance(
            getattr(defaults, key), tuple
        ):
            value = tuple(value)
        out[key] = value
    return out


@dataclass(frozen=True)
class CampaignCell:
    """One fully-specified point of a campaign grid.

    All fields are JSON-scalar (or JSON-safe dicts), so a cell pickles
    cheaply to worker processes and hashes deterministically.
    """

    days: float
    target_load: float
    system_size: int
    notice_mix: MixLike
    mechanism: Optional[str]
    backfill_mode: str
    checkpoint_multiplier: float
    #: per-node MTBF in days for failure injection; 0 disables failures
    failure_mtbf_days: float
    seed: int
    #: "sim" runs the simulator; "trace" only characterizes the workload
    kind: str = "sim"
    #: extra WorkloadSpec / SimConfig fields (JSON-shaped), applied after
    #: the axis fields; part of the hashed identity
    spec_overrides: Mapping[str, object] = field(default_factory=dict)
    sim_overrides: Mapping[str, object] = field(default_factory=dict)
    #: path to a real Standard Workload Format log; ``None`` generates the
    #: synthetic Theta trace.  SWF cells apply the paper's §IV-A type
    #: assignment (seeded by ``seed``) on top of the parsed rigid jobs.
    trace_file: Optional[str] = None
    #: ``load_swf`` keyword arguments (cores_per_node, max_jobs, ...)
    trace_options: Mapping[str, object] = field(default_factory=dict)
    #: registered dispatcher name (``repro.sched.registry``); ``None``
    #: keeps the legacy FCFS + ``backfill_mode`` behaviour
    policy: Optional[str] = None
    #: policy factory knobs (score weights, EWT classes, ...)
    policy_params: Mapping[str, object] = field(default_factory=dict)

    def config(self) -> Dict[str, object]:
        """The canonical, hash-defining config dict.

        ``trace_file``/``trace_options`` — and likewise
        ``policy``/``policy_params`` — are included only when set, so
        cells that predate those axes hash exactly as they always did —
        old campaign stores stay valid.
        """
        out: Dict[str, object] = {
            "days": float(self.days),
            "target_load": float(self.target_load),
            "system_size": int(self.system_size),
            "notice_mix": self.notice_mix,
            "mechanism": self.mechanism,
            "backfill_mode": self.backfill_mode,
            "checkpoint_multiplier": float(self.checkpoint_multiplier),
            "failure_mtbf_days": float(self.failure_mtbf_days),
            "seed": int(self.seed),
            "kind": self.kind,
            "spec_overrides": dict(self.spec_overrides),
            "sim_overrides": dict(self.sim_overrides),
        }
        if self.trace_file is not None:
            out["trace_file"] = str(self.trace_file)
            if self.trace_options:
                out["trace_options"] = dict(self.trace_options)
        if self.policy is not None:
            out["policy"] = str(self.policy)
            if self.policy_params:
                out["policy_params"] = dict(self.policy_params)
        return out

    def key(self) -> str:
        """Stable content address of this cell's full configuration."""
        digest = hashlib.sha256(canonical_json(self.config()).encode())
        return digest.hexdigest()[:16]

    @staticmethod
    def from_config(config: Mapping[str, object]) -> "CampaignCell":
        """Inverse of :meth:`config`."""
        data = dict(config)
        return CampaignCell(
            days=float(data["days"]),  # type: ignore[arg-type]
            target_load=float(data["target_load"]),  # type: ignore[arg-type]
            system_size=int(data["system_size"]),  # type: ignore[arg-type]
            notice_mix=data["notice_mix"],  # type: ignore[arg-type]
            mechanism=data["mechanism"],  # type: ignore[arg-type]
            backfill_mode=str(data["backfill_mode"]),
            checkpoint_multiplier=float(
                data["checkpoint_multiplier"]  # type: ignore[arg-type]
            ),
            failure_mtbf_days=float(
                data["failure_mtbf_days"]  # type: ignore[arg-type]
            ),
            seed=int(data["seed"]),  # type: ignore[arg-type]
            kind=str(data.get("kind", "sim")),
            spec_overrides=dict(data.get("spec_overrides", {})),  # type: ignore[arg-type]
            sim_overrides=dict(data.get("sim_overrides", {})),  # type: ignore[arg-type]
            trace_file=data.get("trace_file"),  # type: ignore[arg-type]
            trace_options=dict(data.get("trace_options", {})),  # type: ignore[arg-type]
            policy=data.get("policy"),  # type: ignore[arg-type]
            policy_params=dict(data.get("policy_params", {})),  # type: ignore[arg-type]
        )

    # --- materialization ---------------------------------------------------
    def workload_spec(self) -> WorkloadSpec:
        base = theta_spec(
            days=self.days,
            target_load=self.target_load,
            system_size=self.system_size,
            notice_mix=_resolve_mix(self.notice_mix),
        )
        if self.spec_overrides:
            base = replace(
                base, **_coerce_overrides(base, self.spec_overrides)
            )
        return base

    def sim_config(self) -> SimConfig:
        overrides = dict(self.sim_overrides)
        checkpoint = CheckpointModel(
            interval_multiplier=self.checkpoint_multiplier
        )
        if "checkpoint" in overrides:
            ckpt_fields = dict(overrides.pop("checkpoint"))  # type: ignore[arg-type]
            # the axis is the canonical home of the multiplier: a sweep
            # (e.g. fig7) must scale even when an override dict carries
            # the other checkpoint knobs
            ckpt_fields["interval_multiplier"] = self.checkpoint_multiplier
            checkpoint = CheckpointModel(**ckpt_fields)
        failures = (
            FailureModel(
                enabled=True, node_mtbf_s=self.failure_mtbf_days * DAY
            )
            if self.failure_mtbf_days > 0
            else FailureModel.disabled()
        )
        if "failures" in overrides:
            failures = FailureModel(**dict(overrides.pop("failures")))  # type: ignore[arg-type]
        base = SimConfig(
            system_size=self.system_size,
            backfill_mode=self.backfill_mode,
            checkpoint=checkpoint,
            failures=failures,
            policy=self.policy,
            policy_params=dict(self.policy_params),
        )
        if overrides:
            base = replace(base, **_coerce_overrides(base, overrides))
        return base

    def mechanism_obj(self) -> Optional[Mechanism]:
        return Mechanism.parse(self.mechanism) if self.mechanism else None


def _as_tuple(value: object) -> Tuple[Any, ...]:
    """Normalize a scalar-or-sequence axis value to a tuple."""
    if isinstance(value, (list, tuple)):
        return tuple(value)
    return (value,)


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative scenario grid: the cross product of its axes.

    Every axis accepts one value or many; :meth:`expand` enumerates the
    full product in a fixed nested order (axes in field order, each axis
    in its declared order), so the cell list — and therefore resumption
    and reporting — is deterministic.
    """

    name: str = "campaign"
    days: Tuple[float, ...] = (28.0,)
    target_load: Tuple[float, ...] = (0.82,)
    system_size: Tuple[int, ...] = (4392,)
    notice_mix: Tuple[MixLike, ...] = ("W5",)
    #: mechanism names; ``None`` is the no-mechanism baseline
    mechanism: Tuple[Optional[str], ...] = (None,)
    backfill_mode: Tuple[str, ...] = ("easy",)
    checkpoint_multiplier: Tuple[float, ...] = (1.0,)
    failure_mtbf_days: Tuple[float, ...] = (0.0,)
    seeds: Tuple[int, ...] = (2022, 2023, 2024)
    kind: str = "sim"
    spec_overrides: Mapping[str, object] = field(default_factory=dict)
    sim_overrides: Mapping[str, object] = field(default_factory=dict)
    #: SWF log paths; ``None`` entries generate the synthetic Theta trace
    trace_file: Tuple[Optional[str], ...] = (None,)
    trace_options: Mapping[str, object] = field(default_factory=dict)
    #: registered dispatcher names to sweep; ``None`` entries keep the
    #: legacy FCFS + ``backfill_mode`` behaviour
    policy: Tuple[Optional[str], ...] = (None,)
    #: per-policy factory knobs, keyed by policy name — e.g.
    #: ``{"score": {"wait_weight": 2}}``; each cell only carries the
    #: knobs of its own policy
    policy_params: Mapping[str, Mapping[str, object]] = field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("campaign name must be non-empty")
        if self.kind not in CELL_KINDS:
            raise ConfigurationError(
                f"kind must be one of {CELL_KINDS}, got {self.kind!r}"
            )
        for axis in self._AXES:
            if not getattr(self, axis):
                raise ConfigurationError(f"axis {axis!r} must be non-empty")
        for mech in self.mechanism:
            if mech is not None:
                Mechanism.parse(mech)  # raises ConfigurationError if bad
        for mix in self.notice_mix:
            _resolve_mix(mix)
        if self.trace_options and all(t is None for t in self.trace_file):
            raise ConfigurationError(
                "trace_options given but no trace_file axis value is set"
            )
        # a typo'd policy axis value (or a bad knob) must error at plan
        # time, not mid-campaign: resolve every non-None name with its own
        # params against the registry right here
        for pname in self.policy_params:
            if pname not in self.policy:
                raise ConfigurationError(
                    f"policy_params given for {pname!r} which is not on "
                    f"the policy axis {tuple(self.policy)}"
                )
        for pol in self.policy:
            if pol is not None:
                resolve_dispatcher(pol, self.policy_params.get(pol, {}))

    _AXES = (
        "days",
        "target_load",
        "system_size",
        "notice_mix",
        "mechanism",
        "backfill_mode",
        "checkpoint_multiplier",
        "failure_mtbf_days",
        "seeds",
        "trace_file",
        "policy",
    )

    @property
    def n_cells(self) -> int:
        n = 1
        for axis in self._AXES:
            n *= len(getattr(self, axis))
        return n

    def expand(self) -> List[CampaignCell]:
        """The full grid, in deterministic nested-loop order."""
        cells: List[CampaignCell] = []
        for days in self.days:
            for load in self.target_load:
                for size in self.system_size:
                    for mix in self.notice_mix:
                        for mech in self.mechanism:
                            for bf in self.backfill_mode:
                                for ckpt in self.checkpoint_multiplier:
                                    for mtbf in self.failure_mtbf_days:
                                        for seed in self.seeds:
                                            for trace in self.trace_file:
                                                for pol in self.policy:
                                                    cells.append(
                                                        CampaignCell(
                                                            days=days,
                                                            target_load=load,
                                                            system_size=size,
                                                            notice_mix=mix,
                                                            mechanism=mech,
                                                            backfill_mode=bf,
                                                            checkpoint_multiplier=ckpt,
                                                            failure_mtbf_days=mtbf,
                                                            seed=seed,
                                                            kind=self.kind,
                                                            spec_overrides=self.spec_overrides,
                                                            sim_overrides=self.sim_overrides,
                                                            trace_file=trace,
                                                            trace_options=(
                                                                self.trace_options
                                                                if trace is not None
                                                                else {}
                                                            ),
                                                            policy=pol,
                                                            policy_params=(
                                                                self.policy_params.get(pol, {})
                                                                if pol is not None
                                                                else {}
                                                            ),
                                                        )
                                                    )
        return cells

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "name": self.name,
            "days": list(self.days),
            "target_load": list(self.target_load),
            "system_size": list(self.system_size),
            "notice_mix": list(self.notice_mix),
            "mechanism": list(self.mechanism),
            "backfill_mode": list(self.backfill_mode),
            "checkpoint_multiplier": list(self.checkpoint_multiplier),
            "failure_mtbf_days": list(self.failure_mtbf_days),
            "seeds": list(self.seeds),
            "kind": self.kind,
            "spec_overrides": dict(self.spec_overrides),
            "sim_overrides": dict(self.sim_overrides),
            "trace_file": list(self.trace_file),
            "trace_options": dict(self.trace_options),
        }
        # omitted at the default so campaign.json files written before
        # the policy axis existed compare equal (ResultStore.write_spec
        # uses exact dict equality -> pre-axis dirs stay a cache hit)
        if self.policy != (None,):
            out["policy"] = list(self.policy)
        if self.policy_params:
            out["policy_params"] = dict(self.policy_params)
        return out

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "CampaignSpec":
        """Build a spec from the JSON shape; axes accept scalars or lists.

        ``"mechanism": "all"`` expands to the paper's six mechanisms, and
        ``"mechanism": "all+baseline"`` prepends the no-mechanism baseline.
        """
        known = set(CampaignSpec.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown campaign spec fields: {sorted(unknown)}"
            )
        kwargs: Dict[str, object] = {}
        for name, value in data.items():
            if name in ("name", "kind"):
                kwargs[name] = value
            elif name in (
                "spec_overrides",
                "sim_overrides",
                "trace_options",
                "policy_params",
            ):
                kwargs[name] = dict(value)  # type: ignore[arg-type]
            elif name == "mechanism" and value in ("all", "all+baseline"):
                names: List[Optional[str]] = [m.name for m in ALL_MECHANISMS]
                if value == "all+baseline":
                    names = [None, *names]
                kwargs[name] = tuple(names)
            else:
                kwargs[name] = _as_tuple(value)
        return CampaignSpec(**kwargs)  # type: ignore[arg-type]
