"""The synthetic Theta-like trace generator (§IV-A substitution).

The real Theta 2019 Cobalt log is unavailable, so this generator produces
traces matched to the paper's reported statistics (see DESIGN.md for the
substitution argument).  Pipeline:

1. draw (size, runtime, estimate) tuples until the offered load reaches
   ``spec.target_load`` — the job count then emerges (~37 k/year at Theta
   scale, Table I);
2. assign each job to one of ``n_projects`` projects with Zipf-skewed
   activity;
3. give every project a bursty session-based submission process (Fig. 5);
4. assign job types at project granularity (10 % / 60 % / 30 %, §IV-B),
   reassigning over-half-machine on-demand jobs to rigid/malleable;
5. derive per-type fields: setup overheads, malleable minimum sizes, and
   the four on-demand notice classes of the experiment's Table III mix.

Everything is driven by named RNG streams, so a (spec, seed) pair is a
complete, bit-reproducible description of a trace.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List

import numpy as np

from repro.jobs.job import Job, JobType, NoticeClass
from repro.util.rng import RngStreams
from repro.workload.ondemand import assign_notice_classes
from repro.workload.projects import ProjectTable, build_project_table
from repro.workload.spec import WorkloadSpec
from repro.workload.stream import JobStream


class ThetaWorkloadGenerator:
    """Generates one synthetic trace from a spec and a seed."""

    def __init__(self, spec: WorkloadSpec, seed: int = 0) -> None:
        self.spec = spec
        self.streams = RngStreams(seed)

    # ------------------------------------------------------------------
    # Individual field samplers
    # ------------------------------------------------------------------
    def _sample_size(self, rng: np.random.Generator) -> int:
        """Log-uniform within a Fig. 3 size bucket, rounded to granularity."""
        s = self.spec
        bucket = int(rng.choice(len(s.size_bucket_weights), p=s.size_bucket_weights))
        lo = s.size_bucket_edges[bucket]
        hi = (
            s.size_bucket_edges[bucket + 1]
            if bucket + 1 < len(s.size_bucket_edges)
            else s.system_size
        )
        hi = max(hi, lo + 1)
        raw = math.exp(rng.uniform(math.log(lo), math.log(hi)))
        size = int(round(raw / s.size_granularity) * s.size_granularity)
        return int(min(max(size, s.min_size), s.system_size))

    def _sample_runtime(self, rng: np.random.Generator) -> float:
        s = self.spec
        mu = math.log(s.runtime_lognorm_median_s)
        rt = float(rng.lognormal(mean=mu, sigma=s.runtime_lognorm_sigma))
        return min(max(rt, s.min_runtime_s), s.max_runtime_s)

    def _sample_estimate(self, runtime: float, rng: np.random.Generator) -> float:
        s = self.spec
        pad = float(rng.exponential(s.estimate_pad_mean))
        est = runtime * (1.0 + pad)
        gran = s.estimate_granularity_s
        est = math.ceil(est / gran) * gran
        return float(min(max(est, runtime), max(s.max_runtime_s, runtime)))

    # ------------------------------------------------------------------
    # Submission process
    # ------------------------------------------------------------------
    def _session_times(
        self, n_jobs: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Bursty submit times for one project's jobs (Fig. 5 pattern).

        Two levels of clustering: jobs group into minutes-apart *sessions*,
        and sessions group into multi-day *activity windows* (campaigns).
        The windows are what make the weekly on-demand counts swing the
        way Fig. 5 shows.
        """
        s = self.spec
        n_sessions = max(1, int(round(n_jobs / s.session_mean_jobs)))
        n_windows = max(1, int(math.ceil(n_sessions / s.sessions_per_window)))
        window_centers = rng.uniform(0.0, s.horizon_s, size=n_windows)
        session_starts = window_centers[
            rng.integers(0, n_windows, size=n_sessions)
        ] + rng.normal(0.0, s.activity_window_std_s, size=n_sessions)
        session_starts = np.clip(session_starts, 0.0, s.horizon_s)
        # Assign jobs to sessions and space them exponentially inside each.
        assignment = rng.integers(0, n_sessions, size=n_jobs)
        times = np.empty(n_jobs)
        for sess in range(n_sessions):
            members = np.flatnonzero(assignment == sess)
            if len(members) == 0:
                continue
            gaps = rng.exponential(s.session_interarrival_s, size=len(members))
            times[members] = session_starts[sess] + np.cumsum(gaps)
        return np.clip(times, 0.0, s.horizon_s)

    # ------------------------------------------------------------------
    @property
    def notice_horizon_s(self) -> float:
        """Upper bound on ``submit_time - notice_time`` for this spec.

        The widest gap is a LATE arrival: its notice precedes the
        *estimated* arrival by at most the maximum lead, and the actual
        submission trails the estimate by at most the late window.
        """
        return notice_horizon_s(self.spec)

    def generate(self) -> List[Job]:
        """Produce the trace: a submit-time-sorted list of fresh jobs."""
        rows = self.build_rows()
        return [self._job_from_row(job_id, row) for job_id, row in enumerate(rows)]

    def iter_jobs(self) -> JobStream:
        """The same trace as :meth:`generate`, yielded lazily in submit order.

        Identical (spec, seed) draws — job-for-job equal to
        :meth:`generate`, same ids — but :class:`Job` objects (and their
        mutable stats) are built one at a time and each intermediate row
        is released as soon as its job is yielded, so a streamed
        simulation never holds the materialized trace.  The shape/
        submission pipeline itself still builds its lightweight row
        dicts (the correlated project/session draws need the full
        population), so generation is O(trace) in *row* memory but the
        expensive Job layer stays O(in-flight).
        """
        rows = self.build_rows()

        def emit() -> Iterator[Job]:
            # pop from the tail of the reversed list: ascending submit
            # order, freeing each row as it is consumed
            rows.reverse()
            job_id = 0
            while rows:
                yield self._job_from_row(job_id, rows.pop())
                job_id += 1

        return JobStream(emit(), notice_horizon_s=self.notice_horizon_s)

    def build_rows(self) -> List[dict]:
        """Steps 1–5 of the pipeline: submit-sorted intermediate rows.

        Rows are the generator's lightweight pre-Job form — plain dicts
        carrying every sampled field.  They are what the process-wide
        :class:`~repro.workload.trace_cache.TraceCache` stores, because
        one row list can back any number of simulations (each builds its
        own fresh mutable :class:`Job` objects via
        :func:`stream_jobs_from_rows`) while a Job list cannot be shared
        (simulations mutate job state in place).
        """
        s = self.spec
        rng_shape = self.streams.get("shape")
        rng_proj = self.streams.get("projects")
        rng_sess = self.streams.get("sessions")
        rng_type = self.streams.get("types")
        rng_notice = self.streams.get("notice")
        rng_setup = self.streams.get("setup")

        # 1. Draw job shapes until the offered load target is met.
        target_work = s.target_load * s.system_size * s.horizon_s
        rows: List[dict] = []
        work = 0.0
        while work < target_work:
            size = self._sample_size(rng_shape)
            runtime = self._sample_runtime(rng_shape)
            estimate = self._sample_estimate(runtime, rng_shape)
            rows.append({"size": size, "runtime": runtime, "estimate": estimate})
            work += size * runtime

        # 2. Projects with Zipf-skewed activity.
        table: ProjectTable = build_project_table(
            s.n_projects,
            s.project_zipf_s,
            s.frac_projects_ondemand,
            s.frac_projects_rigid,
            rng_proj,
        )
        projects = rng_proj.choice(s.n_projects, size=len(rows), p=table.weights)
        for row, project in zip(rows, projects):
            row["project"] = int(project)

        # 3. Bursty per-project submission sessions.
        by_project: Dict[int, List[int]] = {}
        for idx, row in enumerate(rows):
            by_project.setdefault(row["project"], []).append(idx)
        for project, indices in sorted(by_project.items()):
            times = self._session_times(len(indices), rng_sess)
            for idx, t in zip(indices, times):
                rows[idx]["submit"] = float(t)

        # 4. Types at project granularity; large on-demand jobs reassigned.
        half = s.ondemand_max_size_frac * s.system_size
        for row in rows:
            jtype = table.type_of(row["project"])
            if jtype is JobType.ONDEMAND and row["size"] > half:
                jtype = (
                    JobType.RIGID if rng_type.random() < 0.5 else JobType.MALLEABLE
                )
            row["type"] = jtype

        # 5. Per-type fields.
        od_rows = [r for r in rows if r["type"] is JobType.ONDEMAND]
        assign_notice_classes(
            od_rows,
            s.notice_mix,
            rng_notice,
            s.notice_lead_range_s,
            s.late_window_s,
        )
        # §III-B.4 extension: some announced jobs never actually arrive.
        if s.ondemand_noshow_frac > 0:
            for row in od_rows:
                row["no_show"] = bool(
                    row.get("notice_time") is not None
                    and rng_notice.random() < s.ondemand_noshow_frac
                )
        for row in rows:
            jtype = row["type"]
            if jtype is JobType.RIGID:
                frac = rng_setup.uniform(*s.rigid_setup_frac)
                row["setup"] = frac * row["runtime"]
                row["min_size"] = None
            elif jtype is JobType.MALLEABLE:
                frac = rng_setup.uniform(*s.malleable_setup_frac)
                row["setup"] = frac * row["runtime"]
                row["min_size"] = max(
                    1, int(math.ceil(s.malleable_min_size_frac * row["size"]))
                )
            else:  # on-demand: zero setup, fixed size
                row["setup"] = 0.0
                row["min_size"] = None

        # 6. Submit order (Job materialisation is the caller's step).
        rows.sort(key=lambda r: (r["submit"], r["size"]))
        return rows

    @staticmethod
    def _job_from_row(job_id: int, row: dict) -> Job:
        return Job(
            job_id=job_id,
            job_type=row["type"],
            submit_time=row["submit"],
            size=row["size"],
            runtime=row["runtime"],
            estimate=row["estimate"],
            setup_time=row["setup"],
            min_size=row["min_size"],
            project=row["project"],
            notice_class=row.get("notice_class", NoticeClass.NONE),
            notice_time=row.get("notice_time"),
            estimated_arrival=row.get("estimated_arrival"),
            no_show=row.get("no_show", False),
        )


def notice_horizon_s(spec: WorkloadSpec) -> float:
    """Upper bound on ``submit_time - notice_time`` for a spec's traces.

    The widest gap is a LATE arrival: its notice precedes the *estimated*
    arrival by at most the maximum lead, and the actual submission trails
    the estimate by at most the late window.
    """
    return spec.notice_lead_range_s[1] + spec.late_window_s


def stream_jobs_from_rows(spec: WorkloadSpec, rows: List[dict]) -> JobStream:
    """Lazily build fresh jobs from shared generator rows.

    Unlike :meth:`ThetaWorkloadGenerator.iter_jobs`, which consumes its
    own private row list destructively, this enumerates ``rows`` without
    mutating them — the point is to stream many simulations off one
    cached row list (see :mod:`repro.workload.trace_cache`).  Job ids
    and ordering match :func:`generate_trace` exactly, so a simulation
    fed from here is byte-identical to one fed that list.
    """

    def emit() -> Iterator[Job]:
        for job_id, row in enumerate(rows):
            yield ThetaWorkloadGenerator._job_from_row(job_id, row)

    return JobStream(emit(), notice_horizon_s=notice_horizon_s(spec))


def generate_trace(spec: WorkloadSpec, seed: int = 0) -> List[Job]:
    """One-call convenience wrapper around :class:`ThetaWorkloadGenerator`."""
    return ThetaWorkloadGenerator(spec, seed=seed).generate()
