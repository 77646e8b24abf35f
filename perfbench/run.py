"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_long --seed 1 --trace 0
    python3 perfbench/run.py --workload all        # every workload in turn
    python3 perfbench/run.py --record-reference    # refresh reference.json

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics,
measured in traced passes that alternate with untraced ones (the wall
difference between the two is reported as the tracing overhead).

The package under test is imported from ``src/`` next to this
directory; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = ".perfbench_work"
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

#: set-up is repeated at least MIN and at most MAX times per run, while
#: the repeats so far took under SETUP_BUDGET_S; the median is reported
SETUP_REPEATS = (3, 15)
SETUP_BUDGET_S = 10.0
DEFAULT_SEED = 1
HELDOUT_SEED = 2


def import_repro() -> None:
    """Import the package from ``src/`` of this checkout, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"benchmark: no package source at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"benchmark: imported repro from {repro.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        raise SystemExit(2)


def timed_setup(workload: str, seed: int, data_dir: str) -> float:
    """Set the workload up in a fresh interpreter; returns its wall time.

    A fresh process makes the measured set-up include interpreter start
    and package import, which a user of the CLI pays on every command.
    """
    shutil.rmtree(data_dir, ignore_errors=True)
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--setup-into", data_dir],
        check=True, timeout=150, cwd=ROOT,
    )
    return time.perf_counter() - t0


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 reference: dict) -> dict:
    """Set up, run passes for *seconds*, check outputs; returns a result."""
    from checks import Tally, expected_digests
    from hostspeed import HostClock
    from layers import LayerTracer, WorkerWatch
    from metrics import end_to_end, per_layer
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    work = os.path.join(WORK, name)
    spool = os.path.join(work, "spool")
    data_dir = os.path.join(work, "data")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(spool)
    try:
        # each set-up is timed with the host-speed kernel around it:
        # (wall seconds, kernel seconds)
        setups = []
        setup_clock = HostClock()
        least, most = SETUP_REPEATS
        while len(setups) < least or (
                len(setups) < most
                and sum(s for s, _ in setups) < SETUP_BUDGET_S):
            setup_wall = timed_setup(name, seed, data_dir)
            setups.append((setup_wall, setup_clock.mark()))
        watch = WorkerWatch(spool)
        ref_seed = seed if workload.uses_seed else DEFAULT_SEED
        tally = Tally(expected_digests(reference, name, ref_seed))
        plain, traced = [], []
        tracer = LayerTracer(spool) if trace else None
        host = HostClock(getattr(workload, "workers", 1))

        def measure(passes: list, tracing: bool) -> None:
            if tracing:
                watch.tracer = tracer
                tracer.install()
            try:
                result = workload.run_pass(data_dir, seed,
                                           len(plain) + len(traced), host)
            finally:
                if tracing:
                    tracer.uninstall()
                    watch.tracer = None
            result.worker_rss_kib = watch.take_worker_rss_kib()
            if tracing:
                result.workers_seen = tracer.collect_workers()
            tally.check_all(result.outputs)
            passes.append(result)

        # untraced passes give the end-to-end figures; with --trace 1 a
        # traced pass follows each, and the two walls give the overhead
        start = time.perf_counter()
        while True:
            measure(plain, False)
            if trace:
                measure(traced, True)
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(plain) > seconds:
                break
        if hasattr(workload, "cross_check"):
            for op_id, digest, error in workload.cross_check():
                tally.check_repeat(op_id, digest, error)
        parent_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if trace:
            metrics = per_layer(workload, plain, traced, tracer.stats,
                                tally)
        else:
            metrics = end_to_end(plain, setups, parent_rss_kib, tally)
        return {
            "workload": name,
            "tally": tally,
            "metrics": metrics,
            "outputs": {o[0]: o[1] for o in plain[0].outputs},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)  # only once no other workload's files are left


def emit(result: dict, specs: dict, trace: bool) -> dict:
    """Print the human-readable lines; returns the contract JSON object."""
    tally = result["tally"]
    key = "per_layer" if trace else "end_to_end"
    wanted = [m["name"] for m in specs[key]]
    units = {m["name"]: m["unit"] for m in specs[key]}
    metrics = result["metrics"]
    print(f"workload {result['workload']}: attempted={tally.attempted} "
          f"failed={tally.failed} failed_frac="
          f"{tally.failed / max(1, tally.attempted):.4f}")
    for problem in tally.problems:
        print(f"  FAILED {problem}")
    for name, (value, unit) in metrics["extra"].items():
        print(f"  {name:<40} {value!s:>16} {unit}")
    out = {}
    for name in wanted:
        value = metrics["values"].get(name)
        if value is None:
            raise RuntimeError(f"metric {name} was not measured")
        out[name] = {"value": value, "unit": units[name]}
        print(f"  {name:<40} {value:>16.6g} {units[name]}")
    return {"correct": tally.correct, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": out}


def record_reference() -> None:
    """Record output digests for the default and the held-out seed."""
    from workloads import WORKLOADS

    reference: dict = {}
    for name, workload in WORKLOADS.items():
        seeds = (DEFAULT_SEED, HELDOUT_SEED) if workload.uses_seed else (
            DEFAULT_SEED,)
        for seed in seeds:
            result = run_workload(name, seed, 0.0, False, {})
            tally = result["tally"]
            if not tally.correct:
                raise SystemExit(f"{name} seed {seed}: {tally.problems}")
            reference.setdefault(name, {})[str(seed)] = result["outputs"]
            print(f"recorded {name} seed {seed}: "
                  f"{len(result['outputs'])} digests", flush=True)
    from checks import REFERENCE_PATH

    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-into", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    import_repro()
    sys.path.insert(0, HERE)
    from checks import load_reference
    from workloads import WORKLOADS

    if args.setup_into is not None:
        WORKLOADS[args.workload].setup(args.setup_into, args.seed)
        return 0
    if args.record_reference:
        record_reference()
        return 0
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        specs = json.load(fh)
    seconds = args.seconds if args.seconds is not None else float(
        specs["run_seconds"])
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        parser.error(f"--workload must be one of {sorted(WORKLOADS)} "
                     f"or 'all'")
    reference = load_reference()
    for name in names:
        result = run_workload(name, args.seed, seconds, bool(args.trace),
                              reference)
        line = emit(result, specs, bool(args.trace))
        print(json.dumps(line, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
