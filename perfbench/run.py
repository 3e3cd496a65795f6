"""synchrolab benchmark: one run of one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload check --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py): ``check``, ``sweep`` and ``oracle``. The run
builds nothing; it imports synchrolab from ``src/`` of the checkout and
exits non-zero without a result when the sources are missing.

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced passes and prints the per-layer metrics
of the traced passes plus ``trace.overhead_share``. The last line of
standard output is always one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it, starting
with ``env``, records wall and CPU time, nproc, versions and seed
(``steady.py`` adds the commit).
Any wrong answer or exception is counted as failed, named with its group
and map on standard error, and makes the exit code 1.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter, process_time

import numpy
from tracing import Tracer
from workloads import SWEEPS, WORKLOADS, load_library, set_up

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120
# A run serves at least this many untraced passes, so its tail percentile
# rests on whole passes: in a single oracle pass the p99 would fall between
# the light instances and the six S7/A7 representatives.
MIN_PASSES = 2

# per-layer metric -> (unit, key in Tracer.snapshot())
LAYER_KEYS = {
    "catalog.build_s": ("s", "catalog.build.s"),
    "catalog.verify_s": ("s", "catalog.verify.s"),
    "catalog.verify_calls": ("count", "catalog.verify.calls"),
    "groups.parse_s": ("s", "groups.parse.s"),
    "groups.parse_calls": ("count", "groups.parse.calls"),
    "groups.pair_orbits_s": ("s", "groups.pair_orbits.s"),
    "groups.block_systems_s": ("s", "groups.block_systems.s"),
    "groups.stabilizer_s": ("s", "groups.stabilizer.s"),
    "sync.synchronizes_s": ("s", "sync.synchronizes.s"),
    "sync.synchronizes_calls": ("count", "sync.synchronizes.calls"),
    "sync.synchronizes_self_s": ("s", "sync.synchronizes.self_s"),
    "sync.automaton_s": ("s", "sync.automaton.s"),
    "sync.automaton_pairs": ("count", "sync.automaton_pairs"),
    "sync.word_letters": ("count", "sync.word_letters"),
    "sync.solver_s": ("s", "sync.solver.s"),
    "sync.solver_calls": ("count", "sync.solver.calls"),
    "graphs.from_edges_s": ("s", "graphs.from_edges.s"),
    "graphs.clique_s": ("s", "graphs.clique.s"),
    "graphs.clique_calls": ("count", "graphs.clique.calls"),
    "graphs.chromatic_s": ("s", "graphs.chromatic.s"),
    "graphs.chromatic_calls": ("count", "graphs.chromatic.calls"),
    "transformations.compose_s": ("s", "transformations.compose.s"),
    "transformations.compose_calls": ("count", "transformations.compose.calls"),
    "transformations.partitions_built": ("count", "transformations.partitions_built"),
    "sweeps.kernel_reps_s": ("s", "sweeps.kernel_reps.s"),
    "sweeps.kernel_reps_kept": ("count", "sweeps.kernel_reps_kept"),
    "sweeps.partitions_seen": ("count", "sweeps.partitions_seen"),
    "sweeps.enumerate_s": ("s", "sweeps.enumerate.s"),
    "sweeps.instances": ("count", "sweeps.instances"),
    "semigroups.closure_s": ("s", "semigroups.closure.s"),
    "semigroups.closure_calls": ("count", "semigroups.closure.calls"),
    "semigroups.closure_elements": ("count", "semigroups.closure_elements"),
    "semigroups.truncated": ("count", "semigroups.truncated"),
    "semigroups.analysis_s": ("s", "semigroups.analysis.s"),
    "semigroups.rank_preserving_s": ("s", "semigroups.rank_preserving.s"),
    "semigroups.rank_preserving_calls": ("count", "semigroups.rank_preserving.calls"),
    "reports.emit_s": ("s", "reports.emit.s"),
    "runtime.gc_s": ("s", "runtime.gc_s"),
    "runtime.gc_collections": ("count", "runtime.gc_collections"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(totals: dict, overhead: float) -> dict:
    """Per-layer metrics from tracer totals (set-up plus one traced pass)."""

    def get(key):
        return totals.get(key, 0.0)  # a layer that never ran reads 0

    out = {name: (get(key), unit) for name, (unit, key) in LAYER_KEYS.items()}
    out["sync.nonsync_share"] = (
        _ratio(get("sync.nonsync"), get("sync.synchronizes.calls")), "ratio"
    )
    out["sweeps.kernel_reps_ratio"] = (
        _ratio(get("sweeps.kernel_reps_kept"), get("sweeps.partitions_seen")), "ratio"
    )
    out["semigroups.elements_per_s"] = (
        _ratio(get("semigroups.closure_elements"), get("semigroups.closure.s")), "1/s"
    )
    for theorem_id, _, _ in SWEEPS:
        out[f"experiments.verify_s.{theorem_id}"] = (
            get(f"experiments.verify.{theorem_id}.s"), "s"
        )
    out["experiments.self_s"] = (
        sum(get(f"experiments.verify.{t}.self_s") for t, _, _ in SWEEPS), "s"
    )
    out["trace.overhead_share"] = (overhead, "ratio")
    return out


def measure_setup(workload: str) -> list[float]:
    """Set-up seconds reported by fresh interpreters, one per sample."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        probe = subprocess.run(
            [sys.executable, str(HERE / "coldstart.py"), workload],
            cwd=ROOT, check=True, timeout=SETUP_TIMEOUT_S,
            stdout=subprocess.PIPE, text=True,
        )
        samples.append(float(probe.stdout))
    return samples


def _no_span(name):
    return nullcontext()


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, serve passes for ``seconds`` and return the run's record."""
    lib = load_library(ROOT)
    setup = [] if trace else measure_setup(workload_name)
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install(lib)
    entries = set_up(lib, workload_name)
    setup_totals = {}
    if tracer:
        tracer.uninstall()
        setup_totals = tracer.snapshot()
        tracer.stats.clear()
        tracer.counts.clear()
    workload = WORKLOADS[workload_name](lib, entries, seed)

    latencies: list[float] = []
    busy = {False: [], True: []}  # seconds serving per pass, by traced
    attempted = failed = 0
    failures: list[str] = []
    started, cpu_started = perf_counter(), process_time()
    pass_index = 0
    while True:
        traced = trace and pass_index % 2 == 1
        requests = workload.requests(pass_index)
        span = tracer.span if traced else _no_span
        if traced:
            tracer.install(lib)
        pass_busy = 0.0
        for req in requests:
            if traced:
                tracer.request_id = attempted
            t0 = perf_counter()
            try:
                result, error = workload.serve(req, span), None
            except Exception as exc:  # a raising request counts as failed
                result, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - t0
            pass_busy += elapsed
            if not traced:
                latencies.append(elapsed)
            attempted += 1
            if error is None:
                error = workload.check(req, result)
            del result  # an oracle closure must not outlive its request
            if error is not None:
                failed += 1
                failures.append(f"{workload_name}: {req.describe()}: {error}")
        if traced:
            tracer.uninstall()
        busy[traced].append(pass_busy)
        pass_index += 1
        done = perf_counter() - started >= seconds and len(busy[False]) >= MIN_PASSES
        if done and (busy[True] or not trace):
            break
    wall, cpu = perf_counter() - started, process_time() - cpu_started

    if trace:
        untraced = statistics.median(busy[False])
        overhead = statistics.median(busy[True]) / untraced - 1.0
        passes = tracer.snapshot()
        n = len(busy[True])
        totals = {
            k: setup_totals.get(k, 0.0) + passes.get(k, 0.0) / n
            for k in setup_totals.keys() | passes.keys()
        }
        metrics = layer_metrics(totals, overhead)
        tracer.write(ROOT / ".perfbench" / f"spans-{workload_name}-seed{seed}.jsonl")
    else:
        served = sum(busy[False])
        # the workload's tail percentile, e.g. cut point 99 of 100 for p99
        cuts = statistics.quantiles(latencies, n=100, method="inclusive")
        tail = cuts[round(workload.tail * 100) - 1]
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "rate_per_s": (len(latencies) / served, "1/s"),
            "p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "tail_ms": (tail * 1e3, "ms"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
            ),
        }
    env = {
        "workload": workload_name,
        "seed": seed,
        "trace": int(trace),
        "passes": pass_index,
        "pass_busy_s": busy[False],
        "traced_pass_busy_s": busy[True],
        "requests": attempted,
        "failed_share": failed / attempted,
        "tail_quantile": workload.tail,
        "wall_s": wall,
        "cpu_s": cpu,
        "setup_samples_s": setup,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    return {"env": env, "failures": failures, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in record["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    for name, (value, unit) in record["metrics"].items():
        print(f"{name} {value} {unit}")
    print("env " + json.dumps(record["env"]))
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in record["metrics"].items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
