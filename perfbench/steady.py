"""Run-to-run spread of the benchmark, so bounds come from measurement.

Usage, from the root of a checkout:

    python3 perfbench/steady.py --runs 10                # all workloads
    python3 perfbench/steady.py --runs 5 --workloads oracle
    python3 perfbench/steady.py --compare A.jsonl B.jsonl

Each round runs every chosen workload once, in a separate process, with a
new seed per round; the order of the workloads alternates from round to
round. Every run's record (metrics plus wall and CPU time, nproc, Python
and numpy versions, commit and seed) is appended to a JSON-lines file
under ``.perfbench/``. The summary gives, per workload and end-to-end
metric, the median, the quartiles and their distance as a share of the
median, next to the metric's bound in BENCHMARK.json. ``--compare`` reads
two such files (for example parent and change) and reports, per metric,
how far the second median moved in the worse direction, against the bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}"
        )
    env = json.loads(next(l for l in lines if l.startswith("env "))[4:])
    return {"env": env, "result": json.loads(lines[-1])}


def summarise(records: list[dict], spec: dict) -> list[str]:
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    out = []
    for workload in sorted({r["env"]["workload"] for r in records}):
        runs = [r for r in records if r["env"]["workload"] == workload]
        cpu = statistics.median(r["env"]["cpu_s"] / r["env"]["wall_s"] for r in runs)
        out.append(f"{workload}: {len(runs)} runs, median cpu/wall {cpu:.3f}")
        for name, metric in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            bound = metric["bound"]
            verdict = "ok" if spread < bound / 3 else "WIDE" if spread <= bound else "OVER"
            out.append(
                f"  {name:12s} median {med:12.4f} {metric['unit']:5s} "
                f"q1 {q1:12.4f} q3 {q3:12.4f} spread {spread:.3f} "
                f"bound {bound} {verdict}"
            )
    return out


def compare(first: list[dict], second: list[dict], spec: dict) -> list[str]:
    out = []
    for workload in sorted({r["env"]["workload"] for r in first}):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            meds = [
                statistics.median(
                    r["result"]["metrics"][name]["value"]
                    for r in records if r["env"]["workload"] == workload
                )
                for records in (first, second)
            ]
            change = meds[1] / meds[0] - 1
            worse = change if metric["better"] == "lower" else -change
            verdict = "ok" if worse <= metric["bound"] else "REGRESSED"
            out.append(
                f"{workload:7s} {name:12s} {meds[0]:12.4f} -> {meds[1]:12.4f} "
                f"worse by {worse:+.3f} bound {metric['bound']} {verdict}"
            )
    return out


def _load(path) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--compare", nargs=2, metavar="RESULTS")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.compare:
        print("\n".join(compare(*map(_load, args.compare), spec)))
        return 0
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]
    ]
    commit = _commit()
    out_path = ROOT / ".perfbench" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.jsonl"
    out_path.parent.mkdir(exist_ok=True)
    records = []
    for i in range(args.runs):
        seed = args.first_seed + i
        for workload in workloads if i % 2 == 0 else reversed(workloads):
            record = run_once(workload, seed, spec["run_seconds"])
            record["env"]["commit"] = commit
            records.append(record)
            with out_path.open("a") as fh:
                fh.write(json.dumps(record) + "\n")
            metrics = record["result"]["metrics"]
            print(
                f"run {i} {workload} seed {seed}: "
                + " ".join(f"{k}={v['value']:.4g}" for k, v in metrics.items()),
                flush=True,
            )
    print(f"records: {out_path}")
    print("\n".join(summarise(records, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
