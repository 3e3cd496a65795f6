"""Tiny-size smoke test of the benchmark itself.

Run from the root of a checkout: python3 -m pytest -q perfbench/test_smoke.py

Every workload is run at a tiny size, traced and untraced, and must emit
exactly the metrics BENCHMARK.json names, each with its declared unit.
Wrong answers are fed to the benchmark's own checkers (never into the
program) and must be counted as failures.
"""
import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY_SWEEPS = (
    ("rystsov", 6, 3),
    ("imprimitivity-char", 6, 4),
    ("rankpres-32", 6, 0),
    ("small-ranks", 6, 0),
    ("no-rank-r-plus-1", 6, 0),
)


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "SWEEPS", TINY_SWEEPS)
    monkeypatch.setattr(run, "SWEEPS", TINY_SWEEPS)
    monkeypatch.setattr(workloads, "CHECK_PASS_REQUESTS", 40)
    monkeypatch.setattr(workloads, "ORACLE_MAX_DEGREE", 5)
    monkeypatch.setattr(workloads, "ORACLE_CONSTRUCTED_ONLY", ("grid-3",))
    monkeypatch.setattr(workloads, "ORACLE_LIGHT_ROUNDS", 1)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)


def _units(record):
    return {name: unit for name, (_, unit) in record["metrics"].items()}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(tiny, workload):
    plain = run.run(workload, seed=1, seconds=0, trace=False)
    assert plain["failed"] == 0, plain["failures"]
    assert _units(plain) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value, _ in plain["metrics"].values())
    traced = run.run(workload, seed=1, seconds=0, trace=True)
    assert traced["failed"] == 0, traced["failures"]
    assert _units(traced) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_wrong_verdict_is_counted_as_failed(tiny, monkeypatch):
    class FlippedCheck(workloads.CheckWorkload):
        def serve(self, req, span):
            verdict = super().serve(req, span)
            return dataclasses.replace(verdict, synchronizes=not verdict.synchronizes)

    monkeypatch.setitem(workloads.WORKLOADS, "check", FlippedCheck)
    record = run.run("check", seed=1, seconds=0, trace=False)
    assert record["failed"] == record["attempted"] > 0
    assert all(line.startswith("check: ") for line in record["failures"])


def test_oracle_and_sweep_checkers_reject_wrong_answers(tiny):
    lib = workloads.load_library(HERE.parent)
    oracle = workloads.OracleWorkload(lib, workloads.set_up(lib, "oracle"), seed=1)
    req = oracle.requests(0)[0]
    answer = oracle.serve(req, run._no_span)
    assert oracle.check(req, answer) is None
    wrong = dataclasses.replace(answer, min_rank=answer.min_rank + 1)
    assert oracle.check(req, wrong) is not None

    sweep = workloads.SweepWorkload(lib, [], seed=1)
    req = sweep.requests(0)[0]
    report, text = sweep.serve(req, run._no_span)
    assert sweep.check(req, (report, text)) is None
    report.witnesses.pop()
    assert sweep.check(req, (report, text)) is not None
