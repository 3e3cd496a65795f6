#!/usr/bin/env python3
"""Run every theorem experiment and print one status line per id.

Exit code: 0 when everything passed, 1 on any counterexample, 2 when some
run was inconclusive (budget). rystsov sweeps to degree 12, the rest to
degree 10, matching the release gate. Bad input exits 64 with one
``error: ...`` line, as ``synchrolab verify`` does: a degree beyond the
catalog, a negative budget, a kernel type too large to enumerate, or a
sweep that passes with 0 instances (a vacuous pass).
"""
import argparse
import sys
from typing import NoReturn

from synchrolab.experiments import Budget, THEOREMS, verify_theorem
from synchrolab.reports import report_emit
from synchrolab.transformations import MAX_DEGREE

EX_USAGE = 64  # no run outcome uses it


def refuse(message: str) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(EX_USAGE)


class Parser(argparse.ArgumentParser):
    """Command-line errors exit EX_USAGE, not 2, which means inconclusive here."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def main() -> int:
    parser = Parser(description=__doc__)
    parser.add_argument("--max-degree", type=int, default=10)
    parser.add_argument("--rystsov-degree", type=int, default=12)
    parser.add_argument("--budget-seconds", type=float, default=1800.0)
    parser.add_argument("--full", action="store_true", help="print full reports")
    args = parser.parse_args()
    for flag, degree in (("--max-degree", args.max_degree), ("--rystsov-degree", args.rystsov_degree)):
        if degree > MAX_DEGREE:
            refuse(f"{flag} {degree}: catalog degrees stop at {MAX_DEGREE}")
    if not args.budget_seconds >= 0:  # also false for nan
        refuse(f"--budget-seconds {args.budget_seconds}: a budget is at least 0 seconds")

    worst = 0
    for theorem_id in sorted(THEOREMS):
        degree = args.rystsov_degree if theorem_id == "rystsov" else args.max_degree
        try:
            report = verify_theorem(
                theorem_id, max_degree=degree, budget=Budget(seconds=args.budget_seconds)
            )
        except ValueError as exc:  # a kernel type too large for a partition table
            refuse(f"{theorem_id} at degree <= {degree}: {exc}")
        if report.passed and not report.instances_tested:
            refuse(
                f"{theorem_id} at degree <= {degree}: the sweep has no instance, "
                "so a pass would be vacuous"
            )
        print(
            f"{theorem_id:<22} {report.status:<12} degree<={degree:<3}"
            f" instances={report.instances_tested:<10}"
            f" witnesses={len(report.witnesses):<3}"
            f" counterexamples={len(report.counterexamples)}"
            f" ({report.wall_time:.1f}s)"
        )
        if args.full:
            print(report_emit(report, "table", include_timings=True))
        worst = max(worst, {"pass": 0, "fail": 1, "inconclusive": 2}[report.status])
    return worst


if __name__ == "__main__":
    sys.exit(main())
