#!/usr/bin/env python3
"""Run every theorem experiment and print one status line per id.

Exit code: 0 when everything passed, 1 on any counterexample, 2 when some
run was inconclusive (budget). rystsov sweeps to degree 12, the rest to
degree 10, matching the release gate. A sweep with no instance at its
degree (grid-counterexample below 9) prints a ``skipped`` line, which does
not set the exit code. Bad input exits 64 with one ``error: ...`` line
through the checks of ``synchrolab verify``: a degree beyond the catalog,
a negative budget, a kernel type or an assignment array too large to
enumerate, or degrees at which every sweep is skipped.
"""
import sys

from synchrolab.cli import UsageParser, check_budget, check_max_degree, usage_error
from synchrolab.experiments import THEOREMS, NoInstanceError, verify_theorem
from synchrolab.reports import report_emit


def main() -> int:
    parser = UsageParser(description=__doc__)
    parser.add_argument("--max-degree", type=int, default=10)
    parser.add_argument("--rystsov-degree", type=int, default=12)
    parser.add_argument("--budget-seconds", type=float, default=1800.0)
    parser.add_argument("--full", action="store_true", help="print full reports")
    args = parser.parse_args()
    check_max_degree(args.max_degree)
    check_max_degree(args.rystsov_degree, "--rystsov-degree")
    budget = check_budget(args.budget_seconds)

    worst, ran = 0, False
    for theorem_id in sorted(THEOREMS):
        degree = args.rystsov_degree if theorem_id == "rystsov" else args.max_degree
        try:
            report = verify_theorem(theorem_id, max_degree=degree, budget=budget)
        except NoInstanceError:
            print(f"{theorem_id:<22} skipped (no instance at degree <= {degree})")
            continue
        except ValueError as exc:  # a kernel type or assignment array too large
            usage_error(f"{theorem_id} at degree <= {degree}: {exc}")
        ran = True
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
    if not ran:
        usage_error(
            f"--max-degree {args.max_degree} --rystsov-degree {args.rystsov_degree}: "
            "no sweep has an instance at these degrees, so a pass would be vacuous"
        )
    return worst


if __name__ == "__main__":
    sys.exit(main())
