"""One cold start of a workload, for the ``setup_s`` metric of ``run.py``.

Usage: python3 perfbench/coldstart.py <workload>

Imports synchrolab (and numpy through it) from the checkout's ``src``,
builds the workload's catalog, verifies the entries it uses, and prints
the seconds this took, counted from before the first import; interpreter
start-up is left out.
"""
from time import perf_counter

started = perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import load_library, set_up  # noqa: E402

if __name__ == "__main__":
    set_up(load_library(Path(__file__).resolve().parent.parent), sys.argv[1])
    print(perf_counter() - started)
