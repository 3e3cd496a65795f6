#!/usr/bin/env python3
"""Survey stable-section partition sizes over the catalog.

For every transitive catalog group up to the chosen degree, list the
nontrivial partition sizes that admit a section stable under the whole
group, and the resulting depth (gap between the two smallest sizes).
Bad input exits 64 with one ``error: ...`` line, as the synchrolab CLI
does: a degree with no catalog group, or one beyond the section search.
"""
import argparse
import sys
from typing import NoReturn

from synchrolab.catalog import build_catalog
from synchrolab.semigroups import (
    MAX_EXHAUSTIVE_DEGREE,
    MAX_NONUNIFORM_DEGREE,
    regular_partition_witnesses,
)

EX_USAGE = 64


def refuse(message: str) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(EX_USAGE)


class Parser(argparse.ArgumentParser):
    """Command-line errors exit EX_USAGE, as every other bad input does."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def main():
    parser = Parser(description=__doc__)
    parser.add_argument("--max-degree", type=int, default=9)
    parser.add_argument("--allow-nonuniform", action="store_true")
    args = parser.parse_args()
    limit = MAX_NONUNIFORM_DEGREE if args.allow_nonuniform else MAX_EXHAUSTIVE_DEGREE
    if args.max_degree > limit:
        refuse(f"--max-degree {args.max_degree}: the section search stops at degree {limit}")
    entries = build_catalog(args.max_degree)
    if not entries:
        refuse(f"--max-degree {args.max_degree}: the catalog starts at degree 3")

    for entry in entries:
        witnesses = regular_partition_witnesses(
            entry.group, allow_nonuniform=args.allow_nonuniform
        )
        sizes = [w.size for w in witnesses]
        depth = sizes[1] - sizes[0] if len(sizes) > 1 else "inf"
        print(f"{entry.name:<12} degree {entry.degree:<3} sizes {sizes} depth {depth}")
        for w in witnesses:
            section = ",".join(str(x + 1) for x in w.section)
            print(f"    size {w.size}: {w.partition} section {{{section}}}")


if __name__ == "__main__":
    main()
