#!/usr/bin/env python3
"""Survey stable-section partition sizes over the catalog.

For every transitive catalog group up to the chosen degree, list the
nontrivial partition sizes that admit a section stable under the whole
group, and the resulting depth (gap between the two smallest sizes).
Bad input exits 64 with one ``error: ...`` line through the synchrolab
CLI's checks: a degree with no catalog group, or one beyond the section
search.
"""
from synchrolab.cli import UsageParser, catalog_up_to, usage_error
from synchrolab.semigroups import (
    MAX_EXHAUSTIVE_DEGREE,
    MAX_NONUNIFORM_DEGREE,
    regular_partition_witnesses,
)


def main():
    parser = UsageParser(description=__doc__)
    parser.add_argument("--max-degree", type=int, default=9)
    parser.add_argument("--allow-nonuniform", action="store_true")
    args = parser.parse_args()
    limit = MAX_NONUNIFORM_DEGREE if args.allow_nonuniform else MAX_EXHAUSTIVE_DEGREE
    if args.max_degree > limit:
        usage_error(f"--max-degree {args.max_degree}: the section search stops at degree {limit}")

    for entry in catalog_up_to(args.max_degree):
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
