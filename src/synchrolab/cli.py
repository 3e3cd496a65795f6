"""Command-line interface.

Subcommands: catalog list|show, check, word, gr, verify, depth, scan,
closure. The environment variable SYNCHROLAB_CAP overrides the default
closure cap. verify exits 0 on pass, 1 when a counterexample was found and
2 when the budget ran out (inconclusive). Bad input, whether a malformed
argument value, an unknown group, a kernel type too large to enumerate
(scan, verify), a selection with nothing in it (scan with no group left,
catalog list below degree 3, verify passing with 0 instances), an output
path that cannot be written (check, gr, closure) or a command line argparse
rejects, exits 64 (EX_USAGE), a status no verify outcome uses; all but the
last print one ``error: ...`` line. The scripts under scripts/ refuse bad
input through the same public helpers (usage_error, UsageParser,
check_max_degree, catalog_up_to, check_budget). When the reader of the
output goes away (``| head``), every subcommand stops quietly with exit
141, the status of a process ended by SIGPIPE.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import NoReturn

from .catalog import CatalogEntry, build_catalog, find_entry
from .experiments import THEOREMS, Budget, InstanceRecord, verify_theorem
from .groups import PermutationGroup, load_group_file
from .reports import instance_record_json, report_emit
from .semigroups import (
    DEFAULT_CLOSURE_CAP,
    group_and_map_closure,
    regular_partition_witnesses,
)
from .sweeps import instances_of_type, kernel_types_of_rank, partition_count
from .sync import SyncVerdict, cerny_bound, synchronizes
from .transformations import (
    MAX_DEGREE,
    KernelType,
    Transformation,
    format_cycles,
    format_transformation,
    parse_transformation,
)

EX_USAGE = 64


def usage_error(message: str) -> NoReturn:
    """One ``error: ...`` line on stderr, then exit EX_USAGE."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(EX_USAGE)


class UsageParser(argparse.ArgumentParser):
    """An argparse parser whose command-line errors exit EX_USAGE, not 2."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def check_max_degree(value: int, flag: str = "--max-degree") -> int:
    """A degree bound given by flag, or one error line when the catalog cannot reach it."""
    if value > MAX_DEGREE:
        usage_error(f"{flag} {value}: catalog degrees stop at {MAX_DEGREE}")
    return value


def catalog_up_to(max_degree: int) -> list[CatalogEntry]:
    """The catalog to --max-degree, or one error line when that selects no group."""
    entries = build_catalog(check_max_degree(max_degree))
    if not entries:
        usage_error(f"--max-degree {max_degree}: the catalog starts at degree 3")
    return entries


def check_budget(seconds: float, max_instances: int | None = None) -> Budget:
    """The sweep budget of --budget-seconds and --max-instances, or one error line."""
    if not seconds >= 0:  # also false for nan
        usage_error(f"--budget-seconds {seconds}: a budget is at least 0 seconds")
    if max_instances is not None and max_instances < 0:
        usage_error(f"--max-instances {max_instances}: a budget is at least 0 instances")
    return Budget(seconds=seconds, max_instances=max_instances)


def _closure_cap(flag: str | None = None) -> int:
    """The --cap value, else SYNCHROLAB_CAP, else the default; at least 1."""
    source, value = "--cap", flag
    if value is None:
        source, value = "SYNCHROLAB_CAP", os.environ.get("SYNCHROLAB_CAP")
        if not value:
            return DEFAULT_CLOSURE_CAP
    try:
        cap = int(value)
    except ValueError:
        cap = 0
    if cap < 1:
        usage_error(f"{source} must be a positive integer, got {value!r}")
    return cap


def _load_group(spec: str) -> tuple[str, PermutationGroup]:
    """A group file path, or a catalog entry name such as S5 or grid-3."""
    path = Path(spec)
    if path.exists():
        try:
            name, group = load_group_file(path)
        except (OSError, ValueError) as exc:
            usage_error(f"--group {spec!r}: {exc}")
        return name or path.stem, group
    try:
        return spec, find_entry(spec).group
    except KeyError:
        usage_error(f"{spec!r} is neither a readable file nor a catalog entry name")


def _parse_arg(flag: str, text: str, parse):
    """parse(text), or one error line naming the flag when the text is malformed."""
    try:
        return parse(text)
    except ValueError as exc:
        usage_error(f"{flag} {text!r}: {exc}")


def _parse_map(text: str, group: PermutationGroup) -> Transformation:
    return _parse_arg(
        "--map", text, lambda t: parse_transformation(t, degree=group.degree)
    )


def _write_output(flag: str, path: str, text: str):
    """Write text to path, or one error line naming the flag when that fails."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        usage_error(f"{flag} {path!r}: {exc.strerror or exc}")


def _verdict_json(
    group: str, f: Transformation, verdict: SyncVerdict, note: str = ""
) -> str:
    """The one-line JSON instance record of a verdict, as verify reports write it."""
    word = verdict.witness_word
    record = InstanceRecord(
        group=group,
        map_text=format_transformation(f),
        verdict=verdict.synchronizes,
        min_rank=verdict.min_rank_bound,
        word_length=len(word) if word else None,
        note=note,
    )
    return instance_record_json(record)


def _add_instance_args(p: argparse.ArgumentParser):
    p.add_argument("--group", required=True, help="group file or catalog name")
    p.add_argument("--map", required=True, help="map as [i1,...,in] (1-based) or cycles")


def cmd_catalog(args) -> int:
    if args.action == "list":
        for entry in catalog_up_to(args.max_degree):
            exp = entry.expected
            print(
                f"{entry.name:<12} degree {entry.degree:<3} "
                f"order {exp.order:<12} "
                f"{'primitive' if exp.primitive else 'imprimitive'}"
            )
        return 0
    try:
        entry = find_entry(args.name)
    except KeyError:
        usage_error(f"no catalog entry named {args.name!r}")
    g = entry.group
    print(f"name:        {entry.name}")
    print(f"degree:      {entry.degree}")
    print(f"description: {entry.description}")
    print(f"order:       {g.order()}")
    print(f"transitive:  {g.is_transitive()}")
    print(f"primitive:   {g.is_primitive()}")
    print(f"2-transitive:{g.is_2_transitive()}")
    print(f"pair orbits: {len(g.pair_orbits())}")
    for gen in g.generators:
        print(f"generator:   {format_cycles(gen)}")
    return 0


def cmd_check(args) -> int:
    name, group = _load_group(args.group)
    f = _parse_map(args.map, group)
    verdict = synchronizes(group, f)
    if args.emit_dot:  # before any output, so a bad path leaves only the error line
        _write_output("--emit-dot", args.emit_dot, verdict.obstruction.to_dot())
    print(
        f"{name}: {'synchronizes' if verdict.synchronizes else 'does NOT synchronize'} "
        f"{format_transformation(f)}"
    )
    if verdict.note:
        print(f"note: {verdict.note}")
    if verdict.synchronizes and args.word:
        print("word: " + " ".join(verdict.witness_word))
    if not verdict.synchronizes:
        print(
            f"obstruction graph: {verdict.obstruction.edge_count} edges, "
            f"min rank {verdict.min_rank_bound}"
        )
    print(_verdict_json(name, f, verdict, verdict.note or ""))
    return 0


def cmd_word(args) -> int:
    name, group = _load_group(args.group)
    f = _parse_map(args.map, group)
    verdict = synchronizes(group, f)
    if not verdict.synchronizes:
        print(f"{name} does not synchronize {format_transformation(f)}")
        return 1
    word = verdict.witness_word
    bound = cerny_bound(group.degree)
    print(" ".join(word))
    flag = "  (exceeds the (n-1)^2 benchmark!)" if len(word) > bound else ""
    print(f"length {len(word)}, benchmark (n-1)^2 = {bound}{flag}", file=sys.stderr)
    return 0


def cmd_gr(args) -> int:
    name, group = _load_group(args.group)
    f = _parse_map(args.map, group)
    graph = synchronizes(group, f).obstruction
    text = graph.to_adjacency_text() if args.adjacency else graph.to_dot()
    if args.emit_dot:
        _write_output("--emit-dot", args.emit_dot, text)
        print(f"wrote {args.emit_dot}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(args) -> int:
    budget = check_budget(args.budget_seconds, args.max_instances)
    max_degree = check_max_degree(args.max_degree)
    try:
        report = verify_theorem(args.id, max_degree=max_degree, budget=budget, cap=_closure_cap())
    except ValueError as exc:  # a vacuous pass, or a kernel type too large for a table
        usage_error(f"verify {args.id} --max-degree {max_degree}: {exc}")
    sys.stdout.write(report_emit(report, args.format, include_timings=args.timings))
    return {"pass": 0, "fail": 1, "inconclusive": 2}[report.status]


def cmd_depth(args) -> int:
    name, group = _load_group(args.group)
    try:
        witnesses = regular_partition_witnesses(group, allow_nonuniform=args.allow_nonuniform)
    except ValueError as exc:  # an intransitive group, or a degree the search refuses
        usage_error(f"--group {args.group!r}: {exc}")
    if not witnesses:
        print(f"{name}: no nontrivial stable-section partition sizes; depth = inf")
        return 0
    sizes = [w.size for w in witnesses]
    d = sizes[1] - sizes[0] if len(sizes) > 1 else "inf"
    print(f"{name}: sizes {sizes}, depth = {d}")
    for w in witnesses:
        section = ",".join(str(x + 1) for x in w.section)
        print(f"  size {w.size}: partition {w.partition} section {{{section}}}")
    return 0


def cmd_scan(args) -> int:
    if args.rank is not None and args.rank < 1:
        usage_error(f"--rank {args.rank}: a rank is at least 1")
    max_degree = check_max_degree(args.max_degree)
    entries = build_catalog(max_degree)
    if args.degree:
        entries = [e for e in entries if e.degree == args.degree]
    wanted_type = None
    if args.kernel_type:
        wanted_type = _parse_arg("--kernel-type", args.kernel_type, KernelType.parse)
    selected = []
    for entry in entries:
        n = entry.degree
        if wanted_type is not None:
            if wanted_type.degree != n:
                continue
            types = [wanted_type]
        elif args.rank is not None:
            if args.rank >= n:
                continue
            types = kernel_types_of_rank(n, args.rank)
        else:
            types = kernel_types_of_rank(n, n - 1)
        selected.append((entry, types))
    if not selected:
        usage_error(
            f"no catalog group of degree <= {max_degree} fits these filters; "
            "--rank must be below the degree and --kernel-type must sum to it"
        )
    try:  # refuse a kernel type too large to enumerate before printing anything
        for _, types in selected:
            for kt in types:
                partition_count(kt)
    except ValueError as exc:
        usage_error(str(exc))
    for entry, types in selected:
        for kt in types:
            for inst in instances_of_type(entry.group, kt):
                f = inst.transformation()
                print(_verdict_json(entry.name, f, synchronizes(entry.group, f)))
    return 0


def cmd_closure(args) -> int:
    cap = _closure_cap(args.cap)
    name, group = _load_group(args.group)
    f = _parse_map(args.map, group)
    c = group_and_map_closure(group, f, cap=cap)
    text = c.dump()
    if args.out:
        _write_output("--out", args.out, text)
        print(f"wrote {len(c)} elements to {args.out}" + (" (truncated)" if c.truncated else ""))
    else:
        sys.stdout.write(text)
        if c.truncated:
            print("warning: closure truncated at cap", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = UsageParser(
        prog="synchrolab",
        description="synchronization checker for permutation groups plus a map",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list or inspect the built-in groups")
    catsub = p.add_subparsers(dest="action", required=True)
    pl = catsub.add_parser("list")
    pl.add_argument("--max-degree", type=int, default=12)
    pl.set_defaults(func=cmd_catalog, action="list")
    ps = catsub.add_parser("show")
    ps.add_argument("name")
    ps.set_defaults(func=cmd_catalog, action="show")

    p = sub.add_parser("check", help="decide synchronization of one instance")
    _add_instance_args(p)
    p.add_argument("--emit-dot", metavar="PATH", help="write the obstruction graph as DOT")
    p.add_argument("--word", action="store_true", help="print a synchronizing word")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("word", help="print a synchronizing word")
    _add_instance_args(p)
    p.set_defaults(func=cmd_word)

    p = sub.add_parser("gr", help="print or save the obstruction graph")
    _add_instance_args(p)
    p.add_argument("--emit-dot", metavar="PATH")
    p.add_argument("--adjacency", action="store_true", help="0/1 matrix instead of DOT")
    p.set_defaults(func=cmd_gr)

    p = sub.add_parser("verify", help="run one theorem experiment")
    p.add_argument("id", choices=sorted(THEOREMS))
    p.add_argument("--max-degree", type=int, default=10)
    p.add_argument("--budget-seconds", type=float, default=1800.0)
    p.add_argument("--max-instances", type=int, default=None)
    p.add_argument("--format", choices=["table", "jsonl"], default="table")
    p.add_argument("--timings", action="store_true", help="include wall time (non-canonical)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("depth", help="stable-section partition sizes and depth")
    p.add_argument("--group", required=True)
    p.add_argument("--allow-nonuniform", action="store_true")
    p.set_defaults(func=cmd_depth)

    p = sub.add_parser("scan", help="free sweep with filters, jsonl output")
    p.add_argument("--max-degree", type=int, default=8)
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--kernel-type", default=None, help="e.g. '3,2,1,1'")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("closure", help="dump the semigroup closure, one map per line")
    _add_instance_args(p)
    p.add_argument("--cap", default=None, help="at most this many elements")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_closure)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout now points at nothing, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
