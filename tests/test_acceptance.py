"""Acceptance suite: the seven release criteria, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete; the whole module is single-threaded and takes
about a minute on a 2-CPU host, most of it in criterion 1 (about 30 s)
and criterion 3 (about 16 s).
"""
import itertools
import os
import random
import time
from dataclasses import dataclass, field

import pytest

from synchrolab.catalog import build_catalog, find_entry
from synchrolab.experiments import (
    Budget,
    check_rank_preserving_pairs,
    grid_projection,
    harvest_rank_preserving_pairs,
    verify_theorem,
)
from synchrolab.groups import PermutationGroup
from synchrolab.semigroups import (
    TruncatedClosureError,
    group_and_map_closure,
    is_group_section,
    regular_partition_witnesses,
)
from synchrolab.sweeps import canonical_instance, kernel_orbit_representatives
from synchrolab.sync import cerny_bound, shortest_word_length, synchronizes, word_transformation
from synchrolab.transformations import (
    KernelType,
    Transformation,
    format_transformation,
    parse_transformation,
)

CAP = int(os.environ.get("SYNCHROLAB_CAP", "1000000"))
RANDOM_MAPS_PER_GROUP = 200


def _line(text):
    print(f"\n{text}")


def _types_rank_ge_n_minus_2(n):
    types = [KernelType(tuple([2] + [1] * (n - 2)))]
    if n >= 4:
        types.append(KernelType(tuple([3] + [1] * (n - 3))))
        types.append(KernelType(tuple([2, 2] + [1] * (n - 4))))
    return types


@dataclass
class OracleSweep:
    checked: int = 0
    skipped_truncated: int = 0
    mismatches: list = field(default_factory=list)
    sync_instances: list = field(default_factory=list)  # (entry, f, verdict)
    nonsync_instances: list = field(default_factory=list)  # (entry, f)
    elapsed: float = 0.0


@pytest.fixture(scope="module")
def oracle_sweep():
    """Criterion 1 work, shared with criteria 5 and 6."""
    started = time.monotonic()
    data = OracleSweep()
    all_pairs = {}
    for entry in build_catalog(8):
        group = entry.group
        n = entry.degree
        if n not in all_pairs:
            all_pairs[n] = set(itertools.combinations(range(n), 2))
        maps = []
        for kt in _types_rank_ge_n_minus_2(n):
            for rep in kernel_orbit_representatives(group, kt):
                images = tuple(rep.blocks[rep.block_index[x]][0] for x in range(n))
                maps.append(Transformation(images))
        rng = random.Random(f"criterion1:{entry.name}")
        for _ in range(RANDOM_MAPS_PER_GROUP):
            maps.append(Transformation(tuple(rng.randrange(n) for _ in range(n))))
        cache = {}
        for f in maps:
            verdict = synchronizes(group, f)
            if verdict.synchronizes:
                data.sync_instances.append((entry, f, verdict))
            else:
                data.nonsync_instances.append((entry, f))
            kernel, assignment = canonical_instance(group, f)
            key = (kernel.blocks, assignment)
            if key not in cache:
                try:
                    c = group_and_map_closure(group, f, cap=CAP)
                    cache[key] = (
                        c.contains_constant(),
                        c.min_rank,
                        c.collapsed_pairs(),
                    )
                except TruncatedClosureError:
                    cache[key] = None
            oracle = cache[key]
            if oracle is None:
                data.skipped_truncated += 1
                continue
            has_constant, min_rank, collapsed = oracle
            data.checked += 1
            problems = []
            if verdict.synchronizes != has_constant:
                problems.append("verdict mismatch")
            if set(verdict.obstruction.edges()) != all_pairs[n] - collapsed:
                problems.append("edge set mismatch")
            if verdict.min_rank_bound != min_rank:
                problems.append(
                    f"min rank {verdict.min_rank_bound} != oracle {min_rank}"
                )
            if problems:
                data.mismatches.append(
                    (entry.name, format_transformation(f), "; ".join(problems))
                )
    data.elapsed = time.monotonic() - started
    return data


def test_criterion_1_oracle_equivalence(oracle_sweep):
    data = oracle_sweep
    status = "PASS" if not data.mismatches and data.elapsed < 600 else "FAIL"
    _line(
        f"criterion 1 oracle equivalence: {status} "
        f"({data.checked} instances matched, {data.skipped_truncated} skipped "
        f"with truncated closures, {data.elapsed:.0f}s)"
    )
    assert data.mismatches == []
    assert data.elapsed < 600, "criterion 1 must finish within 10 minutes"


def test_criterion_2_grid_counterexample():
    entry = find_entry("grid-3")
    group = entry.group
    assert group.order() == 72 and group.is_primitive()
    f = grid_projection(3)
    verdict = synchronizes(group, f)
    graph = verdict.obstruction
    clique = graph.clique_number()
    chromatic = graph.chromatic_number()
    c = group_and_map_closure(group, f, cap=CAP)
    ok = (
        not verdict.synchronizes
        and graph.edge_count == 18
        and graph.regular_valency() == 4
        and clique == chromatic == 3
        and c.min_rank == 3
        and graph.equal_neighbourhood_pairs() == []
        and graph.near_clique_witness(3) is None
    )
    _line(
        f"criterion 2 grid counterexample: {'PASS' if ok else 'FAIL'} "
        f"(non-synchronizing, 18 edges, 4-regular, clique=chromatic=min rank=3, "
        f"neighbourhood and near-clique checks clean)"
    )
    assert not verdict.synchronizes
    assert graph.edge_count == 18
    assert graph.regular_valency() == 4
    assert clique == 3 and chromatic == 3 and c.min_rank == 3
    assert graph.equal_neighbourhood_pairs() == []
    assert graph.near_clique_witness(3) is None


SWEEP_IDS = [
    ("rystsov", 12),
    ("imprimitivity-char", 10),
    ("rank-n-2", 10),
    ("idempotent-32", 10),
    ("rankpres-32", 10),
    ("small-ranks", 10),
    ("no-rank-r-plus-1", 10),
    ("split-one-part", 10),
]


@pytest.fixture(scope="module")
def theorem_reports():
    reports = {}
    for theorem_id, degree in SWEEP_IDS:
        reports[theorem_id] = verify_theorem(
            theorem_id, max_degree=degree, budget=Budget(seconds=1800.0), cap=CAP
        )
    return reports


def test_criterion_3_theorem_sweeps(theorem_reports):
    failures = []
    for theorem_id, degree in SWEEP_IDS:
        report = theorem_reports[theorem_id]
        ok = report.status == "pass" and report.wall_time < 1800
        _line(
            f"criterion 3 sweep {theorem_id} (degree {degree}): "
            f"{'PASS' if ok else 'FAIL'} "
            f"({report.instances_tested} instances, "
            f"{len(report.counterexamples)} counterexamples, "
            f"{report.wall_time:.0f}s)"
        )
        if not ok:
            failures.append((theorem_id, report.status, report.counterexamples))
    assert failures == []


def test_criterion_4_idempotent_construction():
    pairs = harvest_rank_preserving_pairs(max_degree=8, minimum=500)
    count = check_rank_preserving_pairs(pairs[:500])
    _line(
        f"criterion 4 idempotent with matching kernel: "
        f"{'PASS' if count == 500 else 'FAIL'} ({count}/500 pairs verified)"
    )
    assert count == 500


def test_criterion_5_synchronizing_words(oracle_sweep):
    checked = 0
    benchmark_exceeded = []
    for entry, f, verdict in oracle_sweep.sync_instances:
        group = entry.group
        word = verdict.witness_word
        composed = word_transformation(group, f, word)
        assert composed.rank() == 1, "witness word must compose to a constant"
        checked += 1
        if entry.degree <= 5:
            shortest = shortest_word_length(group, f)
            assert shortest is not None
            assert len(word) >= shortest
        if len(word) > cerny_bound(entry.degree):
            benchmark_exceeded.append(
                (entry.name, format_transformation(f), len(word))
            )
    note = (
        f"; NOTABLE: {len(benchmark_exceeded)} words beyond (n-1)^2"
        if benchmark_exceeded
        else "; none beyond the (n-1)^2 benchmark"
    )
    _line(
        f"criterion 5 synchronizing words: PASS "
        f"({checked} words verified constant, shortest-length bound held at "
        f"degree <= 5{note})"
    )
    for name, text, length in benchmark_exceeded:
        print(f"  notable: {name} {text} word length {length}")
    assert checked > 0


def test_criterion_6_structural_identities(oracle_sweep, theorem_reports):
    instances = list(oracle_sweep.nonsync_instances)
    table = {e.name: e for e in build_catalog(12)}
    for report in theorem_reports.values():
        for record in report.witnesses:
            entry = table[record.group]
            f = parse_transformation(record.map_text, degree=entry.degree)
            instances.append((entry, f))
    grid = find_entry("grid-3")
    instances.append((grid, grid_projection(3)))
    violations = []
    for entry, f in instances:
        graph = synchronizes(entry.group, f).obstruction
        for g in entry.group.generators:
            if not graph.is_endomorphism(g):
                violations.append((entry.name, format_transformation(f), "generator"))
        if not graph.is_endomorphism(f):
            violations.append((entry.name, format_transformation(f), "map"))
        if graph.clique_number() != graph.chromatic_number():
            violations.append(
                (entry.name, format_transformation(f), "clique != chromatic")
            )
    status = "PASS" if not violations else "FAIL"
    _line(
        f"criterion 6 structural identities: {status} "
        f"({len(instances)} non-synchronizing instances, "
        f"{len(violations)} violations)"
    )
    assert violations == []


def test_criterion_7_depth():
    started = time.monotonic()
    grid = find_entry("grid-3").group
    grid_witnesses = regular_partition_witnesses(grid)
    sizes = [w.size for w in grid_witnesses]
    ok_grid = 3 in sizes
    for w in grid_witnesses:
        assert is_group_section(grid, w.section, w.partition)
    c5 = regular_partition_witnesses(find_entry("C5").group)
    s5 = regular_partition_witnesses(find_entry("S5").group)
    # full exhaustive pass over every transitive catalog group of degree <= 9
    swept = 0
    for entry in build_catalog(9):
        regular_partition_witnesses(entry.group)
        swept += 1
    elapsed = time.monotonic() - started
    ok = ok_grid and len(c5) <= 1 and len(s5) <= 1 and elapsed < 600
    _line(
        f"criterion 7 depth search: {'PASS' if ok else 'FAIL'} "
        f"(grid sizes {sizes} with verified section, C5/S5 have none, "
        f"{swept} groups swept exhaustively in {elapsed:.0f}s)"
    )
    assert ok_grid
    assert len(c5) <= 1 and len(s5) <= 1
    assert elapsed < 600
