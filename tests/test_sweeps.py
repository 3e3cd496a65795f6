import itertools
import math
import random

import numpy as np
import pytest

from synchrolab.catalog import (
    alternating_group,
    build_catalog,
    cyclic_group,
    dihedral_group,
    grid_group,
    projective_linear_group,
    symmetric_group,
)
from synchrolab.semigroups import group_and_map_closure
from synchrolab.sweeps import (
    STABILIZER_ENUMERATION_CAP,
    assignment_representatives,
    canonical_instance,
    canonical_kernel,
    count_instances_of_type,
    idempotent_instances_of_type,
    instances_of_type,
    kernel_orbit_representatives,
    kernel_types_of_rank,
    map_from_assignment,
    partitions_of_type,
)
from synchrolab.sync import synchronizes
from synchrolab.transformations import KernelType, Partition, Transformation


def all_maps_of_type(n, kt):
    """Oracle enumeration: every transformation with the given kernel type."""
    for blocks in partitions_of_type(kt):
        for assignment in itertools.permutations(range(n), kt.rank):
            yield Transformation(map_from_assignment(blocks, assignment))


def reference_assignment_representatives(group, rank):
    """The tuple generator the int8 assignment array replaced.

    The first min(t, rank) coordinates are pinned to 0, 1, ... (t the
    transitivity degree); the other coordinates run over all injections in
    lexicographic order, and a tuple is kept unless a non-identity element
    of the pointwise stabilizer, when that is enumerable, moves it to a
    lexicographically smaller tuple.
    """
    n = group.degree
    t = min(group.transitivity_degree(), rank)
    prefix = tuple(range(t))
    stab = None
    if t > 0 and 1 < group.stabilizer_order(t) <= STABILIZER_ENUMERATION_CAP:
        stab = [
            g
            for g in group.stabilizer_elements(t, STABILIZER_ENUMERATION_CAP)
            if any(g[x] != x for x in range(n))
        ]
    for suffix in itertools.permutations(range(t, n), rank - t):
        tup = prefix + suffix
        if stab and any(tuple(g[x] for x in tup) < tup for g in stab):
            continue
        yield tup


def reference_orbit(group, partition):
    """Orbit of a partition under the group through Partition.apply."""
    orbit = {partition.blocks}
    queue = [partition]
    while queue:
        cur = queue.pop()
        for g in group.generators:
            moved = cur.apply(g)
            if moved.blocks not in orbit:
                orbit.add(moved.blocks)
                queue.append(moved)
    return orbit


class TestPartitionEnumeration:
    def test_counts(self):
        # multinomial 9! / (3!^3 * 3!) partitions of type (3,3,3)
        kt = KernelType((3, 3, 3))
        assert sum(1 for _ in partitions_of_type(kt)) == 280

    def test_rank_n_minus_1_count(self):
        kt = KernelType((2, 1, 1, 1))
        assert sum(1 for _ in partitions_of_type(kt)) == math.comb(5, 2)

    def test_no_duplicates(self):
        kt = KernelType((2, 2, 1))
        seen = list(partitions_of_type(kt))
        assert len(seen) == len({p.blocks for p in seen}) == 15

    def test_all_have_right_type(self):
        kt = KernelType((3, 2, 1))
        for p in partitions_of_type(kt):
            assert p.kernel_type() == kt


class TestKernelRepresentatives:
    def test_symmetric_single(self):
        for kt in [KernelType((2, 1, 1, 1)), KernelType((3, 2)), KernelType((2, 2, 1))]:
            assert len(kernel_orbit_representatives(symmetric_group(5), kt)) == 1

    def test_singletons_single(self):
        kt = KernelType((1,) * 5)
        assert len(kernel_orbit_representatives(cyclic_group(5), kt)) == 1

    def test_grid_uniform_type(self):
        reps = kernel_orbit_representatives(grid_group(3), KernelType((3, 3, 3)))
        # rows/columns lie in one orbit; plenty of unaligned partitions remain
        assert len(reps) > 1
        rows = Partition.from_blocks(9, [[0, 1, 2], [3, 4, 5], [6, 7, 8]])
        cols = Partition.from_blocks(9, [[0, 3, 6], [1, 4, 7], [2, 5, 8]])
        covered = set()
        for rep in reps:
            orbit = reference_orbit(grid_group(3), rep)
            covered |= orbit
            if rows.blocks in orbit:
                assert cols.blocks in orbit
        # orbits cover every partition of the type exactly once
        assert len(covered) == 280

    def test_orbits_partition_the_type(self):
        group = cyclic_group(6)
        kt = KernelType((2, 2, 1, 1))
        reps = kernel_orbit_representatives(group, kt)
        total = sum(1 for _ in partitions_of_type(kt))
        sizes = 0
        for rep in reps:
            sizes += len(reference_orbit(group, rep))
        assert sizes == total


SMALL_CATALOG = list(build_catalog(7))


def all_kernel_types(n):
    return [kt for rank in range(1, n + 1) for kt in kernel_types_of_rank(n, rank)]


class TestKernelOrbitWalk:
    @pytest.mark.parametrize("entry", SMALL_CATALOG, ids=lambda e: e.name)
    def test_reps_are_orbit_minima_in_first_seen_order(self, entry):
        group = entry.group
        n = group.degree
        for kt in all_kernel_types(n):
            expected = []
            seen = set()
            for p in partitions_of_type(kt):
                if p.blocks not in seen:
                    orbit = reference_orbit(group, p)
                    seen |= orbit
                    expected.append(min(orbit))
            assert [r.blocks for r in kernel_orbit_representatives(group, kt)] == expected

    @pytest.mark.parametrize("entry", SMALL_CATALOG, ids=lambda e: e.name)
    def test_canonical_kernel_returns_rep_and_mover(self, entry):
        group = entry.group
        n = group.degree
        elements = group.elements()
        rng = random.Random(f"canonical-kernel:{entry.name}")
        for kt in all_kernel_types(n):
            for rep in kernel_orbit_representatives(group, kt):
                for _ in range(3):
                    moved = rep.apply(rng.choice(elements))
                    best, u = canonical_kernel(group, moved)
                    assert best == rep
                    assert group.contains(u)
                    assert moved.apply(u) == rep


class TestAssignmentRepresentatives:
    def test_symmetric_fully_normalised(self):
        reps = assignment_representatives(symmetric_group(6), 4)
        assert reps.tolist() == [[0, 1, 2, 3]]

    def test_alternating_rank_n_minus_1(self):
        reps = assignment_representatives(alternating_group(6), 5)
        assert len(reps) == 2

    def test_sharply_3_transitive_count(self):
        # pointwise stabilizer of 3 points is trivial: the count is exactly
        # the number of injections of the remaining coordinates
        group = projective_linear_group(5)
        reps = assignment_representatives(group, 5)
        assert len(reps) == math.perm(3, 2)

    def test_cyclic_prefix_only(self):
        reps = assignment_representatives(cyclic_group(5), 2)
        assert all(r[0] == 0 for r in reps)
        assert len(reps) == 4

    def test_dihedral_dedup(self):
        # the reflection fixing 0 pairs y with 7-y, and fixes nothing
        reps = assignment_representatives(dihedral_group(7), 2)
        assert reps.tolist() == [[0, 1], [0, 2], [0, 3]]

    @pytest.mark.parametrize("entry", build_catalog(10), ids=lambda e: e.name)
    def test_rows_match_reference_generator(self, entry):
        group = entry.group
        for rank in range(1, group.degree + 1):
            rows = assignment_representatives(group, rank)
            assert rows.dtype == np.int8 and rows.shape[1] == rank
            expected = list(reference_assignment_representatives(group, rank))
            assert [tuple(row) for row in rows.tolist()] == expected, rank


class TestReductionSoundness:
    """Every map's verdict must match its reduced representative's verdict."""

    @pytest.mark.parametrize(
        "group,kt",
        [
            (cyclic_group(4), KernelType((2, 1, 1))),
            (cyclic_group(5), KernelType((2, 2, 1))),
            (dihedral_group(5), KernelType((3, 1, 1))),
            (symmetric_group(4), KernelType((2, 1, 1))),
            (grid_group(2), KernelType((2, 1, 1))),
        ],
    )
    def test_full_enumeration_agrees(self, group, kt):
        n = group.degree
        reduced = {}
        for inst in instances_of_type(group, kt):
            verdict = synchronizes(group, inst.transformation())
            reduced[(inst.kernel.blocks, inst.assignment)] = verdict.synchronizes
        for f in all_maps_of_type(n, kt):
            kernel, assignment = canonical_instance(group, f)
            key = (kernel.blocks, assignment)
            assert key in reduced, f"map {f} reduced to an unlisted instance"
            direct = synchronizes(group, f).synchronizes
            assert direct == reduced[key]

    def test_canonical_instance_idempotent_on_reps(self):
        group = cyclic_group(5)
        kt = KernelType((2, 2, 1))
        for inst in instances_of_type(group, kt):
            kernel, assignment = canonical_instance(group, inst.transformation())
            again = canonical_instance(
                group, Transformation(map_from_assignment(kernel, assignment))
            )
            assert again == (kernel, assignment)


class TestCanonicalInstanceKeys:
    """Equal keys must mean equal closures, or a closure cache would lie.

    The key is not canonical, so translates of one map may get different
    keys; that only costs repeated closures and is not asserted here.
    """

    @pytest.mark.parametrize(
        "name,group",
        [
            ("C4", cyclic_group(4)),
            ("C6", cyclic_group(6)),
            ("D5", dihedral_group(5)),
            ("S4", symmetric_group(4)),
            ("grid-2", grid_group(2)),
        ],
    )
    def test_equal_keys_have_equal_closures(self, name, group):
        n = group.degree
        rng = random.Random(f"canonical-key:{name}")
        elements = group.elements()
        by_key = {}
        for _ in range(30):
            f = Transformation(tuple(rng.randrange(n) for _ in range(n)))
            for _ in range(5):
                g = rng.choice(elements) * f * rng.choice(elements)
                kernel, assignment = canonical_instance(group, g)
                by_key.setdefault((kernel.blocks, assignment), {})[g.images] = g
        compared = 0
        for maps in by_key.values():
            first, *rest = maps.values()
            expected = set(map(bytes, group_and_map_closure(group, first).matrix))
            for g in rest:
                assert set(map(bytes, group_and_map_closure(group, g).matrix)) == expected
                compared += 1
        assert compared >= 50


class TestIdempotentInstances:
    def test_all_idempotent(self):
        group = symmetric_group(6)
        for inst in idempotent_instances_of_type(group, KernelType((3, 2, 1))):
            assert inst.transformation().is_idempotent()

    def test_count_per_kernel(self):
        group = symmetric_group(6)
        insts = list(idempotent_instances_of_type(group, KernelType((3, 2, 1))))
        # one kernel representative, 3 * 2 * 1 image choices
        assert len(insts) == 6

    def test_covers_all_idempotents_up_to_conjugacy(self):
        group = cyclic_group(4)
        kt = KernelType((2, 1, 1))
        mine = {i.images for i in idempotent_instances_of_type(group, kt)}
        # oracle: all idempotents of the type, then close under conjugation
        everything = {
            f.images
            for f in all_maps_of_type(4, kt)
            if f.is_idempotent()
        }
        reachable = set(mine)
        frontier = list(mine)
        while frontier:
            images = frontier.pop()
            for g in group.elements():
                gi = g.inverse().images
                conj = tuple(g.images[images[gi[x]]] for x in range(4))
                if conj not in reachable:
                    reachable.add(conj)
                    frontier.append(conj)
        assert reachable == everything


class TestTypeTables:
    def test_rank_types(self):
        types = kernel_types_of_rank(6, 2)
        assert {t.sizes for t in types} == {(5, 1), (4, 2), (3, 3)}

    def test_counts_match_instances(self):
        group = cyclic_group(5)
        kt = KernelType((2, 1, 1, 1))
        assert count_instances_of_type(group, kt) == sum(
            1 for _ in instances_of_type(group, kt)
        )
