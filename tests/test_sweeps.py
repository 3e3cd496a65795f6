import gc
import hashlib
import itertools
import math
import random
import weakref

import numpy as np
import pytest

from synchrolab import sweeps
from synchrolab.catalog import (
    alternating_group,
    build_catalog,
    cyclic_group,
    dihedral_group,
    grid_group,
    projective_linear_group,
    symmetric_group,
)
from synchrolab.groups import PermutationGroup, orbit_labels, parse_group_text
from synchrolab.semigroups import group_and_map_closure
from synchrolab.sweeps import (
    MAX_ASSIGNMENT_ROWS,
    MAX_TABLE_PARTITIONS,
    STABILIZER_ENUMERATION_CAP,
    assignment_count,
    assignment_representatives,
    idempotent_instances_of_type,
    instances_of_type,
    kernel_orbit_representatives,
    kernel_types_of_rank,
    partition_count,
    partition_table,
    partitions_of_type,
)
from synchrolab.sync import synchronizes
from synchrolab.transformations import KernelType, Partition, Transformation
from test_groups import act_on_blocks, reference_chain


def map_of(kernel, assignment):
    """The map sending block i of the kernel to assignment[i]."""
    return Transformation(tuple(assignment[i] for i in kernel.block_index))


def all_maps_of_type(n, kt):
    """Oracle enumeration: every transformation with the given kernel type."""
    for blocks in partitions_of_type(kt):
        for assignment in itertools.permutations(range(n), kt.rank):
            yield map_of(blocks, assignment)


def instance_key(f):
    """(kernel blocks, assignment): the kernel of f and the image of each block."""
    blocks = f.kernel().blocks
    return blocks, tuple(f.images[block[0]] for block in blocks)


def canonical_kernel(group, blocks):
    """Minimal partition of the orbit plus a permutation u with blocks*u = rep."""
    best, word = min(group.orbit(blocks.blocks, act_on_blocks))
    return Partition(blocks.degree, best), group.element(word)


def canonical_instance(group, f):
    """A (kernel, assignment) key; equal keys mean the same generated semigroup.

    Two maps with equal keys are two-sided translates of one another, so
    their generated semigroups are equal as sets and closure results can be
    cached per key. The key is the kernel representative from
    canonical_kernel plus a right-translate normalised assignment. It is
    not canonical: the assignment is read in the block order of the
    representative, and the setwise stabilizer of the representative, which
    can permute those blocks, is not factored out. So two translates of one
    map can get different keys; a cache keyed by it then repeats a closure,
    but never shares one wrongly.
    """
    kernel, u = canonical_kernel(group, f.kernel())
    # ker(u^-1 * f) = ker(f) * u = kernel
    shifted = u.inverse() * f
    assignment = tuple(shifted.images[block[0]] for block in kernel.blocks)
    return kernel, normalise_assignment(group, assignment)


def normalise_assignment(group, assignment):
    """Right-translate the tuple so a maximal prefix reads 0, 1, 2, ...

    Coordinate i is moved to the point i by a transversal element of
    reference_chain, which fixes 0..i-1. The residual pointwise-stabilizer
    symmetry is removed by minimising over its elements when the stabilizer
    is small enough to enumerate.
    """
    n = group.degree
    t = min(group.transitivity_degree(), len(assignment))
    current = list(assignment)
    transversals = reference_chain(group)
    for i in range(t):
        u = transversals[i][current[i]]
        inv = [0] * n
        for x, y in enumerate(u):
            inv[y] = x
        current = [inv[x] for x in current]
        assert current[i] == i, "transversal normalisation failed"
    tup = tuple(current)
    if t > 0 and 1 < group.stabilizer_order(t) <= STABILIZER_ENUMERATION_CAP:
        tup = min(
            tuple(g[x] for x in tup)
            for g in group.stabilizer_elements(t, STABILIZER_ENUMERATION_CAP)
        )
    return tup


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


# SHA-256 of repr([p.blocks for p in partitions_of_type(kt)]), recorded
# from the recursive enumerator that the partition table replaced; the
# enumeration order is what "first appearance" of an orbit refers to
PARTITION_DIGESTS = [
    ((2, 2, 1, 1), 45, "baa710510f44cd6528749cb32fafbe1563f245cbdbed010c06e1e77ff5027229"),
    ((3, 2, 1, 1), 210, "4381ac6835fed331697a34b7c3b3f997d8e599a2114e9cc15509838cae70eb1a"),
    ((3, 3, 1, 1), 280, "e99d74d485f9887e7f5310750cf941dbb3cceb81b8b1097ffbcfe3d6b0eeea1a"),
    ((4, 2, 2), 210, "bbd814c972ac6e8ed5b2ab0238b4718880b3dccd5e8a41296708d1dac066009f"),
    ((3, 2, 2, 1, 1), 3780, "618b583053f33e7d4ad0c592e65f45403572b6f494e3e19057d5e8c9444211a4"),
    ((4, 3, 2), 1260, "b9b45ca45f90c9559f2ad4586c65d90410d8576baa01aabfa4046d104306e5a6"),
    ((2, 1, 1, 1, 1, 1, 1, 1), 36, "d7f047d3f83d7ca242cae82ea3adb03f346b6788222910248ac34284ef23e6d6"),
]


class TestPartitionEnumeration:
    @pytest.mark.parametrize("sizes,count,digest", PARTITION_DIGESTS, ids=str)
    def test_order_pinned(self, sizes, count, digest):
        blocks = [p.blocks for p in partitions_of_type(KernelType(sizes))]
        assert len(blocks) == count
        assert hashlib.sha256(repr(blocks).encode()).hexdigest() == digest

    def test_count_formula(self):
        for n in range(1, 9):
            for kt in all_kernel_types(n):
                assert partition_count(kt) == sum(1 for _ in partitions_of_type(kt)), kt

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


# degree 8-10: the degrees of the benchmark's sweeps
SWEPT_CATALOG = [e for e in build_catalog(10) if e.degree >= 8]


def swept_kernel_types(n):
    """The kernel types the theorem sweeps use at degree n.

    Ranks 3 and 4 (small-ranks), rank n-2 (rank-n-2), (3,2,1,...,1)
    (rankpres-32, idempotent-32) and (k,1,...,1) (rystsov and
    imprimitivity-char).
    """
    types = [kt for rank in (3, 4, n - 2) for kt in kernel_types_of_rank(n, rank)]
    types.append(KernelType((3, 2) + (1,) * (n - 5)))
    types.extend(KernelType((k,) + (1,) * (n - k)) for k in range(2, n))
    return list(dict.fromkeys(types))


def reference_representatives(group, kt):
    """Tuple-least member of each orbit, orbits in order of first appearance."""
    expected = []
    seen = set()
    for p in partitions_of_type(kt):
        if p.blocks not in seen:
            orbit = reference_orbit(group, p)
            seen |= orbit
            expected.append(min(orbit))
    return expected


class TestKernelOrbitWalk:
    @pytest.mark.parametrize("entry", SMALL_CATALOG, ids=lambda e: e.name)
    def test_reps_are_orbit_minima_in_first_seen_order(self, entry):
        group = entry.group
        for kt in all_kernel_types(group.degree):
            assert [
                r.blocks for r in kernel_orbit_representatives(group, kt)
            ] == reference_representatives(group, kt)

    @pytest.mark.parametrize("entry", SWEPT_CATALOG, ids=lambda e: e.name)
    def test_reps_match_reference_on_swept_types(self, entry):
        group = entry.group
        for kt in swept_kernel_types(group.degree):
            assert [
                r.blocks for r in kernel_orbit_representatives(group, kt)
            ] == reference_representatives(group, kt), kt

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


class TestPartitionTable:
    def test_oversize_type_refused_before_allocation(self):
        # 16! / (4!^4 * 4!) partitions; the formula alone decides
        kt = KernelType((4, 4, 4, 4))
        assert MAX_TABLE_PARTITIONS < 2_627_625
        with pytest.raises(ValueError, match="has 2,627,625 partitions"):
            partition_table(kt)
        with pytest.raises(ValueError, match="has 2,627,625 partitions"):
            kernel_orbit_representatives(symmetric_group(16), kt)

    def test_cached_arrays_are_read_only(self):
        table = partition_table(KernelType((3, 2, 1)))
        assert table is partition_table(KernelType((3, 2, 1)))
        for array in table:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[1]

    def test_tuple_order_sorts_block_tuples(self):
        # unequal block sizes, so some block is a prefix of another
        kt = KernelType((3, 2, 2, 1))
        table = partition_table(kt)
        order = [table.rows[i].tolist() for i in table.tuple_order]
        by_tuple = sorted(partitions_of_type(kt), key=lambda p: p.blocks)
        assert order == [list(p.block_index) for p in by_tuple]


def no_labelling(*args):
    raise AssertionError("orbits labelled again")


class TestKernelRepresentativeMemo:
    @pytest.mark.parametrize("entry", list(build_catalog(8)), ids=lambda e: e.name)
    def test_second_call_labels_nothing(self, entry, monkeypatch):
        group = entry.group
        types = all_kernel_types(group.degree)
        first = [kernel_orbit_representatives(group, kt) for kt in types]
        monkeypatch.setattr(sweeps, "orbit_labels", no_labelling)
        for kt, reps in zip(types, first):
            again = kernel_orbit_representatives(group, kt)
            assert again == reps and again is not reps, kt

    def test_group_from_the_same_generators_labels_again(self, monkeypatch):
        group = grid_group(3)
        kt = KernelType((3, 3, 3))
        reps = kernel_orbit_representatives(group, kt)
        calls = []
        monkeypatch.setattr(sweeps, "orbit_labels", lambda *a: calls.append(a) or orbit_labels(*a))
        twin = PermutationGroup(group.generators, group.degree)
        assert kernel_orbit_representatives(twin, kt) == reps
        assert kernel_orbit_representatives(twin, kt) == reps
        assert len(calls) == 1

    def test_mutating_a_result_leaves_the_memo_alone(self):
        group = cyclic_group(6)
        kt = KernelType((2, 2, 1, 1))
        reps = kernel_orbit_representatives(group, kt)
        expected = list(reps)
        reps.reverse()
        reps.pop()
        assert kernel_orbit_representatives(group, kt) == expected

    def test_entry_dies_with_its_group(self, monkeypatch):
        memo = weakref.WeakKeyDictionary()
        monkeypatch.setattr(sweeps, "_kernel_reps", memo)
        _, group = parse_group_text("degree 5\n(1 2 3 4 5)\n")
        kernel_orbit_representatives(group, KernelType((2, 1, 1, 1)))
        assert list(memo) == [group]
        ref = weakref.ref(group)
        del group
        gc.collect()
        assert ref() is None
        assert len(memo) == 0

    def test_refusal_does_not_depend_on_the_memo(self, monkeypatch):
        group = symmetric_group(7)
        kt = KernelType((4, 2, 1))
        kernel_orbit_representatives(group, kt)  # warm: now a memo hit
        monkeypatch.setattr(sweeps, "MAX_TABLE_PARTITIONS", 100)
        with pytest.raises(ValueError, match="has 105 partitions, more than the 100"):
            kernel_orbit_representatives(group, kt)


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

    @pytest.mark.parametrize(
        "group,rank,count",
        [(cyclic_group(13), 12, "479,001,600"), (grid_group(4), 15, "1,307,674,368,000")],
    )
    def test_oversize_array_refused_before_allocation(self, group, rank, count):
        # transitivity degree 1: (n - 1)! / (n - rank)! rows; the count alone decides
        with pytest.raises(ValueError, match=f"at transitivity degree 1 has {count} image"):
            assignment_representatives(group, rank)

    def test_largest_release_array_fits(self):
        # C11 at rank 10, the largest array the release sweeps build
        assert assignment_count(cyclic_group(11), 10) == 3_628_800 <= MAX_ASSIGNMENT_ROWS

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
        for f in instances_of_type(group, kt):
            reduced[instance_key(f)] = synchronizes(group, f).synchronizes
        for f in all_maps_of_type(n, kt):
            kernel, assignment = canonical_instance(group, f)
            key = (kernel.blocks, assignment)
            assert key in reduced, f"map {f} reduced to an unlisted instance"
            direct = synchronizes(group, f).synchronizes
            assert direct == reduced[key]

    def test_canonical_instance_idempotent_on_reps(self):
        group = cyclic_group(5)
        kt = KernelType((2, 2, 1))
        for f in instances_of_type(group, kt):
            kernel, assignment = canonical_instance(group, f)
            again = canonical_instance(group, map_of(kernel, assignment))
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


def idempotent_maps(group, kt):
    """The maps of idempotent_instances_of_type, each row gathered through its kernel."""
    for kernel, rows in idempotent_instances_of_type(group, kt):
        for assignment in rows.tolist():
            yield map_of(kernel, assignment)


class TestIdempotentInstances:
    def test_all_idempotent(self):
        group = symmetric_group(6)
        maps = list(idempotent_maps(group, KernelType((3, 2, 1))))
        assert maps and all(f.is_idempotent() for f in maps)

    def test_count_per_kernel(self):
        group = symmetric_group(6)
        pairs = list(idempotent_instances_of_type(group, KernelType((3, 2, 1))))
        # one kernel representative, 3 * 2 * 1 image choices
        assert len(pairs) == 1
        kernel, rows = pairs[0]
        assert rows.dtype == np.int8 and rows.shape == (6, 3)

    def test_covers_all_idempotents_up_to_conjugacy(self):
        group = cyclic_group(4)
        kt = KernelType((2, 1, 1))
        mine = {f.images for f in idempotent_maps(group, kt)}
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

    @pytest.mark.parametrize("rank", [0, -1, 5])
    def test_rank_outside_range(self, rank):
        with pytest.raises(ValueError, match=f"rank {rank} is outside 1..4"):
            kernel_types_of_rank(4, rank)

    def test_rank_extremes(self):
        assert [t.sizes for t in kernel_types_of_rank(4, 1)] == [(4,)]
        assert [t.sizes for t in kernel_types_of_rank(4, 4)] == [(1, 1, 1, 1)]
