import itertools
import random
from dataclasses import dataclass

import numpy as np
import pytest

from synchrolab import semigroups
from synchrolab.catalog import (
    build_catalog,
    cyclic_group,
    dihedral_group,
    grid_group,
    symmetric_group,
)
from synchrolab.groups import GroupTooLargeError, PermutationGroup
from synchrolab.semigroups import (
    DEFAULT_CLOSURE_CAP,
    DENSE_MIN_ELEMENTS,
    SemigroupClosure,
    TruncatedClosureError,
    closure,
    coblock_graph,
    find_rank_preserving_g,
    group_and_map_closure,
    idempotent_same_kernel,
    is_group_section,
    min_rank,
    regular_partition_sizes,
    regular_partition_witnesses,
)
from synchrolab.sweeps import kernel_orbit_representatives, kernel_types_of_rank
from synchrolab.sync import obstruction_graph
from synchrolab.transformations import (
    MAX_DEGREE,
    Partition,
    Transformation,
    compose,
    constant,
    identity,
    parse_cycles,
)


def t(*images_1based):
    return Transformation(tuple(x - 1 for x in images_1based))


GRID = grid_group(3)
GRID_PROJECTION = Transformation(tuple((x // 3) * 4 for x in range(9)))
ROWS = Partition.from_blocks(9, [[0, 1, 2], [3, 4, 5], [6, 7, 8]])


class TestClosure:
    def test_single_constant(self):
        c = closure([constant(4, 2)])
        assert len(c) == 1
        assert c.min_rank == 1

    def test_s3_with_collapse(self):
        c = group_and_map_closure(symmetric_group(3), t(1, 1, 3))
        assert c.contains_constant()
        assert c.min_rank == 1
        # S3 plus a rank-2 map generates everything except nothing: 3^3 maps
        assert len(c) == 27

    def test_grid_instance(self):
        c = group_and_map_closure(GRID, GRID_PROJECTION)
        assert not c.truncated
        assert c.min_rank == 3
        assert not c.contains_constant()
        assert c.rank_spectrum == (3, 9)

    def test_truncation_flag_and_errors(self):
        c = group_and_map_closure(symmetric_group(5), t(1, 1, 3, 4, 5), cap=50)
        assert c.truncated
        with pytest.raises(TruncatedClosureError):
            c.min_rank
        with pytest.raises(TruncatedClosureError):
            c.contains_constant()
        with pytest.raises(TruncatedClosureError):
            min_rank(c)

    def test_discovery_order_deterministic(self):
        a = group_and_map_closure(cyclic_group(4), t(1, 1, 3, 4))
        b = group_and_map_closure(cyclic_group(4), t(1, 1, 3, 4))
        assert a.dump() == b.dump()

    def test_dump_format(self):
        c = closure([constant(3, 0)])
        assert c.dump() == "[1,1,1]\n"

    def test_closed_under_composition(self):
        c = group_and_map_closure(cyclic_group(4), t(1, 1, 3, 4))
        elements = {e.images for e in c.iter_elements()}
        for a, b in itertools.product(list(elements)[:50], repeat=2):
            prod = tuple(b[x] for x in a)
            assert prod in elements

    def test_contains(self):
        c = group_and_map_closure(symmetric_group(3), t(1, 1, 3))
        assert c.contains(constant(3, 0))
        assert c.contains(identity(3))

    def test_cap_below_one_rejected(self):
        with pytest.raises(ValueError):
            closure([constant(3, 0)], cap=0)

    def test_cap_cuts_the_generator_list(self):
        gens = list(symmetric_group(3).generators) + [t(1, 1, 3)]
        c = closure(gens, cap=1)
        assert len(c) == 1 and c.truncated
        assert c.matrix.tobytes() == bytes(gens[0].images)


def reference_closure(generators, cap):
    """The per-element bytes.translate BFS that closure must reproduce."""
    degree = generators[0].degree
    tables = [bytes(g.images) + bytes(range(degree, 256)) for g in generators]
    seen = set()
    order = []
    truncated = False
    for g in generators:
        b = bytes(g.images)
        if b not in seen:
            if len(order) >= cap:
                truncated = True
                break
            seen.add(b)
            order.append(b)
    frontier = list(order)
    while frontier and not truncated:
        new_frontier = []
        for w in frontier:
            for table in tables:
                prod = w.translate(table)
                if prod not in seen:
                    if len(order) >= cap:
                        truncated = True
                        break
                    seen.add(prod)
                    order.append(prod)
                    new_frontier.append(prod)
            if truncated:
                break
        frontier = new_frontier
    return b"".join(order), truncated


@dataclass(frozen=True)
class WideMap:
    """A map given by its images, at a degree above MAX_DEGREE."""

    images: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.images)


def reference_ranks(matrix):
    """Image sizes by sorting every row: the count of value changes, plus one."""
    s = np.sort(matrix, axis=1)
    return (s[:, 1:] != s[:, :-1]).sum(axis=1).astype(np.int64) + 1


def reference_collapsed_pairs(matrix):
    """Every pair compared on every row."""
    n = matrix.shape[1]
    return frozenset(
        (v, w)
        for v in range(n)
        for w in range(v + 1, n)
        if (matrix[:, v] == matrix[:, w]).any()
    )


def assert_analysis_matches_reference(c):
    ranks = reference_ranks(c.matrix)
    assert c.ranks.dtype == ranks.dtype
    assert np.array_equal(c.ranks, ranks)
    if c.truncated:
        with pytest.raises(TruncatedClosureError):
            c.collapsed_pairs()
        return
    assert c.rank_spectrum == tuple(int(r) for r in np.unique(ranks))
    assert c.min_rank == int(ranks.min())
    assert c.contains_constant() == bool((ranks == 1).any())
    assert c.collapsed_pairs() == reference_collapsed_pairs(c.matrix)


def assert_matches_reference(generators, cap=DEFAULT_CLOSURE_CAP):
    c = closure(generators, cap=cap)
    expected, truncated = reference_closure(generators, cap)
    assert c.matrix.tobytes() == expected
    assert c.truncated == truncated
    assert_analysis_matches_reference(c)
    return c


def _oracle_instances(entry, rng, random_maps=3):
    """Kernel-orbit representatives of rank >= n-2, then seeded random maps."""
    n = entry.degree
    maps = []
    for rank in (n - 1, n - 2):
        for kt in kernel_types_of_rank(n, rank):
            for kernel in kernel_orbit_representatives(entry.group, kt):
                maps.append(tuple(kernel.block_containing(x)[0] for x in range(n)))
    maps += [tuple(rng.randrange(n) for _ in range(n)) for _ in range(random_maps)]
    return [list(entry.group.generators) + [Transformation(m)] for m in maps]


class TestClosureMatchesReference:
    @pytest.mark.parametrize("entry", build_catalog(7), ids=lambda e: e.name)
    def test_catalog_up_to_degree_7(self, entry):
        for gens in _oracle_instances(entry, random.Random(entry.name)):
            assert_matches_reference(gens)

    def test_s8_truncates_at_default_cap(self):
        gens = list(symmetric_group(8).generators) + [t(1, 1, 3, 4, 5, 6, 7, 8)]
        assert assert_matches_reference(gens).truncated

    def test_degree_9_stays_per_element(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("degree 9 must not use the dense visited array")

        monkeypatch.setattr(semigroups, "_dense_levels", refuse)
        gens = list(GRID.generators) + [t(1, 1, 3, 4, 5, 6, 7, 8, 9)]
        c = assert_matches_reference(gens, cap=3 * DENSE_MIN_ELEMENTS)
        assert len(c) > DENSE_MIN_ELEMENTS

    @pytest.mark.parametrize("n", [64, 70, 256])
    def test_analysis_at_high_degree(self, n):
        # closure reads only images and degree, so it takes maps of any
        # degree its uint8 matrix holds, past Transformation's MAX_DEGREE
        make = Transformation if n <= MAX_DEGREE else WideMap
        e = make(tuple(x - x % 3 for x in range(n)))
        c = assert_matches_reference([make(tuple(range(n))), e])
        assert c.ranks.tolist() == [n, (n + 2) // 3]
        assert c.collapsed_pairs() == {
            (v, w) for v in range(n) for w in range(v + 1, n) if v // 3 == w // 3
        }

    @pytest.mark.parametrize(
        "group, f",
        [
            (symmetric_group(6), t(1, 1, 3, 4, 5, 6)),
            (cyclic_group(8), t(1, 1, 3, 4, 5, 6, 7, 8)),
        ],
        ids=["S6", "C8"],
    )
    def test_caps_around_the_phase_switch(self, group, f):
        gens = list(group.generators) + [f]
        size = len(closure(gens))
        assert size > DENSE_MIN_ELEMENTS + 1
        m = DENSE_MIN_ELEMENTS
        for cap in (1, 2, 3, m - 1, m, m + 1, size - 1, size, size + 1):
            assert_matches_reference(gens, cap)


class TestFindRankPreserving:
    def test_idempotent_identity_qualifies(self):
        f = t(1, 1, 3, 4)
        g = find_rank_preserving_g(symmetric_group(4), f)
        assert g is not None
        assert compose(compose(f, g), f).rank() == f.rank()

    def test_grid_projection_has_one(self):
        g = find_rank_preserving_g(GRID, GRID_PROJECTION)
        assert g is not None
        assert GRID.contains(g)
        assert compose(compose(GRID_PROJECTION, g), GRID_PROJECTION).rank() == 3

    def test_matches_exhaustive_sweep(self):
        rng = random.Random(51)
        for group in [cyclic_group(5), cyclic_group(7), dihedral_group(5)]:
            n = group.degree
            elements = group.elements()
            for _ in range(30):
                f = Transformation(tuple(rng.randrange(n) for _ in range(n)))
                mine = find_rank_preserving_g(group, f)
                exhaustive = [
                    g
                    for g in elements
                    if compose(compose(f, g), f).rank() == f.rank()
                ]
                assert (mine is not None) == bool(exhaustive)
                if mine is not None:
                    assert group.contains(mine)

    def test_none_when_impossible(self):
        # trivial group; the image {2,3} lands twice in the kernel block {2,3},
        # and no group element can move it onto a transversal
        group = PermutationGroup([identity(4)], 4)
        f = t(3, 3, 4, 4)
        assert find_rank_preserving_g(group, f) is None

    def test_c5_specific_instance(self):
        # verdict determined here by the 5-element exhaustive sweep itself
        group = cyclic_group(5)
        f = t(1, 1, 3, 4, 5)
        exhaustive = [
            g
            for g in group.elements()
            if compose(compose(f, g), f).rank() == f.rank()
        ]
        mine = find_rank_preserving_g(group, f)
        assert (mine is not None) == bool(exhaustive)
        if mine is not None:
            assert compose(compose(f, mine), f).rank() == f.rank()


class TestOrbitCaps:
    """The caps count orbit sets tested; an answer needing more sets refuses."""

    # C6 moves the image {1,2,3} of [1,1,2,2,3,3] through six sets, none a
    # transversal of {1,2},{3,4},{5,6}: the whole orbit is walked
    NONE_GROUP = cyclic_group(6)
    NONE_MAP = t(1, 1, 2, 2, 3, 3)

    def test_rank_preserving_cap_below_orbit(self):
        size = len(self.NONE_GROUP.set_orbit(self.NONE_MAP.image()))
        assert size == 6
        with pytest.raises(GroupTooLargeError):
            find_rank_preserving_g(self.NONE_GROUP, self.NONE_MAP, cap=size - 1)
        assert find_rank_preserving_g(self.NONE_GROUP, self.NONE_MAP, cap=size) is None

    def test_rank_preserving_cap_at_orbit_keeps_answer(self):
        size = len(GRID.set_orbit(GRID_PROJECTION.image()))
        found = find_rank_preserving_g(GRID, GRID_PROJECTION)
        assert find_rank_preserving_g(GRID, GRID_PROJECTION, cap=size) == found

    def test_section_cap_below_orbit(self):
        size = len(GRID.set_orbit([0, 4, 8]))
        assert size > 1
        with pytest.raises(GroupTooLargeError):
            is_group_section(GRID, [0, 4, 8], ROWS, cap=size - 1)
        assert is_group_section(GRID, [0, 4, 8], ROWS, cap=size)


class TestIdempotentSameKernel:
    def test_idempotent_with_identity(self):
        f = t(1, 1, 3)
        e, exponent = idempotent_same_kernel(f, identity(3))
        assert e == f
        assert exponent == 1

    def test_permutation_with_inverse(self):
        p = t(2, 3, 1)
        e, exponent = idempotent_same_kernel(p, p.inverse())
        assert e == identity(3)
        assert exponent == 1

    def test_grid_instance(self):
        g = find_rank_preserving_g(GRID, GRID_PROJECTION)
        e, _ = idempotent_same_kernel(GRID_PROJECTION, g)
        assert e.is_idempotent()
        assert e.kernel() == ROWS

    def test_precondition_enforced(self):
        # g collapsing the image onto one kernel block breaks the hypothesis
        f = t(1, 1, 3, 4)
        bad_g = t(2, 1, 2, 1)  # not even a permutation, still composes
        with pytest.raises(ValueError):
            idempotent_same_kernel(f, bad_g)

    def test_random_pairs_postconditions(self):
        rng = random.Random(52)
        done = 0
        while done < 200:
            n = rng.randint(2, 8)
            group = symmetric_group(n)
            f = Transformation(tuple(rng.randrange(n) for _ in range(n)))
            g = find_rank_preserving_g(group, f)
            if g is None:
                continue
            e, _ = idempotent_same_kernel(f, g)
            assert e.is_idempotent()
            assert e.kernel() == f.kernel()
            done += 1


class TestCoblockGraph:
    def test_singletons_null(self):
        g = coblock_graph(GRID, Partition.singletons(9))
        assert g.is_null()

    def test_grid_rows_give_aligned_pairs(self):
        delta = coblock_graph(GRID, ROWS)
        aligned = {
            (v, w)
            for v, w in itertools.combinations(range(9), 2)
            if v // 3 == w // 3 or v % 3 == w % 3
        }
        assert set(delta.edges()) == aligned
        # subgraph of the complement of the obstruction graph
        comp = obstruction_graph(GRID, GRID_PROJECTION).complement()
        assert all(comp.is_edge(v, w) for v, w in delta.edges())

    def test_symmetric_group_complete(self):
        delta = coblock_graph(
            symmetric_group(5), Partition.from_blocks(5, [[0, 1], [2], [3], [4]])
        )
        assert delta.is_complete()


class TestGroupSections:
    def test_trivial_group(self):
        group = PermutationGroup([identity(4)], 4)
        blocks = Partition.from_blocks(4, [[0, 1], [2, 3]])
        assert is_group_section(group, [0, 2], blocks)

    def test_grid_diagonal_is_section(self):
        assert is_group_section(GRID, [0, 4, 8], ROWS)

    def test_row_is_not_even_a_transversal(self):
        assert not is_group_section(GRID, [0, 1, 2], ROWS)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            is_group_section(GRID, [0, 4], ROWS)

    def test_matches_elementwise_definition(self):
        rng = random.Random(53)
        for group in [cyclic_group(6), dihedral_group(5)]:
            n = group.degree
            elements = group.elements()
            for _ in range(20):
                parts = 2 if n % 2 == 0 else n
                if n % 2:
                    continue
                blocks = Partition.from_blocks(
                    n, [range(n // 2), range(n // 2, n)]
                )
                section = tuple(
                    sorted(rng.sample(range(n), len(blocks)))
                )
                mine = is_group_section(group, section, blocks)
                direct = all(
                    len(
                        {
                            blocks.block_index[g.images[x]]
                            for x in section
                        }
                    )
                    == len(blocks)
                    for g in elements
                )
                assert mine == direct


class TestRegularPartitions:
    def test_grid_contains_three(self):
        witnesses = regular_partition_witnesses(GRID)
        assert [w.size for w in witnesses] == [3]
        w = witnesses[0]
        assert is_group_section(GRID, w.section, w.partition)

    def test_c5_empty(self):
        assert regular_partition_sizes(cyclic_group(5)) == []

    def test_s5_s6_empty(self):
        assert regular_partition_sizes(symmetric_group(5)) == []
        assert regular_partition_sizes(symmetric_group(6)) == []

    def test_c6_depth(self):
        assert regular_partition_sizes(cyclic_group(6)) == [2, 3]

    def test_exhaustive_cross_check_small(self):
        # independent oracle at degree 6: try every uniform partition and
        # every candidate section directly
        group = cyclic_group(6)
        n = 6
        elements = group.elements()
        expected = set()
        for s in (2, 3):
            size = n // s
            for blocks in _set_partitions_uniform(n, s, size):
                partition = Partition.from_blocks(n, blocks)
                for section in itertools.combinations(range(n), s):
                    ok = all(
                        len({partition.block_index[g.images[x]] for x in section}) == s
                        for g in elements
                    )
                    if ok:
                        expected.add(s)
                        break
                if s in expected:
                    break
        assert sorted(expected) == regular_partition_sizes(group)

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            regular_partition_sizes(cyclic_group(14))

    def test_nonuniform_escape_hatch(self):
        # uniform and nonuniform searches agree on the uniform sizes
        uniform = set(regular_partition_sizes(cyclic_group(6)))
        both = set(regular_partition_sizes(cyclic_group(6), allow_nonuniform=True))
        assert uniform <= both

    # (size, partition blocks, section) of every nonuniform-search witness;
    # the transitive catalog groups of degree <= 8 not listed have none
    NONUNIFORM_WITNESSES = {
        "C4": [(2, ((0, 1), (2, 3)), (0, 2))],
        "grid-2": [(2, ((0, 1), (2, 3)), (0, 3))],
        "C6": [
            (2, ((0, 1, 2), (3, 4, 5)), (0, 3)),
            (3, ((0, 1), (2, 3), (4, 5)), (0, 2, 4)),
        ],
        "C8": [
            (2, ((0, 1, 2, 3), (4, 5, 6, 7)), (0, 4)),
            (4, ((0, 1), (2, 3), (4, 5), (6, 7)), (0, 2, 4, 6)),
        ],
    }

    def test_nonuniform_witnesses_pinned(self):
        swept = 0
        for entry in build_catalog(8):
            if not entry.group.is_transitive():
                continue
            witnesses = regular_partition_witnesses(entry.group, allow_nonuniform=True)
            got = [(w.size, w.partition.blocks, w.section) for w in witnesses]
            assert got == self.NONUNIFORM_WITNESSES.get(entry.name, []), entry.name
            swept += 1
        assert swept == 25


def _set_partitions_uniform(n, parts, size):
    def rec(remaining):
        if not remaining:
            yield []
            return
        anchor = min(remaining)
        rest = sorted(remaining - {anchor})
        for extra in itertools.combinations(rest, size - 1):
            block = (anchor, *extra)
            for tail in rec(remaining - set(block)):
                yield [block] + tail

    yield from rec(frozenset(range(n)))


class TestSpectrumFacts:
    def test_grid_spectrum_skips_four(self):
        c = group_and_map_closure(GRID, GRID_PROJECTION)
        r = c.min_rank
        assert r == 3
        assert (r + 1) not in c.rank_spectrum

    def test_min_rank_elements_uniform_with_sections(self):
        c = group_and_map_closure(GRID, GRID_PROJECTION)
        for f in c.min_rank_elements():
            assert f.is_uniform()
            assert is_group_section(GRID, f.image(), f.kernel())
