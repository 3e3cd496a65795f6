import itertools

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
from synchrolab.groups import (
    BlockSystem,
    GroupTooLargeError,
    PermutationGroup,
    act_on_blocks,
    act_on_pair,
    act_on_set,
    format_group_text,
    parse_group_text,
)
from synchrolab.transformations import Transformation, parse_cycles


def brute_force_elements(group):
    """Independent oracle: close the generator set under products."""
    seen = {g.images for g in group.generators}
    frontier = list(seen)
    while frontier:
        new = []
        for w in frontier:
            for g in group.generators:
                prod = tuple(g.images[x] for x in w)
                if prod not in seen:
                    seen.add(prod)
                    new.append(prod)
        frontier = new
    return seen


class TestOrbits:
    def test_single_cycle_transitive(self):
        g = cyclic_group(5)
        assert g.is_transitive()
        assert len(g.orbits()) == 1

    def test_small_support(self):
        g = PermutationGroup([parse_cycles("(1 2)", 3)], 3)
        assert g.orbits().blocks == ((0, 1), (2,))
        assert not g.is_transitive()

    def test_grid_transitive(self):
        assert grid_group(3).is_transitive()


class TestOrbitWalker:
    """PermutationGroup.orbit against the images of start under every element."""

    @staticmethod
    def starts(n):
        halves = [tuple(range(0, n, 2)), tuple(range(1, n, 2))]
        return [
            (frozenset(range(n // 2)), act_on_set),
            ((0, n - 1), act_on_pair),
            (tuple(b for b in halves if b), act_on_blocks),
        ]

    @pytest.mark.parametrize("entry", build_catalog(8), ids=lambda e: e.name)
    def test_words_reach_items_and_items_are_the_orbit(self, entry):
        group = entry.group
        elements = [g.images for g in group.elements()]
        for start, act in self.starts(group.degree):
            walked = list(group.orbit(start, act))
            assert walked[0] == (start, ())
            items = [item for item, _ in walked]
            assert len(items) == len(set(items))
            assert set(items) == {act(start, g) for g in elements}
            for item, word in walked:
                assert act(start, group.element(word).images) == item

    def test_element_multiplies_left_to_right(self):
        group = symmetric_group(4)
        a, b = group.generators[:2]
        assert group.element(()) == Transformation((0, 1, 2, 3))
        assert group.element((0, 1)) == a * b
        assert group.element((1, 0, 0)) == b * a * a

    def test_walk_is_lazy(self):
        # early exits rely on no item being moved before it is asked for
        moved = []

        def act(points, g):
            moved.append(points)
            return act_on_set(points, g)

        group = symmetric_group(12)
        walk = group.orbit(frozenset(range(6)), act)
        assert next(walk) == (frozenset(range(6)), ())
        assert moved == []
        next(walk)
        assert moved == [frozenset(range(6))] * len(group.generators)


class TestMinimalBlock:
    def test_c4_block(self):
        g = cyclic_group(4)
        assert g.minimal_block(0, 2) == frozenset({0, 2})
        # direct verification it really is a block system
        translates = g.set_orbit(frozenset({0, 2}))
        assert sorted(map(sorted, translates)) == [[0, 2], [1, 3]]

    def test_symmetric_group_no_blocks(self):
        g = symmetric_group(5)
        for b in range(1, 5):
            assert g.minimal_block(0, b) == frozenset(range(5))

    def test_grid_full(self):
        g = grid_group(3)
        for b in range(1, 9):
            assert g.minimal_block(0, b) == frozenset(range(9))

    def test_requires_transitive(self):
        g = PermutationGroup([parse_cycles("(1 2)", 3)], 3)
        with pytest.raises(ValueError):
            g.minimal_block(0, 1)


class TestPrimitivity:
    def test_prime_cyclic_primitive(self):
        assert cyclic_group(5).is_primitive()

    def test_c4_imprimitive(self):
        assert not cyclic_group(4).is_primitive()

    def test_grid_primitive(self):
        assert grid_group(3).is_primitive()

    def test_grid2_imprimitive(self):
        assert not grid_group(2).is_primitive()

    def test_implications_over_catalog(self):
        for g in [cyclic_group(6), dihedral_group(5), symmetric_group(4), grid_group(3)]:
            if g.is_primitive():
                assert g.is_transitive()
            if g.is_2_transitive():
                assert g.is_primitive()


class TestOrder:
    def test_s3(self):
        g = PermutationGroup([parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)", 3)])
        assert g.order() == 6

    def test_grid_order(self):
        assert grid_group(3).order() == 72

    def test_chain_orbit_product(self):
        for g in [symmetric_group(6), alternating_group(6), dihedral_group(7)]:
            sizes = g._chain.orbit_sizes()
            prod = 1
            for s in sizes:
                prod *= s
            assert prod == g.order()

    def test_order_matches_brute_force(self):
        for g in [
            cyclic_group(6),
            dihedral_group(5),
            symmetric_group(5),
            alternating_group(5),
            grid_group(2),
            projective_linear_group(4),
        ]:
            assert g.order() == len(brute_force_elements(g))

    def test_s12_order(self):
        import math

        assert symmetric_group(12).order() == math.factorial(12)


class TestMembership:
    def test_s3_contains_transposition(self):
        g = symmetric_group(3)
        assert g.contains(parse_cycles("(1 3)", 3))

    def test_alternating_excludes_odd(self):
        g = alternating_group(4)
        assert g.contains(parse_cycles("(1 2 3)", 4))
        assert not g.contains(parse_cycles("(1 2)", 4))

    def test_non_permutation(self):
        assert not symmetric_group(3).contains(Transformation((0, 0, 2)))


class TestElements:
    def test_matches_brute_force(self):
        g = dihedral_group(5)
        mine = {e.images for e in g.elements()}
        assert mine == brute_force_elements(g)
        assert len(mine) == 10

    def test_cap_refusal(self):
        with pytest.raises(GroupTooLargeError):
            symmetric_group(8).elements(cap=1000)

    def test_deterministic_order(self):
        g = alternating_group(4)
        first = [e.images for e in g.elements()]
        second = [e.images for e in g.elements()]
        assert first == second


class TestPairOrbits:
    def test_s4_single(self):
        g = symmetric_group(4)
        assert g.is_2_transitive()
        assert len(g.pair_orbits()) == 1

    def test_c5_two_by_distance(self):
        g = cyclic_group(5)
        assert not g.is_2_transitive()
        cells = g.pair_orbits()
        assert len(cells) == 2
        # oracle: distance classes on the 5-cycle
        by_distance = {1: set(), 2: set()}
        for v, w in itertools.combinations(range(5), 2):
            d = min((w - v) % 5, (v - w) % 5)
            by_distance[d].add((v, w))
        assert {frozenset(c) for c in cells} == {
            frozenset(by_distance[1]),
            frozenset(by_distance[2]),
        }

    def test_grid_two_orbits(self):
        cells = grid_group(3).pair_orbits()
        assert len(cells) == 2
        aligned = {
            (v, w)
            for v, w in itertools.combinations(range(9), 2)
            if v // 3 == w // 3 or v % 3 == w % 3
        }
        assert {frozenset(c) for c in cells} == {
            frozenset(aligned),
            frozenset(set(itertools.combinations(range(9), 2)) - aligned),
        }

    def test_cells_cover_all_pairs_once(self):
        for g in [cyclic_group(6), grid_group(2), dihedral_group(7)]:
            cells = g.pair_orbits()
            everything = [p for c in cells for p in c]
            assert len(everything) == len(set(everything))
            assert len(everything) == g.degree * (g.degree - 1) // 2


class TestBlockSystems:
    def test_c6_systems(self):
        systems = cyclic_group(6).block_systems()
        sizes = sorted(s.block_size for s in systems)
        assert sizes == [2, 3]

    def test_c8_includes_non_minimal(self):
        # blocks {0,4} and {0,2,4,6}: the big one is not a join of minimal ones
        sizes = sorted(s.block_size for s in cyclic_group(8).block_systems())
        assert sizes == [2, 4]

    def test_verified_under_generators(self):
        for g in [cyclic_group(6), cyclic_group(12), grid_group(2)]:
            for system in g.block_systems():
                system.verify(g)  # raises on failure

    def test_primitive_group_has_none(self):
        assert symmetric_group(5).block_systems() == []

    def test_grid2_diagonal_blocks(self):
        systems = grid_group(2).block_systems()
        assert any(
            {tuple(b) for b in s.partition.blocks} == {(0, 3), (1, 2)}
            for s in systems
        )


def has_involution_moving(g, moved):
    """Whether some element is a product of moved/2 disjoint transpositions."""
    for e in g.elements():
        support = [x for x in range(g.degree) if e.images[x] != x]
        if len(support) == moved and all(e.images[e.images[x]] == x for x in support):
            return True
    return False


class TestTranspositionScans:
    def test_primitive_with_transposition_is_symmetric(self):
        # scan the small catalog groups: the implication must hold
        import math

        for g in [
            symmetric_group(5),
            alternating_group(5),
            cyclic_group(7),
            dihedral_group(7),
            grid_group(3),
            projective_linear_group(5),
        ]:
            if g.is_primitive() and has_involution_moving(g, 2):
                assert g.order() == math.factorial(g.degree)

    def test_double_transposition_implication(self):
        for g in [
            symmetric_group(7),
            alternating_group(7),
            dihedral_group(7),
            grid_group(3),
            projective_linear_group(7),
        ]:
            if (
                g.degree > 5
                and g.is_primitive()
                and has_involution_moving(g, 4)
            ):
                assert g.is_2_transitive()


class TestGroupFiles:
    GRID = "\n".join(
        [
            "degree 9",
            "name: grid-3",
            "(1 2 3)(4 5 6)(7 8 9)",
            "(1 2)(4 5)(7 8)",
            "(2 4)(3 7)(6 8)",
        ]
    )

    def test_parse(self):
        name, g = parse_group_text(self.GRID)
        assert name == "grid-3"
        assert g.degree == 9
        assert len(g.generators) == 3

    def test_roundtrip(self):
        name, g = parse_group_text(self.GRID)
        again_name, again = parse_group_text(format_group_text(g, name))
        assert again_name == name
        assert again.generators == g.generators

    def test_missing_degree(self):
        with pytest.raises(ValueError):
            parse_group_text("(1 2 3)")

    @pytest.mark.parametrize(
        "text", ["degree", "degree x\n(1 2)", "degree 3 4\n(1 2)", "degreee 3\n(1 2 3)"]
    )
    def test_bad_degree_line(self, text):
        with pytest.raises(ValueError):
            parse_group_text(text)

    def test_format_roundtrip_catalog(self):
        for entry in build_catalog(64):
            name, g = parse_group_text(format_group_text(entry.group, entry.name))
            assert name == entry.name
            assert g.generators == entry.group.generators

    def test_comments_and_blanks(self):
        text = "# a comment\n\ndegree 3\n(1 2)\n"
        _, g = parse_group_text(text)
        assert g.order() == 2


class TestStabilizers:
    def test_stabilizer_order(self):
        g = symmetric_group(5)
        assert g.stabilizer_order(1) == 24
        assert g.stabilizer_order(2) == 6

    def test_stabilizer_elements_fix_prefix(self):
        g = dihedral_group(7)
        elems = g.stabilizer_elements(1)
        assert len(elems) == 2
        assert all(e[0] == 0 for e in elems)

    def test_stabilizer_elements_cached_per_prefix(self):
        g = symmetric_group(5)
        first = g.stabilizer_elements(2)
        assert isinstance(first, tuple)
        assert g.stabilizer_elements(2) is first
        assert g.stabilizer_elements(3) is not first
        assert len(first) == 6
        # the cap is checked on every call, cached or not
        with pytest.raises(GroupTooLargeError):
            g.stabilizer_elements(2, cap=5)

    def test_transitivity_degree(self):
        assert symmetric_group(5).transitivity_degree() == 5
        assert alternating_group(5).transitivity_degree() == 3
        assert projective_linear_group(5).transitivity_degree() == 3
        assert cyclic_group(5).transitivity_degree() == 1
