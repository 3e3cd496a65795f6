import functools
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
    find_entry,
    grid_group,
    projective_linear_group,
    symmetric_group,
    verify_entry,
)
from synchrolab.groups import (
    BlockSystem,
    GroupTooLargeError,
    PermutationGroup,
    act_on_pair,
    act_on_set,
    format_group_text,
    orbit_labels,
    pair_images,
    pair_tables,
    parse_group_text,
)
from synchrolab.transformations import Transformation, identity, parse_cycles


def act_on_blocks(blocks, g):
    """Image of a canonical block tuple (``Partition.blocks``), kept canonical."""
    return tuple(sorted([tuple(sorted([g[x] for x in b])) for b in blocks]))


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


@functools.lru_cache(maxsize=None)
def reference_chain(group):
    """The restart-based Schreier-Sims chain that the incremental one replaced.

    One transversal dict per base point 0..n-1, mapping each orbit point p
    to an element carrying the base point to p. A strong generator sits at
    the level of its first moved point. After every new strong generator,
    closing restarts at its level: the orbit there is rebuilt from scratch
    and every Schreier generator from that level down is sifted again.
    Cached per group, since criterion 1 normalises with its transversals.
    """
    n = group.degree
    ident = tuple(range(n))
    gens = [[] for _ in range(n)]
    transversals = [{i: ident} for i in range(n)]

    def gens_at(i):
        return [g for level in gens[i:] for g in level]

    def rebuild_orbit(i):
        transversals[i] = {i: ident}
        order = [i]
        for p in order:
            u = transversals[i][p]
            for g in gens_at(i):
                q = g[p]
                if q not in transversals[i]:
                    transversals[i][q] = tuple(g[x] for x in u)
                    order.append(q)

    def strip(g, start):
        for i in range(start, n):
            p = g[i]
            if p == i:
                continue
            if p not in transversals[i]:
                return g, i
            g = tuple(inverse(transversals[i][p])[x] for x in g)
        return g, n

    for g in group.generators:
        if g.images != ident:
            gens[next(i for i in range(n) if g.images[i] != i)].append(g.images)
    i = max((i for i in range(n) if gens[i]), default=-1)
    while i >= 0:
        rebuild_orbit(i)
        dirty = False
        for p in sorted(transversals[i]):
            u = transversals[i][p]
            for g in gens_at(i):
                ug = tuple(g[x] for x in u)
                back = inverse(transversals[i][g[p]])
                residue, j = strip(tuple(back[x] for x in ug), i + 1)
                if j < n:
                    gens[j].append(residue)
                    i, dirty = j, True
                    break
            if dirty:
                break
        if not dirty:
            i -= 1
    return transversals


def inverse(p):
    out = [0] * len(p)
    for x, y in enumerate(p):
        out[y] = x
    return tuple(out)


def reference_order(group):
    return math.prod(len(t) for t in reference_chain(group))


def reference_contains(group, images):
    g = tuple(images)
    for i, transversal in enumerate(reference_chain(group)):
        if g[i] != i:
            if g[i] not in transversal:
                return False
            back = inverse(transversal[g[i]])
            g = tuple(back[x] for x in g)
    return True


def reference_is_primitive(group):
    """The every-b primitivity test the one-b-per-suborbit test replaced."""
    if not group.is_transitive():
        return False
    n = group.degree
    full = frozenset(range(n))
    return all(group.minimal_block(0, b) == full for b in range(1, n))


def wreath_s2_s3():
    """S2 wr S3 in its imprimitive action on 6 points, blocks {1,2}, {3,4}, {5,6}."""
    return PermutationGroup(
        [parse_cycles(c, 6) for c in ("(1 2)", "(1 3 5)(2 4 6)", "(1 3)(2 4)")], 6
    )


HAND_BUILT = {
    "trivial": PermutationGroup([], 4),
    "identity-only": PermutationGroup([identity(5)]),
    "intransitive": PermutationGroup([parse_cycles(c, 5) for c in ("(1 2)", "(3 4 5)")], 5),
    "S2-wr-S3": wreath_s2_s3(),
}


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


def reference_pair_orbit_ids(group):
    """The breadth-first pair orbits that the numpy orbit labelling replaced.

    Returns the orbit ids as a list of n*n entries keyed v*n + w for v < w,
    -1 elsewhere, and the orbit count; orbits are numbered in the order of
    their least pair.
    """
    n = group.degree
    ids = [-1] * (n * n)
    count = 0
    for v in range(n):
        for w in range(v + 1, n):
            if ids[v * n + w] == -1:
                for (a, b), _ in group.orbit((v, w), act_on_pair):
                    ids[a * n + b] = count
                count += 1
    return ids, count


def reference_pair_orbits(group):
    """Cells of reference_pair_orbit_ids, each in lexicographic pair order."""
    n = group.degree
    ids, count = reference_pair_orbit_ids(group)
    cells = [[] for _ in range(count)]
    for v in range(n):
        for w in range(v + 1, n):
            cells[ids[v * n + w]].append((v, w))
    return cells


PAIR_ORBIT_CASES = (
    [(e.name, e.group) for e in build_catalog(64)]
    + [("trivial-1", PermutationGroup([], 1))]
    + list(HAND_BUILT.items())
)


class TestPairOrbits:
    @pytest.mark.parametrize(
        "name,group", PAIR_ORBIT_CASES, ids=[c[0] for c in PAIR_ORBIT_CASES]
    )
    def test_matches_reference_bfs(self, name, group):
        n = group.degree
        ids, count = reference_pair_orbit_ids(group)
        # combinations run in lexicographic order, the order of the pair indices
        pairs = itertools.combinations(range(n), 2)
        assert group.pair_orbit_ids.tolist() == [ids[v * n + w] for v, w in pairs]
        cells = group.pair_orbits()
        assert len(cells) == count
        assert cells == reference_pair_orbits(group)

    def test_pair_images_follow_act_on_pair(self):
        n = 6
        pairs = list(itertools.combinations(range(n), 2))
        ends, offset = pair_tables(n)
        assert list(zip(ends[: len(pairs)], ends[len(pairs) :])) == pairs
        assert [offset[v] + w for v, w in pairs] == list(range(len(pairs)))
        rng = random.Random("pair-images")
        maps = [tuple(rng.randrange(n) for _ in range(n)) for _ in range(20)]
        images = pair_images(maps, n)
        for m, row in zip(maps, images.tolist()):
            for p, (v, w) in enumerate(pairs):
                moved = act_on_pair((v, w), m)
                expected = len(pairs) if moved[0] == moved[1] else pairs.index(moved)
                assert row[p] == expected

    def test_orbit_labels_name_the_least_index(self):
        # two index maps on 7 indices: the cycle (0 3 5) and the swap (1 6)
        cycle = np.array([3, 1, 2, 5, 4, 0, 6])
        swap = np.array([0, 6, 2, 3, 4, 5, 1])
        assert orbit_labels([cycle, swap], 7).tolist() == [0, 1, 2, 0, 4, 0, 1]
        assert orbit_labels([], 3).tolist() == [0, 1, 2]

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


def equal_block_partitions(n, size):
    """Every partition of range(n) into blocks of one size, as sorted block tuples."""

    def extend(rest):
        if not rest:
            yield ()
            return
        first, others = rest[0], rest[1:]
        for mates in itertools.combinations(others, size - 1):
            left = [x for x in others if x not in mates]
            for tail in extend(left):
                yield ((first, *mates), *tail)

    return list(extend(list(range(n))))


def reference_block_systems(group):
    """Brute force: every nontrivial equal-block partition the generators permute."""
    n = group.degree
    found = []
    for size in range(2, n):
        if n % size:
            continue
        for blocks in equal_block_partitions(n, size):
            if all(act_on_blocks(blocks, g.images) == blocks for g in group.generators):
                found.append(blocks)
    return sorted(found, key=lambda b: (len(b[0]), b))


def elementary_abelian_8():
    """C2 x C2 x C2 acting regularly on 8 points: x -> x xor e."""
    return PermutationGroup(
        [Transformation(tuple(x ^ e for x in range(8))) for e in (1, 2, 4)], 8
    )


class TestBlockSystemsAgainstBruteForce:
    def test_blocks_only_a_larger_closure_finds(self):
        g = elementary_abelian_8()
        # every closure of {0, b} is {0, b} itself, so the blocks of size 4
        # come only from closing a block of size 2 with one more point
        assert all(g.block_closure([0, b]) == {0, b} for b in range(1, 8))
        sizes = [s.block_size for s in g.block_systems()]
        assert sizes == [2] * 7 + [4] * 7

    @pytest.mark.parametrize(
        "group",
        [
            elementary_abelian_8(),
            cyclic_group(8),
            cyclic_group(6),
            dihedral_group(6),
            grid_group(2),
            symmetric_group(6),
        ],
        ids=["C2^3", "C8", "C6", "D6", "grid-2", "S6"],
    )
    def test_matches_reference(self, group):
        got = sorted(
            (s.partition.blocks for s in group.block_systems()),
            key=lambda b: (len(b[0]), b),
        )
        assert got == reference_block_systems(group)


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


CHAIN_CASES = [(e.name, e.group) for e in build_catalog(16)] + list(HAND_BUILT.items())


class TestIncrementalChain:
    """The incremental chain against reference_chain: same orbits, order, elements and membership."""

    @pytest.mark.parametrize("name,group", CHAIN_CASES, ids=[c[0] for c in CHAIN_CASES])
    def test_matches_reference_chain(self, name, group):
        n = group.degree
        chain = group._chain
        assert [set(t) for t in chain.transversals] == [
            set(t) for t in reference_chain(group)
        ]
        assert group.order() == reference_order(group)
        if group.order() <= 5000:
            assert {e.images for e in group.elements()} == brute_force_elements(group) | {
                tuple(range(n))
            }
        rng = random.Random(f"chain:{name}")
        gens = [g.images for g in group.generators]
        for _ in range(20):
            word = [rng.choice(gens) for _ in range(rng.randrange(1, 7))]
            product = tuple(range(n))
            for g in word:
                product = tuple(g[x] for x in product)
            assert group.contains(Transformation(product))
        outside = 0
        for _ in range(20):
            images = list(range(n))
            rng.shuffle(images)
            member = group.contains(Transformation(tuple(images)))
            assert member == reference_contains(group, images)
            outside += not member
        if group.order() < math.factorial(n) // 4:
            assert outside > 0

    def test_strong_generators_are_members(self):
        # is_primitive reads the ones fixing 0 as elements of the stabilizer of 0
        for _, group in CHAIN_CASES:
            for g in group._chain.strong_generators:
                assert reference_contains(group, g)

    def test_served_degrees_verify(self):
        # S_n and A_n at the degrees the catalog serves, orders recomputed
        for n in (40, 48, 64):
            for name in (f"S{n}", f"A{n}"):
                entry = find_entry(name)
                verify_entry(entry)
                assert entry.group.order() == math.factorial(n) // (2 if name[0] == "A" else 1)


COMPOSITE = (4, 6, 8, 9, 10, 12, 15, 16)
IMPRIMITIVE_CASES = (
    [(f"C{n}", cyclic_group(n)) for n in COMPOSITE]
    + [(f"D{n}", dihedral_group(n)) for n in COMPOSITE]
    + [("S2-wr-S3", HAND_BUILT["S2-wr-S3"]), ("intransitive", HAND_BUILT["intransitive"])]
)
PRIMITIVITY_CASES = [(e.name, e.group) for e in build_catalog(64)] + IMPRIMITIVE_CASES


class TestSuborbitPrimitivity:
    @pytest.mark.parametrize(
        "name,group", PRIMITIVITY_CASES, ids=[c[0] for c in PRIMITIVITY_CASES]
    )
    def test_matches_every_b_reference(self, name, group):
        assert group.is_primitive() == reference_is_primitive(group)

    def test_imprimitive_cases_are_caught(self):
        for name, group in IMPRIMITIVE_CASES:
            assert not group.is_primitive(), name
