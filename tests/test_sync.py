import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synchrolab.catalog import (
    build_catalog,
    cyclic_group,
    dihedral_group,
    grid_group,
    symmetric_group,
)
from synchrolab.graphs import Graph
from synchrolab.groups import PermutationGroup
from synchrolab.semigroups import group_and_map_closure
from synchrolab.sync import (
    NotSynchronizingError,
    OrbitCollapseSolver,
    PairCollapseAutomaton,
    cerny_bound,
    min_rank_via_graph,
    obstruction_graph,
    shortest_word_length,
    synchronizes,
    word_transformation,
)
from synchrolab.transformations import Transformation, identity, parse_cycles


def t(*images_1based):
    return Transformation(tuple(x - 1 for x in images_1based))


GRID_PROJECTION = Transformation(tuple((x // 3) * 4 for x in range(9)))


def trivial_group(n):
    return PermutationGroup([identity(n)], n)


def closure_oracle(group, f, cap=1_000_000):
    """Independent route: enumerate the semigroup and inspect it directly."""
    return group_and_map_closure(group, f, cap=cap)


class TestCollapsiblePairs:
    def test_symmetric_collapses_everything(self):
        auto = PairCollapseAutomaton(symmetric_group(3), t(1, 1, 3))
        assert len(auto.collapsible) == 3

    def test_grid_non_collapsible_are_skew(self):
        auto = PairCollapseAutomaton(grid_group(3), GRID_PROJECTION)
        collapsed = {divmod(key, 9) for key in auto.collapsible}
        aligned = {
            (v, w)
            for v, w in itertools.combinations(range(9), 2)
            if v // 3 == w // 3 or v % 3 == w % 3
        }
        assert collapsed == aligned
        # cross-check against the brute-force closure
        oracle = closure_oracle(grid_group(3), GRID_PROJECTION)
        assert collapsed == set(oracle.collapsed_pairs())

    def test_trivial_group_single_pair(self):
        auto = PairCollapseAutomaton(trivial_group(4), t(1, 1, 3, 4))
        assert auto.collapsible == frozenset({0 * 4 + 1})

    def test_letter_names(self):
        auto = PairCollapseAutomaton(symmetric_group(3), t(1, 1, 3))
        assert auto.letter_names == ["g1", "g2", "f"]


def reference_automaton(group, f):
    """The pair-collapse search as a plain Python BFS over a pairs x letters table.

    Returns the collapsible pairs as flat keys v*n + w and a function giving
    the length of the collapse word the search finds for a collapsible pair.
    """
    n = group.degree
    maps = [g.images for g in group.generators] + [f.images]
    # image_table[p][li] = image pair key, or -1 when letter li sends
    # pair p straight to a single point
    image_table = {}
    reverse = {}
    first_letter = {}
    seeds = []
    for v in range(n):
        for w in range(v + 1, n):
            p = v * n + w
            row = []
            for li, m in enumerate(maps):
                a, b = m[v], m[w]
                if a == b:
                    row.append(-1)
                    if p not in first_letter:
                        first_letter[p] = li
                        seeds.append(p)
                else:
                    row.append(min(a, b) * n + max(a, b))
            image_table[p] = row
    for p, row in image_table.items():
        for q in row:
            if q >= 0 and q != p:
                reverse.setdefault(q, []).append(p)
    collapsible = set(seeds)
    queue = list(seeds)
    for q in queue:
        for p in reverse.get(q, ()):
            if p in collapsible:
                continue
            first_letter[p] = image_table[p].index(q)
            collapsible.add(p)
            queue.append(p)

    def word_length(p):
        length = 0
        while p != -1:
            p = image_table[p][first_letter[p]]
            length += 1
        return length

    return frozenset(collapsible), word_length


def _map_of_rank(rng, n, rank):
    """A random map on n points whose image has exactly ``rank`` points."""
    image = rng.sample(range(n), rank)
    images = image + [rng.choice(image) for _ in range(n - rank)]
    rng.shuffle(images)
    return Transformation(tuple(images))


def _random_element(rng, group):
    g = tuple(range(group.degree))
    for _ in range(2 * group.degree):
        h = rng.choice(group.generators).images
        g = tuple([h[x] for x in g])
    return g


def _non_synchronizing_map(rng, name, group):
    """A map the group cannot synchronize, or None for other catalog groups.

    On C_n with a divisor d, the residues mod d are blocks and a map sending
    distinct blocks to distinct blocks keeps d points apart; on grid-m each
    row goes to one cell of the diagonal. Random group elements on either
    side leave the generated semigroup as it is.
    """
    n = group.degree
    divisors = [d for d in range(2, n) if n % d == 0]
    if re.fullmatch(r"C\d+", name) and divisors:
        d = rng.choice(divisors)
        targets = rng.sample(range(d), d)
        images = [rng.randrange(n // d) * d + targets[x % d] for x in range(n)]
        if len(set(images)) == n:
            images[d] = images[0]
    elif re.fullmatch(r"grid-\d+", name):
        side = int(name.split("-")[1])
        images = [(x // side) * (side + 1) for x in range(n)]
    else:
        return None
    left, right = _random_element(rng, group), _random_element(rng, group)
    return Transformation(tuple([right[images[left[x]]] for x in range(n)]))


def _served_instances():
    """Seeded maps on every catalog group of degree <= 64."""
    for entry in build_catalog(64):
        n = entry.degree
        rng = random.Random(f"served:{entry.name}")
        maps = [_map_of_rank(rng, n, r) for r in sorted({n - 1, max(2, n // 2), 2})]
        for _ in range(2):
            f = _non_synchronizing_map(rng, entry.name, entry.group)
            if f is not None:
                maps.append(f)
        for f in maps:
            yield entry, f


class TestAgainstReferenceAtServedDegrees:
    """The numpy level BFS against the Python BFS it replaced, up to degree 64."""

    def test_collapsible_pairs_and_word_lengths(self):
        nonsync = 0
        for entry, f in _served_instances():
            group, n = entry.group, entry.degree
            auto = PairCollapseAutomaton(group, f)
            collapsible, word_length = reference_automaton(group, f)
            assert auto.collapsible == collapsible, (entry.name, f)
            for key in collapsible:
                v, w = divmod(key, n)
                word = auto.collapse_word(v, w)
                assert len(word) == word_length(key), (entry.name, f, v, w)
                a, b = v, w
                for li in word:
                    assert a != b, "collapsed before the word ended"
                    m = auto.letter_map(li)
                    a, b = m[a], m[b]
                assert a == b, (entry.name, f, v, w)
            verdict = synchronizes(group, f)
            if not verdict.synchronizes:
                nonsync += 1
                graph = verdict.obstruction
                assert verdict.min_rank_bound == graph.clique_number(), (entry.name, f)
                if n <= 16:
                    assert verdict.min_rank_bound == graph.chromatic_number()
        assert nonsync >= 100


def reference_obstruction_edges(auto):
    """The pairs v < w that never collapse, walked one byte at a time."""
    n = auto.degree
    collapses = auto._collapses
    edges = []
    start = 0
    for v in range(n - 1):
        end = start + n - v - 1
        p = collapses.find(0, start, end)
        while p != -1:
            edges.append((v, p - start + v + 1))
            p = collapses.find(0, p + 1, end)
        start = end
    return edges


def _obstruction_instances():
    """One seeded random map on every catalog group of degree <= 64, plus
    every C_n block map x -> x mod d (n composite) and the grid projections."""
    for entry in build_catalog(64):
        n = entry.degree
        rng = random.Random(f"rows:{entry.name}")
        yield entry, Transformation(tuple(rng.randrange(n) for _ in range(n)))
        if re.fullmatch(r"C\d+", entry.name):
            for d in range(2, n):
                if n % d == 0:
                    yield entry, Transformation(tuple(x % d for x in range(n)))
        elif re.fullmatch(r"grid-\d+", entry.name):
            m = int(entry.name.split("-")[1])
            yield entry, Transformation(tuple((x // m) * (m + 1) for x in range(n)))


class TestObstructionRows:
    """obstruction_rows against the edge walk it replaced, up to degree 64."""

    def test_rows_match_edge_walk(self):
        edge_counts = set()
        for entry, f in _obstruction_instances():
            n = entry.degree
            auto = PairCollapseAutomaton(entry.group, f)
            rows = auto.obstruction_rows()
            assert type(rows) is tuple and all(type(row) is int for row in rows)
            edges = reference_obstruction_edges(auto)
            expected = Graph.from_edges(n, edges)
            assert rows == expected.rows, (entry.name, f)
            verdict = synchronizes(entry.group, f)
            assert verdict.obstruction == expected
            assert verdict.synchronizes == (not edges)
            edge_counts.add(len(edges))
        # C64 with x -> x mod 32: every pair but the 32 pairs {x, x + 32}
        assert 0 in edge_counts and max(edge_counts) == 64 * 63 // 2 - 32

    def test_synchronizing_map_gives_zero_rows(self):
        auto = PairCollapseAutomaton(symmetric_group(3), t(1, 1, 3))
        assert auto.obstruction_rows() == (0, 0, 0)

    def test_one_point(self):
        auto = PairCollapseAutomaton(trivial_group(1), t(1))
        assert auto.obstruction_rows() == (0,)


class TestSynchronizes:
    def test_c5_rank4(self):
        verdict = synchronizes(cyclic_group(5), t(1, 1, 3, 4, 5))
        assert verdict.synchronizes
        assert verdict.obstruction.is_null()
        assert verdict.min_rank_bound == 1
        assert verdict.witness_word is not None

    def test_grid_projection_fails(self):
        verdict = synchronizes(grid_group(3), GRID_PROJECTION)
        assert not verdict.synchronizes
        assert verdict.witness_word is None
        assert verdict.obstruction.edge_count == 18
        assert verdict.min_rank_bound == 3

    def test_c4_block_collapse_fails(self):
        # collapse the block {1,3} (1-based) of the cyclic group of degree 4
        f = t(1, 2, 1, 4)
        verdict = synchronizes(cyclic_group(4), f)
        assert not verdict.synchronizes
        oracle = closure_oracle(cyclic_group(4), f)
        assert not oracle.contains_constant()

    def test_permutation_flagged(self):
        verdict = synchronizes(trivial_group(3), t(2, 3, 1))
        assert not verdict.synchronizes
        assert verdict.note is not None
        assert verdict.obstruction.is_complete()
        assert verdict.min_rank_bound == 3

    def test_verdict_invariant(self):
        for group, f in [
            (symmetric_group(4), t(1, 1, 3, 4)),
            (cyclic_group(4), t(1, 2, 1, 4)),
            (grid_group(3), GRID_PROJECTION),
        ]:
            v = synchronizes(group, f)
            assert v.synchronizes == v.obstruction.is_null()
            assert v.synchronizes == (v.witness_word is not None)


class TestWords:
    def test_constant_map_single_letter(self):
        word = synchronizes(symmetric_group(3), t(2, 2, 2)).witness_word
        assert word == ("f",)

    def test_s3_word_short(self):
        group = symmetric_group(3)
        f = t(1, 1, 3)
        word = synchronizes(group, f).witness_word
        assert len(word) <= cerny_bound(3) == 4
        assert word_transformation(group, f, word).rank() == 1

    def test_c5_word_within_benchmark(self):
        group = cyclic_group(5)
        f = t(1, 1, 3, 4, 5)
        word = synchronizes(group, f).witness_word
        assert word_transformation(group, f, word).rank() == 1
        assert len(word) <= cerny_bound(5) == 16

    def test_word_at_least_shortest(self):
        rng = random.Random(41)
        for _ in range(40):
            n = rng.randint(2, 5)
            group = random.choice(
                [symmetric_group(max(2, n)), cyclic_group(n)]
            )
            group = cyclic_group(n) if group.degree != n else group
            f = Transformation(tuple(rng.randrange(n) for _ in range(n)))
            verdict = synchronizes(group, f)
            shortest = shortest_word_length(group, f)
            if verdict.synchronizes:
                assert shortest is not None
                assert len(verdict.witness_word) >= shortest
            else:
                assert shortest is None

    def test_error_when_not_synchronizing(self):
        group = grid_group(3)
        v, w = next(synchronizes(group, GRID_PROJECTION).obstruction.edges())
        with pytest.raises(NotSynchronizingError):
            PairCollapseAutomaton(group, GRID_PROJECTION).collapse_word(v, w)

    def test_word_letters_resolve(self):
        group = symmetric_group(3)
        f = t(1, 1, 3)
        assert word_transformation(group, f, ["g1", "f"]).degree == 3
        with pytest.raises(ValueError):
            word_transformation(group, f, ["nope"])


class TestMinRank:
    def test_synchronizing_one(self):
        assert min_rank_via_graph(symmetric_group(3), t(1, 1, 3)) == 1

    def test_grid_three(self):
        assert min_rank_via_graph(grid_group(3), GRID_PROJECTION) == 3

    def test_trivial_group_permutation(self):
        assert min_rank_via_graph(trivial_group(4), t(2, 3, 4, 1)) == 4

    def test_matches_closure(self):
        rng = random.Random(42)
        for _ in range(25):
            n = rng.randint(2, 6)
            group = cyclic_group(n)
            f = Transformation(tuple(rng.randrange(n) for _ in range(n)))
            oracle = closure_oracle(group, f)
            assert min_rank_via_graph(group, f) == oracle.min_rank


class TestOracleEquivalence:
    """The pair-collapse engine against the exhaustive closure, small degrees."""

    GROUPS = [
        symmetric_group(3),
        symmetric_group(4),
        cyclic_group(4),
        cyclic_group(5),
        cyclic_group(6),
        PermutationGroup([parse_cycles("(1 2)(3 4)", 4)], 4),
        trivial_group(3),
    ]

    def test_random_instances(self):
        rng = random.Random(43)
        for group in self.GROUPS:
            n = group.degree
            for _ in range(25):
                f = Transformation(tuple(rng.randrange(n) for _ in range(n)))
                oracle = closure_oracle(group, f)
                verdict = synchronizes(group, f)
                assert verdict.synchronizes == oracle.contains_constant()
                graph = verdict.obstruction
                oracle_edges = (
                    set(itertools.combinations(range(n), 2))
                    - set(oracle.collapsed_pairs())
                )
                assert set(graph.edges()) == oracle_edges
                assert graph.clique_number() == oracle.min_rank


class TestEndomorphismInvariants:
    def test_generators_preserve_obstruction(self):
        cases = [
            (grid_group(3), GRID_PROJECTION),
            (cyclic_group(4), t(1, 2, 1, 4)),
            (cyclic_group(6), t(1, 2, 3, 1, 5, 6)),
        ]
        for group, f in cases:
            graph = obstruction_graph(group, f)
            # a permutation of a finite graph that sends edges to edges is
            # an automorphism
            for g in group.generators:
                assert graph.is_endomorphism(g)
            assert graph.is_endomorphism(f)

    def test_semigroup_elements_are_endomorphisms(self):
        group, f = cyclic_group(6), t(1, 2, 3, 1, 5, 6)
        graph = obstruction_graph(group, f)
        oracle = closure_oracle(group, f)
        for element in oracle.iter_elements():
            assert graph.is_endomorphism(element)


class TestOrbitSolver:
    def test_matches_flat_engine(self):
        rng = random.Random(44)
        for group in [
            cyclic_group(5),
            cyclic_group(6),
            symmetric_group(4),
            grid_group(3),
        ]:
            solver = OrbitCollapseSolver(group)
            n = group.degree
            for _ in range(60):
                f = Transformation(tuple(rng.randrange(n) for _ in range(n)))
                flat = synchronizes(group, f)
                assert solver.synchronizes_images(f.images) == flat.synchronizes

    def test_grid_projection(self):
        solver = OrbitCollapseSolver(grid_group(3))
        assert not solver.synchronizes_images(GRID_PROJECTION.images)


def _batch_rows(entry, count):
    """Seeded image rows of every rank, a permutation and the constructed failures."""
    group, n = entry.group, entry.degree
    rng = random.Random(f"batch:{entry.name}")
    maps = [_map_of_rank(rng, n, rng.randint(1, n)).images for _ in range(count)]
    maps.append(_random_element(rng, group))
    for _ in range(2):
        f = _non_synchronizing_map(rng, entry.name, group)
        if f is not None:
            maps.append(f.images)
    return np.array(maps, dtype=np.int8)


class TestBatchSolver:
    """The orbit masks against the flat automaton, up to degree 64."""

    def test_masks_and_verdicts_match_flat_automaton(self):
        outcomes = {}
        for entry in build_catalog(64):
            solver = OrbitCollapseSolver(entry.group)
            n = entry.degree
            orbit_keys = [[v * n + w for v, w in cell] for cell in entry.group.pair_orbits()]
            # past one block where blocks are short (degree 47 and up)
            rows = _batch_rows(entry, min(solver.block_rows + 3, 64))
            masks = solver.collapsing_orbit_masks(rows)
            verdicts = solver.synchronizes_images(rows)
            assert masks.dtype == np.uint64 and verdicts.dtype == bool
            for row, mask, verdict in zip(rows.tolist(), masks.tolist(), verdicts.tolist()):
                f = Transformation(tuple(row))
                collapsible = PairCollapseAutomaton(entry.group, f).collapsible
                expected = 0
                for o, keys in enumerate(orbit_keys):
                    inside = collapsible.intersection(keys)
                    # the collapsible set is G-invariant: whole orbits or none
                    assert len(inside) in (0, len(keys)), (entry.name, row, o)
                    expected |= bool(inside) << o
                assert mask == expected, (entry.name, row)
                assert verdict == (len(collapsible) == n * (n - 1) // 2)
                assert solver.synchronizes_images(tuple(row)) is verdict, (entry.name, row)
                outcomes.setdefault(entry.degree, set()).add(verdict)
        assert sorted(outcomes) == list(range(3, 65))
        assert all(seen == {True, False} for seen in outcomes.values())

    def test_empty_block(self):
        solver = OrbitCollapseSolver(cyclic_group(6))
        assert solver.synchronizes_images(np.empty((0, 6), dtype=np.int8)).shape == (0,)

    def test_too_many_pair_orbits(self):
        # every one of the 66 pairs is its own orbit under the trivial group
        with pytest.raises(ValueError, match="at most 63 pair orbits; the group has 66"):
            OrbitCollapseSolver(trivial_group(12))


def _small_instance():
    """Strategy: a small transitive group together with an arbitrary map."""

    def build(args):
        kind, n, images = args
        group = {
            "cyclic": cyclic_group,
            "dihedral": dihedral_group,
            "symmetric": symmetric_group,
        }[kind](n)
        return group, Transformation(tuple(x % n for x in images[:n]))

    return st.tuples(
        st.sampled_from(["cyclic", "dihedral", "symmetric"]),
        st.integers(min_value=3, max_value=6),
        st.lists(st.integers(0, 5), min_size=6, max_size=6),
    ).map(build)


class TestSyncProperties:
    @settings(max_examples=40, deadline=None)
    @given(_small_instance())
    def test_verdict_matches_closure(self, instance):
        group, f = instance
        oracle = closure_oracle(group, f)
        verdict = synchronizes(group, f)
        assert verdict.synchronizes == oracle.contains_constant()
        assert verdict.min_rank_bound == oracle.min_rank

    @settings(max_examples=40, deadline=None)
    @given(_small_instance())
    def test_obstruction_graph_group_invariant(self, instance):
        group, f = instance
        graph = obstruction_graph(group, f)
        for g in group.generators:
            assert graph.is_endomorphism(g)
        assert graph.is_endomorphism(f)

    @settings(max_examples=40, deadline=None)
    @given(_small_instance())
    def test_witness_word_composes_constant(self, instance):
        group, f = instance
        verdict = synchronizes(group, f)
        if verdict.synchronizes:
            composed = word_transformation(group, f, verdict.witness_word)
            assert composed.rank() == 1


class TestShortestWordOracle:
    def test_already_constant(self):
        assert shortest_word_length(symmetric_group(3), t(1, 1, 1)) == 1

    def test_known_small_case(self):
        # brute-force check against all words of bounded length
        group = cyclic_group(4)
        f = t(1, 1, 3, 4)
        letters = list(group.generators) + [f]
        target = shortest_word_length(group, f)
        shortest = None
        for length in range(1, 8):
            for word in itertools.product(letters, repeat=length):
                composed = word[0]
                for w in word[1:]:
                    composed = composed * w
                if composed.rank() == 1:
                    shortest = length
                    break
            if shortest:
                break
        assert target == shortest
