import gc
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synchrolab.graphs import (
    Graph,
    complete_multipartite,
    witness_map_for_block,
)
from synchrolab.transformations import Partition, Transformation, identity


def rook_graph(m=3):
    """Oracle construction: vertices (i,j), edges on shared row or column."""
    n = m * m
    edges = [
        (v, w)
        for v, w in itertools.combinations(range(n), 2)
        if v // m == w // m or v % m == w % m
    ]
    return Graph.from_edges(n, edges)


def brute_clique_number(g):
    """Oracle: largest subset that is pairwise adjacent, by enumeration."""
    best = 1 if g.n else 0
    for size in range(2, g.n + 1):
        found = False
        for sub in itertools.combinations(range(g.n), size):
            if all(g.is_edge(v, w) for v, w in itertools.combinations(sub, 2)):
                found = True
                break
        if found:
            best = size
        else:
            break
    return best


def brute_chromatic_number(g):
    """Oracle: smallest k admitting a proper colouring, by enumeration."""
    for k in range(1, g.n + 1):
        for colours in itertools.product(range(k), repeat=g.n):
            if all(colours[v] != colours[w] for v, w in g.edges()):
                return k
    return g.n


def random_graph(rng, n):
    edges = [
        (v, w)
        for v, w in itertools.combinations(range(n), 2)
        if rng.random() < 0.4
    ]
    return Graph.from_edges(n, edges)


def cyclic_garbage(call):
    """The call's result and the objects it left in reference cycles."""
    gc.collect()
    gc.garbage.clear()
    debug = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        result = call()
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
    return result, garbage


class TestBasicPredicates:
    def test_null_and_complete(self):
        assert Graph.null(4).is_null()
        assert Graph.complete(4).is_complete()
        assert Graph.null(4).is_trivial()
        assert not rook_graph().is_trivial()

    def test_null_not_connected(self):
        assert not Graph.null(3).is_connected()
        assert Graph.null(1).is_connected()

    def test_complete_regular(self):
        assert Graph.complete(5).regular_valency() == 4

    def test_rook_connected_regular(self):
        g = rook_graph()
        assert g.is_connected()
        assert g.regular_valency() == 4
        assert g.edge_count == 18

    def test_validation(self):
        with pytest.raises(ValueError):
            Graph(2, (1, 0))  # asymmetric
        with pytest.raises(ValueError):
            Graph(2, (3, 1))  # loop


class TestEqualNeighbourhoods:
    def test_complete_bipartite(self):
        k23 = complete_multipartite(Partition.from_blocks(5, [[0, 1], [2, 3, 4]]))
        pairs = k23.equal_neighbourhood_pairs()
        assert set(pairs) == {(0, 1), (2, 3), (2, 4), (3, 4)}

    def test_rook_none(self):
        assert rook_graph().equal_neighbourhood_pairs() == []

    def test_null_all(self):
        pairs = Graph.null(4).equal_neighbourhood_pairs()
        assert len(pairs) == 6


class TestCliqueChromatic:
    def test_k4_minus_edge(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        assert g.clique_number() == 3
        assert g.chromatic_number() == 3

    def test_rook(self):
        g = rook_graph()
        assert g.clique_number() == 3
        assert g.chromatic_number() == 3

    def test_odd_cycle(self):
        c5 = Graph.cycle(5)
        assert c5.clique_number() == 2
        assert c5.chromatic_number() == 3

    def test_against_enumeration_oracle(self):
        rng = random.Random(91)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 8))
            assert g.clique_number() == brute_clique_number(g)
            assert g.chromatic_number() == brute_chromatic_number(g)

    def test_clique_le_chromatic(self):
        rng = random.Random(92)
        for _ in range(50):
            g = random_graph(rng, rng.randint(1, 9))
            assert g.clique_number() <= g.chromatic_number()

    def test_clique_search_leaves_no_cyclic_garbage(self):
        assert cyclic_garbage(rook_graph().clique_number) == (3, [])

    def test_colouring_leaves_no_cyclic_garbage(self):
        assert cyclic_garbage(Graph.cycle(7).chromatic_number) == (3, [])
        assert cyclic_garbage(lambda: rook_graph().colouring(2)) == (None, [])

    def test_colouring_is_proper(self):
        g = rook_graph()
        colours = g.colouring(3)
        assert colours is not None
        assert all(colours[v] != colours[w] for v, w in g.edges())


class TestNearClique:
    def test_k4_minus_edge_found(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        witness = g.near_clique_witness(3)
        assert witness == (0, 1, 2, 3)

    def test_rook_has_none(self):
        assert rook_graph().near_clique_witness(3) is None

    def test_multipartite_has_one(self):
        g = complete_multipartite(
            Partition.from_blocks(9, [[0, 1, 2], [3, 4, 5], [6, 7, 8]])
        )
        witness = g.near_clique_witness(3)
        assert witness is not None
        sub = g.induced(witness)
        missing = [
            (v, w)
            for v, w in itertools.combinations(range(4), 2)
            if not sub.is_edge(v, w)
        ]
        assert len(missing) == 1

    def test_witness_structure_random(self):
        rng = random.Random(93)
        for _ in range(40):
            g = random_graph(rng, rng.randint(4, 9))
            for r in (2, 3):
                witness = g.near_clique_witness(r)
                if witness is None:
                    continue
                assert len(witness) == r + 1
                sub = g.induced(witness)
                non_edges = [
                    e
                    for e in itertools.combinations(range(r + 1), 2)
                    if not sub.is_edge(*e)
                ]
                assert len(non_edges) == 1


class TestEndomorphisms:
    def test_identity_automorphism(self):
        g = rook_graph()
        assert g.is_endomorphism(identity(9))

    def test_row_projection_endomorphism(self):
        # image is the diagonal, a clique of the skew graph; check against
        # the complement of the rook graph where skew pairs are the edges
        skew = rook_graph().complement()
        projection = Transformation(tuple((x // 3) * 4 for x in range(9)))
        assert skew.is_endomorphism(projection)

    def test_edge_collapse_rejected(self):
        k3 = Graph.complete(3)
        assert not k3.is_endomorphism(Transformation((0, 0, 2)))


class TestCompleteMultipartite:
    def test_two_blocks_cycle(self):
        g = complete_multipartite(Partition.from_blocks(4, [[0, 1], [2, 3]]))
        assert g.edge_count == 4
        assert g.regular_valency() == 2

    def test_three_by_three(self):
        g = complete_multipartite(
            Partition.from_blocks(9, [[0, 1, 2], [3, 4, 5], [6, 7, 8]])
        )
        assert g.edge_count == 27

    def test_two_one_one(self):
        g = complete_multipartite(Partition.from_blocks(4, [[0, 1], [2], [3]]))
        assert g.edge_count == 5  # complete graph minus one edge
        assert not g.is_edge(0, 1)

    def test_single_block_rejected(self):
        with pytest.raises(ValueError):
            complete_multipartite(Partition.from_blocks(3, [[0, 1, 2]]))


class TestWitnessMap:
    def test_quoted_construction(self):
        blocks = Partition.from_blocks(4, [[0, 1], [2, 3]])
        f = witness_map_for_block(blocks, [0, 1], 0)
        assert f.images == (0, 0, 2, 3)

    def test_singleton_is_identity(self):
        blocks = Partition.from_blocks(4, [[0, 1], [2, 3]])
        assert witness_map_for_block(blocks, [2], 2) == identity(4)

    def test_endomorphism_and_idempotent(self):
        for blocks in [
            Partition.from_blocks(6, [[0, 1, 2], [3, 4, 5]]),
            Partition.from_blocks(6, [[0, 1], [2, 3], [4, 5]]),
            Partition.from_blocks(8, [[0, 1, 2, 3], [4, 5, 6, 7]]),
        ]:
            graph = complete_multipartite(blocks)
            block = blocks.blocks[0]
            for k in range(2, len(block) + 1):
                f = witness_map_for_block(blocks, block[:k], block[0])
                assert f.is_idempotent()
                assert graph.is_endomorphism(f)
                assert f.kernel_type().sizes[0] == k

    def test_straddling_rejected(self):
        blocks = Partition.from_blocks(4, [[0, 1], [2, 3]])
        with pytest.raises(ValueError):
            witness_map_for_block(blocks, [1, 2], 1)


def _graphs(max_n=8):
    def build(args):
        n, bits = args
        edges = [
            e
            for i, e in enumerate(itertools.combinations(range(n), 2))
            if bits >> i & 1
        ]
        return Graph.from_edges(n, edges)

    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.tuples(
            st.just(n), st.integers(0, 2 ** (n * (n - 1) // 2) - 1)
        ).map(build)
    )


class TestGraphProperties:
    @settings(max_examples=60, deadline=None)
    @given(_graphs())
    def test_clique_at_most_chromatic(self, g):
        assert g.clique_number() <= g.chromatic_number()

    @settings(max_examples=60, deadline=None)
    @given(_graphs())
    def test_complement_involution(self, g):
        assert g.complement().complement() == g

    @settings(max_examples=40, deadline=None)
    @given(_graphs(max_n=7))
    def test_colouring_feasible_at_chromatic(self, g):
        k = g.chromatic_number()
        colours = g.colouring(k)
        assert colours is not None
        assert all(colours[v] != colours[w] for v, w in g.edges())
        if k > 1:
            assert g.colouring(k - 1) is None


class TestSerialization:
    def test_dot_null(self):
        text = Graph.null(2).to_dot()
        assert "--" not in text

    def test_dot_single_edge(self):
        text = Graph.from_edges(2, [(0, 1)]).to_dot()
        assert text.count("--") == 1
        assert "1 -- 2" in text

    def test_dot_rook_edge_count(self):
        assert rook_graph().to_dot().count("--") == 18

    def test_adjacency_roundtrip(self):
        g = rook_graph()
        rows = g.to_adjacency_text().splitlines()
        assert set("".join(rows)) == {"0", "1"}
        # a symmetric matrix with an empty diagonal, read back as edges v < w
        assert rows == ["".join(row[v] for row in rows) for v in range(g.n)]
        assert all(rows[v][v] == "0" for v in range(g.n))
        edges = [
            (v, w) for v, row in enumerate(rows) for w, c in enumerate(row) if c == "1" and v < w
        ]
        assert Graph.from_edges(g.n, edges) == g
