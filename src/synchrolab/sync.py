"""Deciding whether a permutation group synchronizes a transformation.

The decision procedure works on unordered point pairs: a pair is
*collapsible* when some word over the group generators and the extra map
sends both points to one point. The backward-reachability closure of the
directly-collapsed pairs gives the full collapsible set in O(n^2 * letters)
time, with no semigroup enumeration.

The complement of the collapsible set is the edge set of the *obstruction
graph*: the group synchronizes the map exactly when that graph has no
edges, every element of the generated semigroup is an endomorphism of it,
and its clique number equals its chromatic number equals the minimum rank
in the semigroup. Those identities are asserted, not assumed; a violation
raises InconsistencyError because it can only mean a bug.

Pairs {v, w} with v < w are indexed v*n + w in flat tables.
"""
from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph
from .groups import PermutationGroup
from .transformations import Transformation, compose_all


class InconsistencyError(Exception):
    """An internally-provable identity failed; this always indicates a bug."""


class NotSynchronizingError(Exception):
    """Raised when a synchronizing word is requested for a non-instance."""


def _letters(group: PermutationGroup, f: Transformation):
    names = [f"g{i + 1}" for i in range(len(group.generators))] + ["f"]
    maps = [g.images for g in group.generators] + [f.images]
    return names, maps


class PairCollapseAutomaton:
    """Backward-reachability structure on unordered point pairs.

    letters = the group generators followed by the extra map; collapsible =
    every pair some word sends to a single point. For each collapsible pair
    the first letter of one collapsing word is retained so words can be
    reconstructed without re-running the search.
    """

    def __init__(self, group: PermutationGroup, f: Transformation):
        if f.degree != group.degree:
            raise ValueError("degree mismatch between group and map")
        self.degree = group.degree
        self.letter_names, self._letter_maps = _letters(group, f)
        self._build()

    def _build(self):
        n = self.degree
        maps = self._letter_maps
        # image_table[p][li] = image pair index, or -1 when letter li sends
        # pair p straight to a single point
        pairs = [(v, w) for v in range(n) for w in range(v + 1, n)]
        image_table: dict[int, list[int]] = {}
        reverse: dict[int, list[int]] = {}
        seeds: list[int] = []
        first_letter: dict[int, int] = {}
        for v, w in pairs:
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
                    if a > b:
                        a, b = b, a
                    row.append(a * n + b)
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
                # letter choice: first letter whose image is already known
                # collapsible keeps words deterministic
                for li, target in enumerate(image_table[p]):
                    if target == q:
                        first_letter[p] = li
                        break
                collapsible.add(p)
                queue.append(p)
        self._image_table = image_table
        self._first_letter = first_letter
        self.collapsible = frozenset(collapsible)

    def is_collapsible(self, v: int, w: int) -> bool:
        if v == w:
            return True
        if v > w:
            v, w = w, v
        return v * self.degree + w in self.collapsible

    def collapse_word(self, v: int, w: int) -> list[int]:
        """Letter indices of a word sending both points to one point."""
        if v == w:
            return []
        if v > w:
            v, w = w, v
        p = v * self.degree + w
        if p not in self.collapsible:
            raise NotSynchronizingError(f"pair ({v + 1},{w + 1}) never collapses")
        word = []
        while True:
            li = self._first_letter[p]
            word.append(li)
            nxt = self._image_table[p][li]
            if nxt == -1:
                return word
            p = nxt

    def letter_map(self, li: int) -> tuple[int, ...]:
        return self._letter_maps[li]

    def obstruction_edges(self) -> list[tuple[int, int]]:
        n = self.degree
        return [
            (v, w)
            for v in range(n)
            for w in range(v + 1, n)
            if v * n + w not in self.collapsible
        ]


@dataclass(frozen=True)
class SyncVerdict:
    """Outcome of a synchronization check.

    synchronizes is true exactly when the obstruction graph is null,
    exactly when a witness word is present; the witness composes to a
    constant map. min_rank_bound is the obstruction graph's clique number,
    which equals the minimum rank in the generated semigroup.
    """

    synchronizes: bool
    witness_word: tuple[str, ...] | None
    obstruction: Graph
    min_rank_bound: int
    note: str | None = None


def obstruction_graph(group: PermutationGroup, f: Transformation) -> Graph:
    """Graph whose edges are the pairs no word can merge (null iff synchronizing)."""
    auto = PairCollapseAutomaton(group, f)
    return Graph.from_edges(group.degree, auto.obstruction_edges())


def synchronizes(group: PermutationGroup, f: Transformation) -> SyncVerdict:
    auto = PairCollapseAutomaton(group, f)
    graph = Graph.from_edges(group.degree, auto.obstruction_edges())
    note = None
    if f.is_permutation():
        note = "map is a permutation; it can only synchronize when the degree is 1"
    sync = graph.is_null()
    word = None
    if sync:
        word = tuple(_greedy_word(auto, group, f))
        composed = word_transformation(group, f, word)
        if composed.rank() != 1:
            raise InconsistencyError("witness word does not compose to a constant")
    return SyncVerdict(
        synchronizes=sync,
        witness_word=word,
        obstruction=graph,
        min_rank_bound=graph.clique_number(),
        note=note,
    )


def _greedy_word(auto: PairCollapseAutomaton, group, f) -> list[str]:
    """Collapse the lexicographically least collapsible pair of the current image.

    Each round strictly shrinks the image, so at most degree-1 rounds run;
    word length is reported against the (n-1)^2 Cerny benchmark elsewhere,
    greedy words carry no optimality promise.
    """
    n = auto.degree
    if n == 1:
        return ["f"]
    image = list(range(n))
    word: list[str] = []
    while len(image) > 1:
        pair = None
        for i in range(len(image)):
            for j in range(i + 1, len(image)):
                if auto.is_collapsible(image[i], image[j]):
                    pair = (image[i], image[j])
                    break
            if pair:
                break
        if pair is None:
            raise NotSynchronizingError("no collapsible pair in current image")
        for li in auto.collapse_word(*pair):
            m = auto.letter_map(li)
            image = sorted({m[x] for x in image})
            word.append(auto.letter_names[li])
    return word


def synchronizing_word(group: PermutationGroup, f: Transformation) -> tuple[str, ...]:
    """A word over {g1, ..., gk, f} composing to a constant map."""
    verdict = synchronizes(group, f)
    if not verdict.synchronizes:
        raise NotSynchronizingError("the group does not synchronize this map")
    assert verdict.witness_word is not None
    return verdict.witness_word


def word_transformation(
    group: PermutationGroup, f: Transformation, word
) -> Transformation:
    """Compose a word of letter names into a single transformation."""
    named = dict(
        [(f"g{i + 1}", g) for i, g in enumerate(group.generators)] + [("f", f)]
    )
    try:
        letters = [named[name] for name in word]
    except KeyError as exc:
        raise ValueError(f"unknown letter {exc.args[0]!r}") from exc
    if not letters:
        raise ValueError("empty word")
    return compose_all(letters)


def min_rank_via_graph(group: PermutationGroup, f: Transformation) -> int:
    """Minimum rank in the generated semigroup, via the obstruction graph.

    Clique and chromatic numbers of the obstruction graph provably agree
    and equal the minimum rank; both are computed and compared.
    """
    graph = obstruction_graph(group, f)
    clique = graph.clique_number()
    chromatic = graph.chromatic_number()
    if clique != chromatic:
        raise InconsistencyError(
            f"obstruction graph clique {clique} != chromatic {chromatic}"
        )
    return clique


def cerny_bound(n: int) -> int:
    return (n - 1) ** 2


def shortest_word_length(group: PermutationGroup, f: Transformation) -> int | None:
    """Exact shortest synchronizing-word length by BFS on image subsets.

    Exponential in the degree; intended as a small-degree test oracle.
    Returns None when no synchronizing word exists.
    """
    n = group.degree
    _, maps = _letters(group, f)
    start = (1 << n) - 1
    if start.bit_count() == 1:
        return 1  # single point: any single letter is constant
    dist = {start: 0}
    queue = [start]
    for state in queue:
        d = dist[state]
        for m in maps:
            nxt = 0
            s = state
            while s:
                low = s & -s
                nxt |= 1 << m[low.bit_length() - 1]
                s ^= low
            if nxt not in dist:
                if nxt.bit_count() == 1:
                    return d + 1
                dist[nxt] = d + 1
                queue.append(nxt)
    return None


class OrbitCollapseSolver:
    """Fast synchronization verdicts for many maps under one group.

    The collapsible pair set is invariant under the group, so the backward
    reachability search can run on pair orbits instead of pairs: an orbit
    collapses when some member pair is sent by the map to a single point or
    into a collapsing orbit. Per map this costs one pass over the pairs
    plus a fixed-point loop over the handful of orbits.

    Agrees with PairCollapseAutomaton exactly; the test suite checks the
    equivalence instance by instance on small degrees.
    """

    def __init__(self, group: PermutationGroup):
        self.group = group
        n = group.degree
        ids, count = group._pair_orbit_ids
        self.n = n
        self.orbit_ids = ids
        self.orbit_count = count
        self.pairs = [(v, w) for v in range(n) for w in range(v + 1, n)]
        self.pair_orbit = [ids[v * n + w] for v, w in self.pairs]

    def synchronizes_images(self, images) -> bool:
        return self.collapsing_orbit_mask(images) == (1 << self.orbit_count) - 1

    def collapsing_orbit_mask(self, images) -> int:
        """Bitmask of pair orbits that collapse; complement spans the obstruction."""
        n = self.n
        ids = self.orbit_ids
        sink = 0
        successors = [0] * self.orbit_count
        for (v, w), o in zip(self.pairs, self.pair_orbit):
            a = images[v]
            b = images[w]
            if a == b:
                sink |= 1 << o
            else:
                if a > b:
                    a, b = b, a
                successors[o] |= 1 << ids[a * n + b]
        collapsing = sink
        changed = True
        while changed:
            changed = False
            for o in range(self.orbit_count):
                bit = 1 << o
                if not collapsing >> o & 1 and successors[o] & collapsing:
                    collapsing |= bit
                    changed = True
        return collapsing

    def obstruction_graph_images(self, images) -> Graph:
        mask = self.collapsing_orbit_mask(images)
        edges = [
            pair
            for pair, o in zip(self.pairs, self.pair_orbit)
            if not mask >> o & 1
        ]
        return Graph.from_edges(self.n, edges)
