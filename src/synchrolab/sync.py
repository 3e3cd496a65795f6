"""Deciding whether a permutation group synchronizes a transformation.

The decision procedure works on unordered point pairs: a pair is
*collapsible* when some word over the group generators and the extra map
sends both points to one point. A level BFS in numpy, backwards from the
pairs one letter collapses, finds every collapsible pair and a shortest
collapse word for each, with no semigroup enumeration.

The complement of the collapsible set is the edge set of the *obstruction
graph*: the group synchronizes the map exactly when that graph has no
edges. Every element of the generated semigroup is an endomorphism of the
graph, so the greedy collapse certifies the minimum rank: it merges
collapsible pairs of the image until none is left, the image I where it
stops is a clique, and its word colours the graph with |I| colours, so
clique number = chromatic number = minimum rank = |I|. synchronizes checks
this certificate in O(n^2) on every call; min_rank_via_graph keeps the
exact clique and chromatic searches as an independent route. A failed
check raises InconsistencyError because it can only mean a bug.

Pairs {v, w} with v < w are numbered v*(2n-v-1)//2 + w-v-1, in
lexicographic order; the public ``collapsible`` set keeps flat keys v*n + w.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from operator import itemgetter

import numpy as np

from .graphs import Graph
from .groups import PermutationGroup
from .transformations import Transformation, identity


class InconsistencyError(Exception):
    """An internally-provable identity failed; this always indicates a bug."""


class NotSynchronizingError(Exception):
    """Raised when a collapse word is requested for a pair that never collapses."""


def _letters(group: PermutationGroup, f: Transformation):
    names = [f"g{i + 1}" for i in range(len(group.generators))] + ["f"]
    maps = [g.images for g in group.generators] + [f.images]
    return names, maps


@cache
def _pair_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Pair ends and offsets on n points, as read-only int16 arrays.

    Pair {v, w}, v < w, has index p = v*(2n-v-1)//2 + w-v-1, which numbers
    the pairs in lexicographic order; ends[p] = v and ends[count + p] = w
    for the count = n(n-1)/2 pairs, and p = offset[v] + w.
    """
    v, w = np.triu_indices(n, 1)
    points = np.arange(n)
    offset = points * (2 * n - points - 1) // 2 - points - 1
    tables = (np.concatenate([v, w]).astype(np.int16), offset.astype(np.int16))
    for table in tables:
        table.flags.writeable = False
    return tables


class PairCollapseAutomaton:
    """Backward-reachability structure on unordered point pairs.

    letters = the group generators followed by the extra map; collapsible =
    every pair some word sends to a single point. The search is a level
    BFS over pair indices: level 0 holds the pairs some letter sends to a
    single point, level k+1 the pairs some letter sends into level k. For
    each collapsible pair the lowest such letter is kept, so every pair's
    collapse word is a shortest one and the words are deterministic, with
    generators preferred to the map.
    """

    def __init__(self, group: PermutationGroup, f: Transformation):
        if f.degree != group.degree:
            raise ValueError("degree mismatch between group and map")
        self.degree = group.degree
        self.letter_names, self._letter_maps = _letters(group, f)
        self._build()

    def _build(self):
        ends, offset = _pair_tables(self.degree)
        count = len(ends) // 2
        images = np.array(self._letter_maps, dtype=np.intp).take(ends, axis=1)
        a, b = images[:, :count], images[:, count:]
        # rows[letter, p] = the pair index the letter sends pair p to; count
        # (an index past every pair) stands for a single point
        rows = offset[np.minimum(a, b)] + np.maximum(a, b)
        rows[a == b] = count
        # Every array below keeps one size per degree and letter count:
        # numpy keeps freed small buffers for reuse by size, so arrays that
        # shrink level by level would leave a buffer of every size behind.
        # depth[p] = 1 + the level of pair p, 0 for the single-point index
        # count, -1 while p is not known to collapse
        depth = np.empty(count + 1, dtype=np.int16)
        depth.fill(-1)
        depth[count] = 0
        visited = depth >= 0
        pair_depth, pair_visited = depth[:count], visited[:count]
        new = np.empty(count, dtype=bool)
        remaining = count
        level = 1
        while remaining:
            # a pair not yet visited has no letter into the levels before
            # the last, so a hit on a visited pair is a hit on the last level
            np.logical_or.reduce(visited[rows], axis=0, out=new)
            np.greater(new, pair_visited, out=new)
            found = np.count_nonzero(new)
            if not found:
                break
            np.copyto(pair_depth, level, where=new)
            pair_visited |= new
            remaining -= found
            level += 1
        # the letter kept for each pair is the lowest one into the level
        # before its own (argmax takes the first True); pairs that never
        # collapse match no letter and get letter 0
        into_previous = depth[rows] == pair_depth - 1
        # one byte per pair index, 1 when the pair collapses
        self._collapses = pair_visited.tobytes()
        self._letter = into_previous.argmax(axis=0)
        self._rows = rows

    def _index(self, v: int, w: int) -> int:
        n = self.degree
        return v * (2 * n - v - 1) // 2 + w - v - 1

    @cached_property
    def collapsible(self) -> frozenset[int]:
        """The collapsible pairs {v, w}, v < w, as flat keys v*n + w."""
        n = self.degree
        ends = _pair_tables(n)[0].astype(np.intp)
        count = len(ends) // 2
        keys = ends[:count] * n + ends[count:]
        return frozenset(keys[np.frombuffer(self._collapses, dtype=bool)].tolist())

    def least_collapsible_pair(self, points: list[int]) -> tuple[int, int] | None:
        """The lexicographically least collapsible pair of the sorted points."""
        n = self.degree
        collapses = self._collapses
        for i, v in enumerate(points):
            base = v * (2 * n - v - 1) // 2 - v - 1
            for w in points[i + 1:]:
                if collapses[base + w]:
                    return v, w
        return None

    def collapse_word(self, v: int, w: int) -> list[int]:
        """Letter indices of a shortest word sending both points to one point."""
        if v == w:
            return []
        if v > w:
            v, w = w, v
        p = self._index(v, w)
        if not self._collapses[p]:
            raise NotSynchronizingError(f"pair ({v + 1},{w + 1}) never collapses")
        count = len(self._collapses)
        letter, rows = self._letter, self._rows
        word = []
        while p != count:
            li = int(letter[p])
            word.append(li)
            p = int(rows[li, p])
        return word

    def letter_map(self, li: int) -> tuple[int, ...]:
        return self._letter_maps[li]

    def obstruction_edges(self) -> list[tuple[int, int]]:
        """The pairs v < w that never collapse, in lexicographic order."""
        n = self.degree
        collapses = self._collapses
        edges = []
        if 0 not in collapses:
            return edges
        start = 0
        for v in range(n - 1):
            end = start + n - v - 1
            p = collapses.find(0, start, end)
            while p != -1:
                edges.append((v, p - start + v + 1))
                p = collapses.find(0, p + 1, end)
            start = end
        return edges


@dataclass(frozen=True)
class SyncVerdict:
    """Outcome of a synchronization check.

    synchronizes is true exactly when the obstruction graph is null,
    exactly when a witness word is present; the witness composes to a
    constant map. min_rank_bound is |I| for the image I where the greedy
    collapse stops. It is certified, not searched for: I is a clique of the
    obstruction graph and the greedy word, of rank |I|, colours it properly,
    so |I| is the clique number, the chromatic number and the minimum rank
    in the generated semigroup.
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
    letters, image = _greedy_collapse(auto)
    word = tuple([auto.letter_names[li] for li in letters])
    composed = word_transformation(group, f, word) if word else identity(group.degree)
    _certify_min_rank(graph, image, composed)
    sync = graph.is_null()
    return SyncVerdict(
        synchronizes=sync,
        witness_word=word if sync else None,
        obstruction=graph,
        min_rank_bound=len(image),
        note=note,
    )


def _greedy_collapse(auto: PairCollapseAutomaton) -> tuple[list[int], list[int]]:
    """Collapse the lexicographically least collapsible pair of the image, to the end.

    Returns the letters of the word and the sorted image it reaches, where
    no pair collapses any more. Each round strictly shrinks the image, so
    at most degree-1 rounds run; word length is reported against the
    (n-1)^2 Cerny benchmark elsewhere, greedy words carry no optimality
    promise. On one point the word is the map alone.
    """
    n = auto.degree
    if n == 1:
        return [len(auto.letter_names) - 1], [0]
    image = list(range(n))
    word: list[int] = []
    while (pair := auto.least_collapsible_pair(image)) is not None:
        points = image
        for li in auto.collapse_word(*pair):
            # the pair stays apart until the last letter, so points has at
            # least two members and itemgetter returns a tuple
            points = itemgetter(*points)(auto.letter_map(li))
            word.append(li)
        image = sorted(set(points))
    return word, image


def _certify_min_rank(graph: Graph, image: list[int], composed: Transformation):
    """Check that the greedy word proves min rank = clique = chromatic = |image|.

    Every semigroup element is an endomorphism of the obstruction graph, so
    it is injective on cliques and the minimum rank is at least the clique
    number. If the image where the greedy stops is a clique, and the word,
    of rank |image|, sends no edge to a single point (a proper colouring
    with |image| colours), then clique number = chromatic number = minimum
    rank = |image|. On a synchronizing map this says the word is constant.
    """
    rows = graph.rows
    clique = sum(1 << v for v in image)
    if any((rows[v] | 1 << v) & clique != clique for v in image):
        raise InconsistencyError("the greedy collapse stopped at an image that is not a clique")
    if composed.rank() != len(image):
        raise InconsistencyError(
            f"greedy word has rank {composed.rank()}, not {len(image)}"
        )
    colour_classes: dict[int, int] = {}
    for x, y in enumerate(composed.images):
        colour_classes[y] = colour_classes.get(y, 0) | 1 << x
    for x, y in enumerate(composed.images):
        if rows[x] & colour_classes[y]:
            raise InconsistencyError("greedy word sends an obstruction edge to one point")


def word_transformation(
    group: PermutationGroup, f: Transformation, word
) -> Transformation:
    """Compose a word of letter names into a single transformation."""
    if f.degree != group.degree:
        raise ValueError(f"degree mismatch: {group.degree} != {f.degree}")
    named = dict(
        [(f"g{i + 1}", g.images) for i, g in enumerate(group.generators)]
        + [("f", f.images)]
    )
    try:
        maps = [named[name] for name in word]
    except KeyError as exc:
        raise ValueError(f"unknown letter {exc.args[0]!r}") from exc
    if not maps:
        raise ValueError("empty word")
    images = maps[0]
    if len(images) > 1:  # itemgetter of a single index returns no tuple
        for m in maps[1:]:
            images = itemgetter(*images)(m)
    return Transformation(images)


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


# the orbit solver keeps about this many (row, pair) cells per block in flight
BLOCK_PAIR_CELLS = 1 << 16
# bit 63 of a collapsing mask stands for a single point, so the orbit
# solver takes at most 63 pair orbits
_SINK = np.uint64(1 << 63)


class OrbitCollapseSolver:
    """Fast synchronization verdicts for many maps under one group.

    The collapsible pair set is invariant under the group, so the backward
    reachability search can run on pair orbits instead of pairs: an orbit
    collapses when some member pair is sent by the map to a single point or
    into a collapsing orbit. For a (rows x n) array of image rows this is
    one numpy pass over the pairs plus a fixed-point loop over the orbits,
    block_rows rows at a time. The per-group tables are built once: pair
    ends sorted by orbit, reduceat starts, and one orbit bit per ordered
    point pair, in uint64, so the solver takes at most 63 pair orbits (a
    transitive group of degree n has at most n-1). The test suite checks
    the masks against PairCollapseAutomaton on catalog groups up to
    degree 64.
    """

    def __init__(self, group: PermutationGroup):
        n = group.degree
        ids, count = group._pair_orbit_ids
        if count > 63:
            raise ValueError(
                f"the orbit solver takes at most 63 pair orbits; the group has {count}"
            )
        self.n = n
        self.orbit_count = count
        ends = _pair_tables(n)[0].astype(np.intp)
        pairs = len(ends) // 2
        v, w = ends[:pairs], ends[pairs:]
        orbit = np.array(ids, dtype=np.intp)[v * n + w]
        order = np.argsort(orbit, kind="stable")
        orbit = orbit[order]
        first, second = v[order], w[order]
        self._first, self._second = first, second
        self._starts = np.searchsorted(orbit, np.arange(count))
        # bits[a*n + b] is the bit of the orbit of {a, b}, and _SINK for a = b
        bits = np.full((n, n), _SINK)
        bits[first, second] = bits[second, first] = np.left_shift(
            np.uint64(1), orbit.astype(np.uint64)
        )
        self._bits = bits.ravel()
        # a column of the orbit bits in orbit order
        self._orbit_bits = np.left_shift(np.uint64(1), np.arange(count, dtype=np.uint64))[:, None]
        self._all = np.uint64((1 << count) - 1)
        self.block_rows = max(1, BLOCK_PAIR_CELLS // max(1, pairs))

    def synchronizes_images(self, images):
        """Verdict for a tuple of images, or a bool array for an array of image rows."""
        if isinstance(images, np.ndarray):
            return self.collapsing_orbit_masks(images) == self._all
        row = np.array([images], dtype=np.int8)
        return bool(self.collapsing_orbit_masks(row)[0] == self._all)

    def collapsing_orbit_masks(self, images: np.ndarray) -> np.ndarray:
        """Bitmask of the collapsing pair orbits of every row, as uint64.

        The pairs of the orbits outside a row's mask span its obstruction graph.
        """
        first, second, starts = self._first, self._second, self._starts
        bits, orbit_bits = self._bits, self._orbit_bits
        n = self.n
        masks = np.zeros(len(images), dtype=np.uint64)
        if not self.orbit_count:
            return masks
        step = self.block_rows
        for lo in range(0, len(images), step):
            # a column per map, so that every pair and orbit below is one
            # contiguous vector over the block
            points = images[lo : lo + step].T.astype(np.intp)
            cells = (points * n)[first]
            cells += points[second]
            # successors[o, r]: the orbits, and _SINK, that the pairs of
            # orbit o go to under map r
            successors = np.bitwise_or.reduceat(bits[cells], starts, axis=0)
            collapsing = np.full(successors.shape[1], _SINK)
            while True:
                # the orbit bits are distinct, so their sum is their union
                hit = (successors & collapsing) != 0
                grown = (hit * orbit_bits).sum(axis=0, dtype=np.uint64) | _SINK
                if np.array_equal(grown, collapsing):
                    break
                collapsing = grown
            masks[lo : lo + step] = collapsing & ~_SINK
        return masks
