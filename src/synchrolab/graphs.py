"""Simple undirected graphs on at most MAX_DEGREE vertices.

Adjacency is stored as one bitmask row per vertex, so neighbourhood tests
stay within machine-word operations. Clique and chromatic numbers are
exact: theorem checks depend on exactness, and vertex counts stay small.
Neighbourhoods are open throughout: a vertex is never its own neighbour.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

from .transformations import MAX_DEGREE, Partition, Transformation


@dataclass(frozen=True)
class Graph:
    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        n, rows = self.n, self.rows
        if not 1 <= n <= MAX_DEGREE:
            raise ValueError(f"vertex count must be in [1, {MAX_DEGREE}]")
        if len(rows) != n:
            raise ValueError("one adjacency row per vertex required")
        if not any(rows):
            return
        # Errors name the first bad row, or the first edge v,w with w not
        # adjacent to v, whichever comes first in row order.
        mask = (1 << n) - 1
        beyond = ~mask
        fault = None
        for v, row in enumerate(rows):
            if row & beyond:
                fault = v, f"row {v} mentions vertices beyond {n}"
            elif row >> v & 1:
                fault = v, f"vertex {v} adjacent to itself"
            else:
                continue
            # only the bits below n matter to the edges of the rows before v
            rows = [row & mask for row in rows]
            break
        # the rows as one int, row v at bit 64v; bit 64v + w of one_way is
        # set when w is a neighbour of v but v is not one of w
        matrix = int.from_bytes(array("Q", rows).tobytes(), "little")
        one_way = matrix & ~_transpose(matrix)
        if one_way:
            v, w = divmod((one_way & -one_way).bit_length() - 1, 64)
            if fault is None or v < fault[0]:
                raise ValueError(f"asymmetric edge {v},{w}")
        if fault is not None:
            raise ValueError(fault[1])

    @staticmethod
    def null(n: int) -> "Graph":
        return Graph(n, (0,) * n)

    @staticmethod
    def complete(n: int) -> "Graph":
        full = (1 << n) - 1
        return Graph(n, tuple(full ^ (1 << v) for v in range(n)))

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        rows = [0] * n
        for v, w in edges:
            if v == w:
                raise ValueError("loops are not allowed")
            rows[v] |= 1 << w
            rows[w] |= 1 << v
        return Graph(n, tuple(rows))

    @staticmethod
    def cycle(n: int) -> "Graph":
        return Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])

    def edges(self) -> Iterator[tuple[int, int]]:
        for v in range(self.n):
            for w in _bits(self.rows[v] >> (v + 1) << (v + 1)):
                yield (v, w)

    @cached_property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.rows) // 2

    def is_edge(self, v: int, w: int) -> bool:
        return bool(self.rows[v] >> w & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def neighbours(self, v: int) -> list[int]:
        return list(_bits(self.rows[v]))

    def is_null(self) -> bool:
        return all(row == 0 for row in self.rows)

    def is_complete(self) -> bool:
        full = (1 << self.n) - 1
        return all(row == full ^ (1 << v) for v, row in enumerate(self.rows))

    def is_trivial(self) -> bool:
        return self.is_null() or self.is_complete()

    def is_connected(self) -> bool:
        seen = 1
        frontier = 1
        while frontier:
            new = 0
            for v in _bits(frontier):
                new |= self.rows[v]
            frontier = new & ~seen
            seen |= new
        return seen == (1 << self.n) - 1

    def regular_valency(self) -> int | None:
        degrees = {row.bit_count() for row in self.rows}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        return Graph(
            self.n, tuple(full ^ row ^ (1 << v) for v, row in enumerate(self.rows))
        )

    def equal_neighbourhood_pairs(self) -> list[tuple[int, int]]:
        """All pairs v < w with identical open neighbourhoods.

        Adjacent vertices never qualify (irreflexivity), so comparing raw
        rows is exact.
        """
        out = []
        for v in range(self.n):
            for w in range(v + 1, self.n):
                if self.rows[v] == self.rows[w]:
                    out.append((v, w))
        return out

    def clique_number(self) -> int:
        return _max_clique_mask(self.rows, self.n).bit_count()

    def clique_of_size(self, k: int) -> tuple[int, ...] | None:
        """Some clique with at least ``k`` vertices, or None; early exit."""
        if k <= 0:
            return ()
        mask = _max_clique_mask(self.rows, self.n, stop_at=k)
        if mask.bit_count() >= k:
            return tuple(_bits(mask))
        return None

    def independent_set_of_size(self, k: int) -> tuple[int, ...] | None:
        return self.complement().clique_of_size(k)

    def chromatic_number(self) -> int:
        """Exact chromatic number by iterative deepening from the clique bound."""
        if self.is_null():
            return 1
        lower = self.clique_number()
        k = lower
        while True:
            if _colourable(self, k) is not None:
                return k
            k += 1

    def colouring(self, k: int) -> list[int] | None:
        """A proper colouring with at most ``k`` colours, or None."""
        return _colourable(self, k)

    def near_clique_witness(self, r: int) -> tuple[int, ...] | None:
        """An (r+1)-set inducing a complete graph minus exactly one edge.

        Searches non-adjacent pairs whose common neighbourhood holds an
        (r-1)-clique; returns the sorted witness vertex set or None.
        """
        if r < 1:
            return None
        for v in range(self.n):
            for w in range(v + 1, self.n):
                if self.is_edge(v, w):
                    continue
                common = self.rows[v] & self.rows[w]
                if common.bit_count() < r - 1:
                    continue
                mask = _max_clique_mask(self.rows, self.n, stop_at=r - 1, allowed=common)
                if mask.bit_count() >= r - 1:
                    chosen = list(_bits(mask))[: r - 1] if r > 1 else []
                    # Trim to exactly r-1 clique vertices if the search
                    # overshot; any sub-clique of a clique works.
                    return tuple(sorted([v, w] + chosen))
        return None

    def is_endomorphism(self, f: Transformation) -> bool:
        """True iff every edge maps to an edge (images distinct and adjacent)."""
        if f.degree != self.n:
            raise ValueError("degree mismatch")
        for v, w in self.edges():
            fv, fw = f.images[v], f.images[w]
            if fv == fw or not self.is_edge(fv, fw):
                return False
        return True

    def induced(self, vertices: Sequence[int]) -> "Graph":
        """Induced subgraph; vertex i of the result is vertices[i]."""
        verts = list(vertices)
        index = {v: i for i, v in enumerate(verts)}
        rows = [0] * len(verts)
        for i, v in enumerate(verts):
            for w in _bits(self.rows[v]):
                j = index.get(w)
                if j is not None:
                    rows[i] |= 1 << j
        return Graph(len(verts), tuple(rows))

    def to_dot(self) -> str:
        """Deterministic DOT text with 1-based vertex labels."""
        lines = ["graph {"]
        for v in range(self.n):
            lines.append(f"  {v + 1};")
        for v, w in sorted(self.edges()):
            lines.append(f"  {v + 1} -- {w + 1};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_adjacency_text(self) -> str:
        return (
            "\n".join(
                "".join("1" if row >> w & 1 else "0" for w in range(self.n))
                for row in self.rows
            )
            + "\n"
        )


# Transpose masks of a 64 x 64 bit matrix packed row-major into one int
# (bit 64v + w is entry v, w): for each block size j, the entries whose row
# has bit j clear and whose column has it set, the upper-right cell of
# every 2j x 2j block.
_TRANSPOSE_STEPS = tuple(
    (
        63 * j,
        sum(1 << 64 * v for v in range(64) if not v & j)
        * sum(1 << w for w in range(64) if w & j),
    )
    for j in (32, 16, 8, 4, 2, 1)
)


def _transpose(matrix: int) -> int:
    """The packed 64 x 64 bit matrix transposed, by six delta swaps.

    Step j swaps the upper-right and lower-left j x j cells of every
    2j x 2j block: entry v, w with v & j == 0 and w & j != 0 trades places
    with v + j, w - j, which lies 63j bits higher.
    """
    for shift, mask in _TRANSPOSE_STEPS:
        t = (matrix ^ matrix >> shift) & mask
        matrix ^= t ^ t << shift
    return matrix


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _max_clique_mask(
    rows: Sequence[int], n: int, stop_at: int | None = None, allowed: int | None = None
) -> int:
    """Bitmask of a maximum clique (or one of size >= stop_at, if given).

    Straightforward branch and bound: candidates ordered by degree, greedy
    colouring of the candidate set as the pruning bound. Every row read is
    masked by a candidate set inside ``allowed``, so the rows need not be
    restricted to it. The search state is passed explicitly, with no
    nested functions, so a call leaves no reference cycles behind for the
    garbage collector.
    """
    if allowed is None:
        allowed = (1 << n) - 1
    order = sorted(_bits(allowed), key=lambda v: (-(rows[v] & allowed).bit_count(), v))
    best = [0, 0]  # mask, size
    _expand_clique(rows, order, n + 1 if stop_at is None else stop_at, best, 0, 0, allowed)
    return best[0]


def _expand_clique(
    rows: Sequence[int], order: list[int], stop_at: int, best: list[int],
    current: int, size: int, cand: int,
):
    """Grow ``current`` from ``cand``; ``best`` holds the largest clique so far."""
    if best[1] >= stop_at:
        return
    if not cand:
        if size > best[1]:
            best[0], best[1] = current, size
        return
    if size + _colour_bound(rows, cand) <= best[1]:
        return
    for v in order:
        bit = 1 << v
        if not cand & bit:
            continue
        _expand_clique(rows, order, stop_at, best, current | bit, size + 1, cand & rows[v])
        cand &= ~bit
        if size + cand.bit_count() <= best[1] or best[1] >= stop_at:
            return


def _colour_bound(rows: Sequence[int], cand: int) -> int:
    """Colours a greedy colouring of ``cand`` uses: a bound on its clique size."""
    colours = 0
    remaining = cand
    while remaining:
        colours += 1
        cell = 0
        pool = remaining
        while pool:
            v = (pool & -pool).bit_length() - 1
            pool &= pool - 1
            if not (rows[v] & cell):
                cell |= 1 << v
        remaining &= ~cell
    return colours


def _colourable(g: Graph, k: int) -> list[int] | None:
    """Backtracking k-colouring with saturation ordering; None if infeasible.

    Like the clique search, the state is passed explicitly, with no nested
    functions, so a call leaves no reference cycles behind.
    """
    colour = [-1] * g.n
    # forbidden[v] = bitmask of colours already used by neighbours of v
    forbidden = [0] * g.n
    if _extend_colouring(g, k, colour, forbidden, 0, 0):
        return colour
    return None


def _extend_colouring(
    g: Graph, k: int, colour: list[int], forbidden: list[int], assigned: int, used: int
) -> bool:
    """Colour the rest of ``g`` from a partial colouring using ``used`` colours."""
    if assigned == g.n:
        return True
    v = min(
        (u for u in range(g.n) if colour[u] == -1),
        key=lambda u: (-forbidden[u].bit_count(), -g.degree(u), u),
    )
    for c in range(min(k, used + 1)):
        if forbidden[v] >> c & 1:
            continue
        colour[v] = c
        bumps = []
        for w in g.neighbours(v):
            if colour[w] == -1 and not forbidden[w] >> c & 1:
                forbidden[w] |= 1 << c
                bumps.append(w)
        if _extend_colouring(g, k, colour, forbidden, assigned + 1, max(used, c + 1)):
            return True
        for w in bumps:
            forbidden[w] &= ~(1 << c)
        colour[v] = -1
    return False


def complete_multipartite(blocks: Partition) -> Graph:
    """Edges exactly between distinct blocks of the partition.

    >>> complete_multipartite(Partition.from_blocks(4, [[0, 1], [2], [3]])).edge_count
    5
    """
    if len(blocks) < 2:
        raise ValueError("need at least two blocks; one block gives a null graph")
    n = blocks.degree
    idx = blocks.block_index
    rows = [0] * n
    for v in range(n):
        for w in range(n):
            if v != w and idx[v] != idx[w]:
                rows[v] |= 1 << w
    return Graph(n, tuple(rows))


def witness_map_for_block(blocks: Partition, a_set, a: int) -> Transformation:
    """The map collapsing ``a_set`` (inside one block) to ``a``, fixing the rest.

    An idempotent endomorphism of complete_multipartite(blocks) with kernel
    type (|a_set|, 1, ..., 1).
    """
    pts = sorted(set(a_set))
    if a not in pts:
        raise ValueError("target point must belong to the collapsed set")
    owners = {blocks.block_index[x] for x in pts}
    if len(owners) != 1:
        raise ValueError("collapsed set must lie inside a single block")
    images = list(range(blocks.degree))
    for x in pts:
        images[x] = a
    return Transformation(tuple(images))

