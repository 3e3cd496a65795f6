"""Permutation groups given by generators.

Point orbits, block systems and primitivity use elementary union-find
methods; order and membership use an incremental deterministic
Schreier-Sims chain with base order 0, 1, 2, ..., so that cached results
are reproducible across runs. Each (orbit point, strong generator) pair of
a level is sifted once, and transversal elements, once found, are kept.
Primitivity closes one block per suborbit: {0, b} for one b per orbit of
the chain's strong generators fixing 0. Orbits on point sets come from a
breadth-first walker, PermutationGroup.orbit, which also records the
generator word reaching each orbit member.

The pair layer lives here too: pair_tables numbers the pairs {v, w},
v < w, lexicographically, pair_images moves them under maps, and
orbit_labels labels the orbits of index maps, for pair_orbit_ids as for
the kernel orbits of sweeps.kernel_orbit_representatives.

A group is immutable after construction; lazy caches (stabilizer chain,
pair orbits, block systems, stabilizer element lists) are filled on first
use and identical regardless of call order, so instances may be shared.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property
from operator import itemgetter
from pathlib import Path

import numpy as np

from .transformations import (
    Partition,
    Transformation,
    compose_all,
    format_cycles,
    identity,
    parse_cycles,
)


class GroupTooLargeError(Exception):
    """Raised when an exhaustive operation would exceed its explicit cap."""


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, x: int, y: int) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if ry < rx:
            rx, ry = ry, rx
        self.parent[ry] = rx
        return True


def _mult(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """p then q: the image tuple of x -> q[p[x]] (degree at least 2)."""
    return itemgetter(*p)(q)


def _inv(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for x, y in enumerate(p):
        out[y] = x
    return tuple(out)


class _StabilizerChain:
    """Incremental deterministic Schreier-Sims chain with the full base (0, 1, ..., n-1).

    ``transversals[i]`` maps each point p of the orbit of i under the
    pointwise stabilizer of 0..i-1 to an element carrying i to p. Levels
    whose orbit is a singleton are kept; they cost nothing and make the base
    order literal. Each strong generator belongs to the level of its first
    moved point, and the stabilizer at level i is generated by the strong
    generators of levels i and deeper. ``strong_generators`` holds them all,
    in the order found.

    Closing starts at the deepest level holding a generator and works up
    (Seress, *Permutation Group Algorithms*, 2003, ch. 4). Each (orbit
    point, strong generator) pair of a level is handled once: either it
    extends the orbit in place, or its Schreier generator is sifted through
    the deeper levels with the inverse transversal elements. A residue that
    does not sift to the identity becomes a strong generator at the level
    where it stuck, and closing resumes there. Transversal elements are
    never replaced, so a pair that sifted once stays sifted. The inverses,
    the record of handled pairs and the per-level generator lists exist only
    while closing.
    """

    def __init__(self, generators: list[tuple[int, ...]], degree: int):
        self.n = degree
        ident = tuple(range(degree))
        self.transversals = [{i: ident} for i in range(degree)]
        self.strong_generators: tuple[tuple[int, ...], ...] = ()
        nontrivial = [g for g in generators if g != ident]
        if nontrivial:
            self._close(nontrivial)

    def _close(self, generators: list[tuple[int, ...]]):
        n = self.n
        # gens[i]: strong generators of level i and deeper, in the order found;
        # done[i][p]: how many of gens[i] have been handled at the point p
        gens: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
        done = [[0] * n for _ in range(n)]
        inverses = [dict(t) for t in self.transversals]
        orbits = [[i] for i in range(n)]
        strong = []

        def add(g: tuple[int, ...]) -> int:
            level = next(i for i in range(n) if g[i] != i)
            strong.append(g)
            for k in range(level + 1):
                gens[k].append(g)
            return level

        i = max(map(add, generators))
        while i >= 0:
            residue = self._close_level(i, gens[i], done[i], orbits[i], inverses)
            i = i - 1 if residue is None else add(residue)
        self.strong_generators = tuple(strong)

    def _close_level(self, i, level_gens, level_done, orbit, inverses):
        """Handle level i's pairs not handled before; the first residue that does not sift, or None."""
        transversal, inverse = self.transversals[i], inverses[i]
        ident = transversal[i]
        for p in orbit:  # grows while it is walked
            u = transversal[p]
            while level_done[p] < len(level_gens):
                g = level_gens[level_done[p]]
                level_done[p] += 1
                ug = _mult(u, g)
                q = g[p]
                v = transversal.get(q)
                if v is None:
                    transversal[q] = ug
                    inverse[q] = _inv(ug)
                    orbit.append(q)
                elif ug != v:
                    residue = self._strip(_mult(ug, inverse[q]), i + 1, inverses)
                    if residue != ident:
                        return residue
        return None

    def _strip(self, g, start: int, inverses) -> tuple[int, ...]:
        """Sift g from level ``start``; a residue stops at its first unsiftable level."""
        ident = self.transversals[0][0]
        for i in range(start, self.n):
            p = g[i]
            if p != i:
                w = inverses[i].get(p)
                if w is None:
                    return g
                g = _mult(g, w)
                if g == ident:
                    return g
        return g

    def order(self) -> int:
        return self.suborder(0)

    def orbit_sizes(self) -> list[int]:
        return [len(t) for t in self.transversals]

    def contains(self, g: tuple[int, ...]) -> bool:
        for i, transversal in enumerate(self.transversals):
            p = g[i]
            if p != i:
                u = transversal.get(p)
                if u is None:
                    return False
                g = _mult(g, _inv(u))
        return True

    def suborder(self, start: int) -> int:
        """Order of the pointwise stabilizer of 0..start-1."""
        result = 1
        for t in self.transversals[start:]:
            result *= len(t)
        return result

    def iter_stabilizer_elements(self, start: int):
        """Elements fixing 0..start-1 pointwise, deterministically ordered."""
        transversals = [
            [t[p] for p in sorted(t)] for t in self.transversals[start:] if len(t) > 1
        ]
        if not transversals:
            yield tuple(range(self.n))
            return
        for combo in itertools.product(*reversed(transversals)):
            g = combo[0]
            for u in combo[1:]:
                g = _mult(g, u)
            yield g


def act_on_set(points: frozenset[int], g: tuple[int, ...]) -> frozenset[int]:
    """Image of a point set under the permutation with image tuple ``g``."""
    return frozenset([g[x] for x in points])


def act_on_pair(pair: tuple[int, int], g: tuple[int, ...]) -> tuple[int, int]:
    """Image of a sorted point pair, sorted again."""
    a, b = g[pair[0]], g[pair[1]]
    return (a, b) if a < b else (b, a)


@cache
def pair_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
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


def pair_images(maps, n: int) -> np.ndarray:
    """images[i, p]: the index of the image of pair p under maps[i].

    A map that sends both points of p to one point gets count = n(n-1)/2,
    an index past every pair.
    """
    ends, offset = pair_tables(n)
    count = len(ends) // 2
    points = np.array(maps, dtype=np.intp).take(ends, axis=1)
    a, b = points[:, :count], points[:, count:]
    images = offset[np.minimum(a, b)] + np.maximum(a, b)
    images[a == b] = count
    return images


def orbit_labels(moves, count: int) -> np.ndarray:
    """For every index below count, the least index of its orbit under the index maps.

    Each move is a permutation of range(count) as an index array. Min-label
    propagation along each move and its inverse, then pointer jumping
    (label = label[label]); a label only ever names an index of the same
    orbit and never grows, so when a round changes nothing the label is
    constant on each orbit and equals its least index.
    """
    label = np.arange(count, dtype=np.int32)
    while True:
        new = label.copy()
        for move in moves:
            np.minimum(new, label[move], out=new)
            new[move] = np.minimum(new[move], label)
        while not np.array_equal(jumped := new[new], new):
            new = jumped
        if np.array_equal(new, label):
            return label
        label = new


class PermutationGroup:
    """A permutation group on ``{0, ..., degree-1}`` given by generators."""

    def __init__(self, generators, degree: int | None = None):
        gens = tuple(generators)
        if not gens:
            if degree is None:
                raise ValueError("trivial group needs an explicit degree")
            gens = (identity(degree),)
        if degree is None:
            degree = gens[0].degree
        for g in gens:
            if g.degree != degree:
                raise ValueError("generator degree mismatch")
            if not g.is_permutation():
                raise ValueError(f"generator is not a permutation: {g}")
        self.degree = degree
        self.generators = gens
        self._stabilizers: dict[int, tuple[tuple[int, ...], ...]] = {}

    def __repr__(self):
        gens = ", ".join(format_cycles(g) for g in self.generators)
        return f"PermutationGroup(degree={self.degree}, gens=[{gens}])"

    @cached_property
    def _chain(self) -> _StabilizerChain:
        return _StabilizerChain([g.images for g in self.generators], self.degree)

    @cached_property
    def _orbit_partition(self) -> Partition:
        uf = _UnionFind(self.degree)
        for g in self.generators:
            for x in range(self.degree):
                uf.union(x, g.images[x])
        blocks: dict[int, list[int]] = {}
        for x in range(self.degree):
            blocks.setdefault(uf.find(x), []).append(x)
        return Partition.from_blocks(self.degree, blocks.values())

    def orbits(self) -> Partition:
        return self._orbit_partition

    def orbit(self, start, act):
        """Breadth-first orbit of ``start``, where ``act(item, images)`` moves an item.

        Yields ``(item, word)`` in discovery order, ``start`` first with the
        empty word. ``word`` holds the generator indices, first letter
        first, of the element ``self.element(word)`` that carries ``start``
        to ``item``. The walk is lazy, so a caller may stop at its answer.
        """
        gens = [g.images for g in self.generators]
        words = {start: ()}
        order = [start]
        for item in order:
            word = words[item]
            yield item, word
            for i, g in enumerate(gens):
                moved = act(item, g)
                if moved not in words:
                    words[moved] = word + (i,)
                    order.append(moved)

    def element(self, word) -> Transformation:
        """The product of the generators indexed by ``word``, left to right."""
        return compose_all([identity(self.degree)] + [self.generators[i] for i in word])

    def is_transitive(self) -> bool:
        return len(self._orbit_partition) == 1

    def minimal_block(self, a: int, b: int) -> frozenset[int]:
        """Smallest block of imprimitivity containing both ``a`` and ``b``.

        Returns the full point set when no proper block contains them.
        """
        if not self.is_transitive():
            raise ValueError("minimal_block requires a transitive group")
        if a == b:
            raise ValueError("seed points must differ")
        return self.block_closure([a, b])

    def block_closure(self, points) -> frozenset[int]:
        """Smallest block containing all the given points.

        Atkinson's method: keep merging images of merged pairs until the
        partition is invariant under every generator.
        """
        pts = sorted(set(points))
        if len(pts) < 2:
            return frozenset(pts)
        uf = _UnionFind(self.degree)
        queue = [(pts[0], p) for p in pts[1:]]
        for a, b in queue:
            uf.union(a, b)
        gens = [g.images for g in self.generators]
        while queue:
            x, y = queue.pop()
            for g in gens:
                gx, gy = g[x], g[y]
                if uf.union(gx, gy):
                    queue.append((gx, gy))
        root = uf.find(pts[0])
        return frozenset(x for x in range(self.degree) if uf.find(x) == root)

    def is_primitive(self) -> bool:
        """Transitive with no proper block containing {0, b} for any b.

        One b per suborbit suffices: for h fixing 0, the minimal block of
        {0, b^h} is the h-image of the minimal block of {0, b}. The b are
        taken one per orbit of the strong generators fixing 0. Those orbits
        refine the suborbits even if the chain were wrong, so a wrong chain
        would only cost extra block closures.
        """
        if not self.is_transitive():
            return False
        n = self.degree
        if n == 1:
            return True
        uf = _UnionFind(n)
        for g in self._chain.strong_generators:
            if g[0] == 0:
                for x in range(1, n):
                    uf.union(x, g[x])
        full = frozenset(range(n))
        return all(
            self.minimal_block(0, b) == full for b in range(1, n) if uf.find(b) == b
        )

    @cached_property
    def _nontrivial_blocks_with_zero(self) -> list[frozenset[int]]:
        # Every block containing 0 is the block closure of {0} plus some
        # points, so growing closures point by point finds them all.
        n = self.degree
        full = frozenset(range(n))
        found: set[frozenset[int]] = set()
        queue: list[frozenset[int]] = []
        for b in range(1, n):
            blk = self.block_closure([0, b])
            if blk != full and blk not in found:
                found.add(blk)
                queue.append(blk)
        for blk in queue:
            for x in range(n):
                if x in blk:
                    continue
                bigger = self.block_closure(list(blk) + [x])
                if bigger != full and bigger not in found:
                    found.add(bigger)
                    queue.append(bigger)
        return sorted(found, key=lambda b: (len(b), sorted(b)))

    def block_systems(self) -> list["BlockSystem"]:
        """All nontrivial block systems, smallest block size first."""
        if not self.is_transitive():
            raise ValueError("block systems require a transitive group")
        return list(self._block_systems)

    def order(self) -> int:
        return self._chain.order()

    def contains(self, p: Transformation) -> bool:
        if p.degree != self.degree:
            return False
        if not p.is_permutation():
            return False
        return self._chain.contains(p.images)

    def elements(self, cap: int = 1_000_000) -> list[Transformation]:
        """Every element, deterministically ordered; refuses above ``cap``."""
        size = self.order()
        if size > cap:
            raise GroupTooLargeError(
                f"group order {size} exceeds cap {cap}; raise the cap to enumerate"
            )
        return [Transformation(g) for g in self._chain.iter_stabilizer_elements(0)]

    def transitivity_degree(self) -> int:
        """Largest t with the group t-transitive (0 when intransitive)."""
        t = 0
        for i, size in enumerate(self._chain.orbit_sizes()):
            if size == self.degree - i:
                t += 1
            else:
                break
        return t

    def is_2_transitive(self) -> bool:
        return self.transitivity_degree() >= 2

    @cached_property
    def pair_orbit_ids(self) -> np.ndarray:
        """Orbit id of every pair, by pair_tables index, as a read-only array.

        Orbits are numbered 0, 1, ... in the order of their least pair,
        which labels itself. Counting those roots takes no sort: the sort
        behind np.unique(return_inverse=True) pages about 0.3 MB more numpy
        code into the resident set on first use.
        """
        n = self.degree
        moves = pair_images([g.images for g in self.generators], n)
        label = orbit_labels(moves, n * (n - 1) // 2)
        ids = (np.cumsum(label == np.arange(len(label))) - 1)[label]
        ids.flags.writeable = False
        return ids

    @cached_property
    def _block_systems(self) -> tuple["BlockSystem", ...]:
        return tuple(
            BlockSystem.from_block(self, blk) for blk in self._nontrivial_blocks_with_zero
        )

    def pair_orbits(self) -> list[list[tuple[int, int]]]:
        """Orbits on unordered point pairs, cells ordered by smallest pair."""
        ids = self.pair_orbit_ids
        ends = pair_tables(self.degree)[0].tolist()
        cells: list[list[tuple[int, int]]] = [[] for _ in range(ids.max(initial=-1) + 1)]
        for orbit, v, w in zip(ids.tolist(), ends, ends[len(ids) :]):
            cells[orbit].append((v, w))
        return cells

    def stabilizer_order(self, prefix_len: int) -> int:
        """Order of the pointwise stabilizer of 0..prefix_len-1."""
        return self._chain.suborder(prefix_len)

    def stabilizer_elements(
        self, prefix_len: int, cap: int = 1_000_000
    ) -> tuple[tuple[int, ...], ...]:
        """Elements fixing 0..prefix_len-1, as raw image tuples, cached per prefix."""
        size = self._chain.suborder(prefix_len)
        if size > cap:
            raise GroupTooLargeError(
                f"stabilizer order {size} exceeds cap {cap}"
            )
        elements = self._stabilizers.get(prefix_len)
        if elements is None:
            elements = tuple(self._chain.iter_stabilizer_elements(prefix_len))
            self._stabilizers[prefix_len] = elements
        return elements

    def set_orbit(self, points) -> list[frozenset[int]]:
        """Orbit of a point set under the group, in BFS discovery order."""
        return [s for s, _ in self.orbit(frozenset(points), act_on_set)]


@dataclass(frozen=True)
class BlockSystem:
    """A verified system of imprimitivity: equal-size blocks permuted setwise."""

    partition: Partition
    block_size: int

    @staticmethod
    def from_block(group: PermutationGroup, block: frozenset[int]) -> "BlockSystem":
        n = group.degree
        translates = group.set_orbit(block)
        covered = [False] * n
        for t in translates:
            for x in t:
                if covered[x]:
                    raise ValueError("block translates overlap; not a block")
                covered[x] = True
        if not all(covered):
            raise ValueError("block translates do not cover the points")
        partition = Partition.from_blocks(n, (sorted(t) for t in translates))
        system = BlockSystem(partition, len(block))
        system.verify(group)
        return system

    def verify(self, group: PermutationGroup):
        """Check every generator maps each block onto a block."""
        blocks = {frozenset(b) for b in self.partition.blocks}
        sizes = {len(b) for b in blocks}
        if sizes != {self.block_size}:
            raise ValueError("unequal block sizes")
        for g in group.generators:
            for b in blocks:
                image = frozenset(g.images[x] for x in b)
                if image not in blocks:
                    raise ValueError(
                        f"generator {g} breaks block {sorted(b)}"
                    )


def parse_group_text(text: str) -> tuple[str | None, PermutationGroup]:
    """Parse the group file format.

    Header line ``degree n`` first, an optional ``name: ...`` line, then one
    generator per line in 1-based cycle notation. Blank lines and lines
    starting with ``#`` are skipped.
    """
    degree = None
    name = None
    gens: list[Transformation] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        words = line.split()
        if words[0].lower() in ("degree", "degree:"):
            if degree is not None:
                raise ValueError("duplicate degree line")
            if len(words) != 2 or not words[1].isdecimal():
                raise ValueError(f"expected 'degree n', got {line!r}")
            degree = int(words[1])
            continue
        if line.lower().startswith("name:"):
            name = line.split(":", 1)[1].strip()
            continue
        if degree is None:
            raise ValueError("group file must start with a 'degree n' line")
        gens.append(parse_cycles(line, degree))
    if degree is None:
        raise ValueError("missing 'degree n' line")
    return name, PermutationGroup(gens, degree)


def load_group_file(path) -> tuple[str | None, PermutationGroup]:
    return parse_group_text(Path(path).read_text())


def format_group_text(group: PermutationGroup, name: str | None = None) -> str:
    lines = [f"degree {group.degree}"]
    if name:
        lines.append(f"name: {name}")
    lines.extend(format_cycles(g) for g in group.generators)
    return "\n".join(lines) + "\n"
