"""Permutation groups given by generators.

Point orbits, block systems and primitivity use elementary union-find
methods; order and membership use a deterministic stabilizer chain with
base order 0, 1, 2, ... so that cached results are reproducible across
runs. Orbits on point sets, pairs and partitions all come from one
breadth-first walker, PermutationGroup.orbit, which also records the
generator word reaching each orbit member.

A group is immutable after construction; lazy caches (stabilizer chain,
pair orbits, block systems, stabilizer element lists) are filled on first
use and identical regardless of call order, so instances may be shared.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

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


@dataclass
class _ChainLevel:
    point: int
    gens: list[tuple[int, ...]] = field(default_factory=list)
    transversal: dict[int, tuple[int, ...]] = field(default_factory=dict)


def _mult(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(q[x] for x in p)


def _inv(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for x, y in enumerate(p):
        out[y] = x
    return tuple(out)


class _StabilizerChain:
    """Deterministic Schreier-Sims chain with the full base (0, 1, ..., n-1).

    Levels whose orbit is a singleton are kept; they cost nothing and make
    the base order literal. Generators are stored at the level of their
    first moved point.
    """

    def __init__(self, generators: list[tuple[int, ...]], degree: int):
        self.n = degree
        self.levels = [_ChainLevel(point=i) for i in range(degree)]
        ident = tuple(range(degree))
        for lv in self.levels:
            lv.transversal[lv.point] = ident
        placed = False
        for g in generators:
            if g != ident:
                self._place(g)
                placed = True
        if placed:
            self._close()

    def _place(self, g: tuple[int, ...]):
        level = next(i for i in range(self.n) if g[i] != i)
        self.levels[level].gens.append(g)

    def _gens_at(self, i: int) -> list[tuple[int, ...]]:
        return [g for lv in self.levels[i:] for g in lv.gens]

    def _rebuild_orbit(self, i: int):
        lv = self.levels[i]
        gens = self._gens_at(i)
        ident = tuple(range(self.n))
        lv.transversal = {lv.point: ident}
        order = [lv.point]
        for p in order:
            u = lv.transversal[p]
            for g in gens:
                q = g[p]
                if q not in lv.transversal:
                    lv.transversal[q] = _mult(u, g)
                    order.append(q)

    def _strip(self, g: tuple[int, ...], start: int) -> tuple[tuple[int, ...], int]:
        for i in range(start, self.n):
            lv = self.levels[i]
            p = g[lv.point]
            if p == lv.point:
                continue
            if p not in lv.transversal:
                return g, i
            g = _mult(g, _inv(lv.transversal[p]))
        return g, self.n

    def _close(self):
        deepest = max(
            (i for i in range(self.n) if self.levels[i].gens), default=-1
        )
        i = deepest
        while i >= 0:
            self._rebuild_orbit(i)
            lv = self.levels[i]
            gens = self._gens_at(i)
            dirty = False
            for p in sorted(lv.transversal):
                u = lv.transversal[p]
                for g in gens:
                    target = lv.transversal[g[p]]
                    schreier = _mult(_mult(u, g), _inv(target))
                    residue, j = self._strip(schreier, i + 1)
                    if j < self.n and any(
                        residue[x] != x for x in range(self.n)
                    ):
                        self.levels[j].gens.append(residue)
                        i = j
                        dirty = True
                        break
                if dirty:
                    break
            if not dirty:
                i -= 1

    def order(self) -> int:
        result = 1
        for lv in self.levels:
            result *= len(lv.transversal)
        return result

    def orbit_sizes(self) -> list[int]:
        return [len(lv.transversal) for lv in self.levels]

    def contains(self, g: tuple[int, ...]) -> bool:
        residue, depth = self._strip(g, 0)
        return depth == self.n and all(residue[x] == x for x in range(self.n))

    def suborder(self, start: int) -> int:
        """Order of the pointwise stabilizer of 0..start-1."""
        result = 1
        for lv in self.levels[start:]:
            result *= len(lv.transversal)
        return result

    def iter_stabilizer_elements(self, start: int):
        """Elements fixing 0..start-1 pointwise, deterministically ordered."""
        transversals = [
            [lv.transversal[p] for p in sorted(lv.transversal)]
            for lv in self.levels[start:]
            if len(lv.transversal) > 1
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


def act_on_blocks(
    blocks: tuple[tuple[int, ...], ...], g: tuple[int, ...]
) -> tuple[tuple[int, ...], ...]:
    """Image of a canonical block tuple (``Partition.blocks``), kept canonical."""
    return tuple(sorted([tuple(sorted([g[x] for x in b])) for b in blocks]))


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
        uf = self._block_closure_uf([(a, b)])
        root = uf.find(a)
        return frozenset(x for x in range(self.degree) if uf.find(x) == root)

    def _block_closure_uf(self, seed_pairs) -> _UnionFind:
        # Atkinson's method: keep merging images of merged pairs until the
        # partition is invariant under every generator.
        uf = _UnionFind(self.degree)
        queue = []
        for a, b in seed_pairs:
            if uf.union(a, b):
                queue.append((a, b))
        gens = [g.images for g in self.generators]
        while queue:
            x, y = queue.pop()
            for g in gens:
                gx, gy = g[x], g[y]
                if uf.union(gx, gy):
                    queue.append((gx, gy))
        return uf

    def block_closure(self, points) -> frozenset[int]:
        """Smallest block containing all the given points."""
        pts = sorted(set(points))
        if len(pts) < 2:
            return frozenset(pts)
        uf = self._block_closure_uf([(pts[0], p) for p in pts[1:]])
        root = uf.find(pts[0])
        return frozenset(x for x in range(self.degree) if uf.find(x) == root)

    def is_primitive(self) -> bool:
        """Transitive with no proper block containing {0, b} for any b."""
        if not self.is_transitive():
            return False
        n = self.degree
        if n == 1:
            return True
        full = frozenset(range(n))
        return all(self.minimal_block(0, b) == full for b in range(1, n))

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
    def _pair_orbit_ids(self) -> tuple[list[int], int]:
        """Orbit id for each unordered pair {v,w}, indexed by v*n+w (v<w)."""
        n = self.degree
        ids = [-1] * (n * n)
        count = 0
        for v in range(n):
            for w in range(v + 1, n):
                if ids[v * n + w] == -1:
                    for (a, b), _ in self.orbit((v, w), act_on_pair):
                        ids[a * n + b] = count
                    count += 1
        return ids, count

    @cached_property
    def _block_systems(self) -> tuple["BlockSystem", ...]:
        return tuple(
            BlockSystem.from_block(self, blk) for blk in self._nontrivial_blocks_with_zero
        )

    def pair_orbits(self) -> list[list[tuple[int, int]]]:
        """Orbits on unordered point pairs, cells ordered by smallest pair."""
        n = self.degree
        ids, count = self._pair_orbit_ids
        cells: list[list[tuple[int, int]]] = [[] for _ in range(count)]
        for v in range(n):
            for w in range(v + 1, n):
                cells[ids[v * n + w]].append((v, w))
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

    def contains_transposition(self, cap: int = 1_000_000) -> bool:
        """Whether some element is a transposition; scans all elements."""
        return self._contains_cycle_type(cap, transpositions=True)

    def contains_double_transposition(self, cap: int = 1_000_000) -> bool:
        """Whether some element is a product of two disjoint 2-cycles."""
        return self._contains_cycle_type(cap, transpositions=False)

    def _contains_cycle_type(self, cap: int, transpositions: bool) -> bool:
        if self.order() > cap:
            raise GroupTooLargeError(
                f"group order {self.order()} exceeds cap {cap}"
            )
        want_moved = 2 if transpositions else 4
        for g in self._chain.iter_stabilizer_elements(0):
            moved = [x for x in range(self.degree) if g[x] != x]
            if len(moved) == want_moved and all(g[g[x]] == x for x in moved):
                return True
        return False


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
