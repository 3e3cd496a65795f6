"""Brute-force semigroup closures and the section/partition machinery.

The closure enumerator is the package's testing oracle: it is exponential
and proud of it. It refuses silently approximate answers: hitting the
element cap sets a ``truncated`` flag and the analytic accessors raise
instead of guessing.

Elements are enumerated breadth-first with the generators in input order,
so discovery indices are stable across runs and usable in reports.
"""
from __future__ import annotations

import mmap
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graphs import Graph
from .groups import GroupTooLargeError, PermutationGroup, act_on_set
from .sweeps import kernel_types_of_rank, partitions_of_type
from .sync import InconsistencyError, _pair_tables
from .transformations import KernelType, Partition, Transformation, compose

DEFAULT_CLOSURE_CAP = 1_000_000
# Re-measured with int32-code levels on 1,096 oracle closures (2-CPU host):
# 512 here left the median closure as it was (0.146-0.152 ms against
# 0.148-0.156 ms; 256 doubled it) and took all of them in 1.23-1.28 s
# against 1.38-1.43 s, but at degree 8 each switch sets up the 16.7 MB
# visited array (about 1 ms when it was zeroed on the heap), so C8 oracle
# requests went from 1.1 to 3.4 ms (median) and closures of 10^5 elements
# 5-10% slower.
DENSE_MIN_ELEMENTS = 2048
# The visited array holds degree**degree bytes: 16.7 MB at 8, 387 MB at 9.
DENSE_MAX_DEGREE = 8


class TruncatedClosureError(Exception):
    """The closure hit its cap, so exact answers are unavailable."""


@dataclass
class SemigroupClosure:
    """All products of the generators, deduplicated, in discovery order."""

    degree: int
    generators: tuple[Transformation, ...]
    matrix: np.ndarray  # shape (count, degree), dtype uint8
    truncated: bool
    cap: int

    def __len__(self) -> int:
        return int(self.matrix.shape[0])

    def element(self, i: int) -> Transformation:
        return Transformation(tuple(int(x) for x in self.matrix[i]))

    def iter_elements(self):
        for row in self.matrix:
            yield Transformation(tuple(int(x) for x in row))

    @cached_property
    def ranks(self) -> np.ndarray:
        """Image size of each element: the bit count of its image set.

        The set is an OR of one-bit masks over ceil(degree/8) bytes, one
        gather per position, so the cost is linear in the elements.
        """
        n = self.degree
        # row v sets bit v % 8 of byte v // 8
        masks = np.packbits(np.eye(n, dtype=bool), axis=1, bitorder="little")
        image = np.take(masks, self.matrix[:, 0], axis=0)
        for i in range(1, n):
            image |= np.take(masks, self.matrix[:, i], axis=0)
        return np.bitwise_count(image).sum(axis=1, dtype=np.int64)

    @cached_property
    def rank_spectrum(self) -> tuple[int, ...]:
        self._require_complete()
        return tuple(int(r) for r in np.flatnonzero(np.bincount(self.ranks)))

    @property
    def min_rank(self) -> int:
        self._require_complete()
        return int(self.ranks.min())

    def contains_constant(self) -> bool:
        self._require_complete()
        return bool((self.ranks == 1).any())

    def _require_complete(self):
        if self.truncated:
            raise TruncatedClosureError(
                f"closure truncated at cap {self.cap}; oracle unavailable"
            )

    def collapsed_pairs(self) -> frozenset[tuple[int, int]]:
        """All pairs {v,w} merged by at least one element.

        Rows are scanned in chunks of 1024 rows, doubling up to 2**14, and
        a pair leaves the scan at the first chunk that merges it, so only
        the pairs no element merges are compared on every row.
        """
        self._require_complete()
        ends = _pair_tables(self.degree)[0]
        count = len(ends) // 2
        v, w = ends[:count], ends[count:]
        merged = np.zeros(count, dtype=bool)
        pending = np.arange(count)
        start, size = 0, 1 << 10
        while len(pending) and start < len(self):
            chunk = self.matrix[start : start + size]
            merged[pending] = (chunk[:, v[pending]] == chunk[:, w[pending]]).any(axis=0)
            pending = pending[~merged[pending]]
            start += size
            size = min(2 * size, 1 << 14)
        return frozenset(zip(v[merged].tolist(), w[merged].tolist()))

    def contains(self, f: Transformation) -> bool:
        self._require_complete()
        target = np.array(f.images, dtype=np.uint8)
        return bool((self.matrix == target).all(axis=1).any())

    def min_rank_elements(self) -> list[Transformation]:
        self._require_complete()
        r = self.min_rank
        return [
            self.element(i) for i in np.nonzero(self.ranks == r)[0]
        ]

    def dump(self) -> str:
        """One transformation per line, discovery-ordered, 1-based."""
        lines = [
            "[" + ",".join(str(int(x) + 1) for x in row) + "]"
            for row in self.matrix
        ]
        return "\n".join(lines) + "\n"


def closure(generators, cap: int = DEFAULT_CLOSURE_CAP) -> SemigroupClosure:
    """Breadth-first product closure of the generators.

    Elements are numbered in discovery order: the distinct generators in
    input order, then level by level, each level's products taken frontier
    element by frontier element and, within one element, generator by
    generator. The closure never holds more than ``cap`` elements; when one
    more new element turns up (a generator included), the closure stops
    there and is marked truncated.

    The BFS runs in two phases with the same order. Small closures compose
    byte strings with bytes.translate and deduplicate them in a set. Once
    DENSE_MIN_ELEMENTS elements are found at a level boundary and the
    degree is at most DENSE_MAX_DEGREE, the rest runs level by level in
    numpy over a visited array of degree**degree bytes (at most 16.7 MB),
    indexed by the base-degree code of each map. That phase carries only
    the int32 code of each new element from level to level and writes the
    uint8 rows once, when the BFS ends.
    """
    gens = tuple(generators)
    if not gens:
        raise ValueError("need at least one generator")
    if cap < 1:
        raise ValueError(f"closure cap must be at least 1, got {cap}")
    degree = gens[0].degree
    for g in gens:
        if g.degree != degree:
            raise ValueError("generator degree mismatch")
    # translate tables must cover all 256 byte values
    tables = [bytes(g.images) + bytes(range(degree, 256)) for g in gens]
    seen: set[bytes] = set()
    order: list[bytes] = []
    truncated = False
    for g in gens:
        b = bytes(g.images)
        if b not in seen:
            if len(order) >= cap:
                truncated = True
                break
            seen.add(b)
            order.append(b)
    dense = degree <= DENSE_MAX_DEGREE
    level_start = 0
    while len(order) > level_start and not truncated:
        if dense and len(order) >= DENSE_MIN_ELEMENTS:
            break
        frontier = order[level_start:]
        level_start = len(order)
        for w in frontier:
            for t in tables:
                prod = w.translate(t)
                if prod not in seen:
                    if len(order) >= cap:
                        truncated = True
                        break
                    seen.add(prod)
                    order.append(prod)
            if truncated:
                break
    matrix = np.frombuffer(b"".join(order), dtype=np.uint8).reshape(
        len(order), degree
    )
    if len(order) > level_start and not truncated:
        matrix, truncated = _dense_levels(gens, matrix, level_start, cap)
    return SemigroupClosure(
        degree=degree,
        generators=gens,
        matrix=matrix,
        truncated=truncated,
        cap=cap,
    )


def _dense_levels(
    gens: tuple[Transformation, ...], found: np.ndarray, level_start: int, cap: int
) -> tuple[np.ndarray, bool]:
    """The remaining BFS levels of closure, one numpy pass per level.

    ``found`` holds the elements so far; its rows from ``level_start`` on
    are the last level. The levels work on int32 codes only. Position i of
    a map has weight degree**(degree-1-i); the first ceil(degree/2)
    positions make the high part of its code and the rest the low part,
    so with base = degree**(degree//2) the code of w followed by a letter
    is t_hi[code // base, letter] + t_lo[code % base, letter]. Each table
    (at most 8**4 rows) holds the code of its part's digits mapped by each
    letter, so a level costs two gathers whatever the degree. The new
    element of each code is its first candidate in the level: sorting
    (code << 32 | index) keys puts it at the head of its code's run, about
    6x faster than the stable argsort of np.unique(return_index=True).
    The new codes are decoded once, at the end, into one preallocated
    uint8 matrix: the two parts' row tables hold digit i of a row in bits
    8i to 8i+7 of a uint64, so a row is the OR of two table entries read
    as little-endian bytes.
    """
    n = found.shape[1]
    high = n - n // 2
    base = n ** (n // 2)
    weights = n ** np.arange(n - 1, -1, -1, dtype=np.int32)
    # per position: the code of each point's image under each letter, and
    # each point as the position's byte of a uint64 row
    images = np.array([g.images for g in gens], dtype=np.int32).T
    code_at = [images * weights[i] for i in range(n)]
    byte_at = [np.arange(n, dtype=np.uint64) << np.uint64(8 * i) for i in range(n)]
    t_hi, t_lo = _digit_sums(code_at[:high]), _digit_sums(code_at[high:])
    row_hi, row_lo = _digit_sums(byte_at[:high]), _digit_sums(byte_at[high:])
    # An anonymous mapping, not np.zeros: its zero pages cost only where
    # touched, and all of them go back to the system when the closure ends.
    # Freed to the malloc heap instead, 16.7 MB at degree 8 raises glibc's
    # mmap threshold, and later closures keep a varying share of the heap
    # resident (an oracle benchmark run then peaked at 54 or 65 MB, by seed).
    visited = np.frombuffer(mmap.mmap(-1, n**n), dtype=bool)
    found_codes = found.astype(np.int32) @ weights
    visited[found_codes] = True
    blocks = []
    count = len(found)
    frontier = found_codes[level_start:]
    truncated = False
    while len(frontier) and not truncated:
        hi, lo = np.divmod(frontier, base)
        codes = np.take(t_hi, hi, axis=0)
        codes += np.take(t_lo, lo, axis=0)
        codes = codes.ravel()  # frontier-major, letter-minor
        fresh = np.flatnonzero(~np.take(visited, codes))
        keys = codes[fresh].astype(np.int64) << 32 | fresh
        keys.sort()
        runs = keys >> 32
        first = np.ones(len(keys), dtype=bool)
        first[1:] = runs[1:] != runs[:-1]
        new = np.zeros(len(codes), dtype=bool)
        new[keys[first] & 0xFFFFFFFF] = True
        fresh = np.flatnonzero(new)  # back in discovery order
        if len(fresh) > cap - count:
            fresh = fresh[: cap - count]
            truncated = True
        frontier = codes[fresh]
        visited[frontier] = True
        blocks.append(frontier)
        count += len(frontier)
    matrix = np.empty((count, n), dtype=np.uint8)
    matrix[: len(found)] = found
    start = len(found)
    for block in blocks:
        hi, lo = np.divmod(block, base)
        rows = np.take(row_hi, hi)
        rows |= np.take(row_lo, lo)
        rows = rows.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
        matrix[start : start + len(block)] = rows[:, :n]
        start += len(block)
    return matrix, truncated


def _digit_sums(columns: list[np.ndarray]) -> np.ndarray:
    """Row q holds the sum of columns[i][digit i of q], base len(columns[0]).

    Digit 0 is the most significant, as in a closure's map codes.
    """
    table = columns[0]
    for column in columns[1:]:
        table = (table[:, None] + column[None]).reshape(-1, *column.shape[1:])
    return table


def group_and_map_closure(
    group: PermutationGroup, f: Transformation, cap: int = DEFAULT_CLOSURE_CAP
) -> SemigroupClosure:
    return closure(list(group.generators) + [f], cap=cap)


def min_rank(c: SemigroupClosure) -> int:
    return c.min_rank


def _is_transversal(points, block_index) -> bool:
    """Whether the points lie in pairwise distinct blocks."""
    hit = set()
    for x in points:
        b = block_index[x]
        if b in hit:
            return False
        hit.add(b)
    return True


def find_rank_preserving_g(
    group: PermutationGroup, f: Transformation, cap: int = DEFAULT_CLOSURE_CAP
) -> Transformation | None:
    """Some g in the group with rank(f g f) = rank(f), or None.

    rank(f g f) = rank(f) holds exactly when g carries the image of f onto
    a transversal of the kernel of f, so the search walks the orbit of the
    image set and returns the element reaching the first transversal. The
    cap bounds the number of sets tested.
    """
    if f.degree != group.degree:
        raise ValueError("degree mismatch")
    block_index = f.kernel().block_index
    walk = group.orbit(frozenset(f.image()), act_on_set)
    for count, (s, word) in enumerate(walk, 1):
        if count > cap:
            raise GroupTooLargeError(f"image-set orbit exceeded cap {cap}")
        if _is_transversal(s, block_index):
            g = group.element(word)
            if compose(compose(f, g), f).rank() != len(s):
                raise InconsistencyError("transversal image did not preserve rank")
            return g
    return None


def idempotent_same_kernel(
    f: Transformation, g: Transformation
) -> tuple[Transformation, int]:
    """The idempotent power of f*g, which shares its kernel with f.

    Requires rank(f g f) = rank(f). Returns (e, k) with e = (f g)^k,
    e idempotent and kernel(e) = kernel(f); both postconditions are
    verified before returning.
    """
    if compose(compose(f, g), f).rank() != f.rank():
        raise ValueError("precondition failed: rank(f g f) != rank(f)")
    h = compose(f, g)
    seen: dict[Transformation, int] = {}
    power = h
    k = 1
    while power not in seen:
        seen[power] = k
        power = compose(power, h)
        k += 1
    m = seen[power]  # h^k == h^m with m < k
    exponent = k - m
    e = h
    for _ in range(exponent - 1):
        e = compose(e, h)
    if compose(e, e) != e:
        raise InconsistencyError("constructed element is not idempotent")
    if e.kernel() != f.kernel():
        raise InconsistencyError("idempotent kernel differs from kernel(f)")
    return e, exponent


def coblock_graph(group: PermutationGroup, blocks: Partition) -> Graph:
    """Edges: all group images of the pairs lying inside one block.

    An independent set of size len(blocks) in this graph is a common
    section for every group translate of the partition.
    """
    if blocks.degree != group.degree:
        raise ValueError("degree mismatch")
    n = group.degree
    ids, count = group._pair_orbit_ids
    wanted = [False] * count
    for block in blocks.blocks:
        for i, v in enumerate(block):
            for w in block[i + 1 :]:
                wanted[ids[v * n + w]] = True
    edges = [
        (v, w)
        for v in range(n)
        for w in range(v + 1, n)
        if wanted[ids[v * n + w]]
    ]
    return Graph.from_edges(n, edges)


def is_group_section(
    group: PermutationGroup,
    section,
    blocks: Partition,
    cap: int = DEFAULT_CLOSURE_CAP,
) -> bool:
    """True iff every group translate of the section hits each block once.

    Walks the orbit of the section as a set up to the first translate that
    misses a block; the cap bounds the number of translates tested rather
    than the group order, which is what the work depends on.
    """
    pts = frozenset(section)
    if len(pts) != len(blocks):
        raise ValueError("section size must equal the number of blocks")
    for count, (s, _) in enumerate(group.orbit(pts, act_on_set), 1):
        if count > cap:
            raise GroupTooLargeError(f"section orbit exceeded cap {cap}")
        if not _is_transversal(s, blocks.block_index):
            return False
    return True


@dataclass(frozen=True)
class SectionWitness:
    """A partition size admitting a section stable under the whole group."""

    size: int
    partition: Partition
    section: tuple[int, ...]


MAX_EXHAUSTIVE_DEGREE = 12
MAX_NONUNIFORM_DEGREE = 10


def regular_partition_witnesses(
    group: PermutationGroup, allow_nonuniform: bool = False
) -> list[SectionWitness]:
    """Nontrivial partition sizes with a section stable under the group.

    For each candidate partition the stable-section test is a clique search
    in the complement of coblock_graph: a section working for every group
    translate is exactly an independent set of full size there. The search
    is exhaustive over uniform partitions (sizes dividing the degree);
    allow_nonuniform extends it to all partitions at smaller degrees.
    """
    n = group.degree
    if not group.is_transitive():
        raise ValueError("section search requires a transitive group")
    limit = MAX_NONUNIFORM_DEGREE if allow_nonuniform else MAX_EXHAUSTIVE_DEGREE
    if n > limit:
        raise ValueError(
            f"degree {n} beyond the exhaustive regime (limit {limit})"
        )
    witnesses: list[SectionWitness] = []
    for s in range(2, n):
        if allow_nonuniform:
            types = kernel_types_of_rank(n, s)
        elif n % s == 0:
            types = [KernelType((n // s,) * s)]
        else:
            continue
        found = None
        candidates = (p for kt in types for p in partitions_of_type(kt))
        for partition in candidates:
            delta = coblock_graph(group, partition)
            section = delta.independent_set_of_size(s)
            if section is not None:
                section = tuple(sorted(section[:s]))
                if not is_group_section(group, section, partition):
                    raise InconsistencyError(
                        "independent set is not a stable section"
                    )
                found = SectionWitness(s, partition, section)
                break
        if found:
            witnesses.append(found)
    return witnesses


def regular_partition_sizes(
    group: PermutationGroup, allow_nonuniform: bool = False
) -> list[int]:
    return [w.size for w in regular_partition_witnesses(group, allow_nonuniform)]
