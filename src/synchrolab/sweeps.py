"""Exhaustive map sweeps, reduced by group symmetry.

Why the reduction below is exact
--------------------------------

For permutations g1, g2 in the group G, the semigroup generated by G
together with g1*f*g2 equals the one generated by G together with f: every
word in the first generating set is a word in the second, and conversely
f = g1^{-1} * (g1 f g2) * g2^{-1} recovers f from the modified map. So the
synchronization verdict, the obstruction graph and the whole closure are
literally identical for f and g1*f*g2, not merely isomorphic.

Left multiplication by g1 replaces the kernel partition of f by its
g1-preimage and right multiplication by g2 moves the image assignment, so
sweeping one kernel partition per G-orbit combined with one image
assignment per orbit of the right G-action covers every map of a given
kernel type. Both reductions are used:

- kernel_orbit_representatives labels the orbits of a table. One table
  per kernel type (partition_table, memoised) holds every partition of the
  type as an int8 row of block labels in first-occurrence order, which is
  the canonical block order, with the rows in enumeration order, a sorted
  byte key per row (each point replaced by the least point of its block)
  and the rows in the tuple order of Partition.blocks. Per group, each
  generator moves every row at once and searchsorted turns the moved keys
  into an index map; groups.orbit_labels, the pair layer's orbit
  labeller, gives each row the least enumeration index of its orbit. The kept
  representative of an orbit is its tuple-least row, and Partition objects
  are built only for those. The representatives are memoised per group in
  _kernel_reps, a WeakKeyDictionary from group to {kernel type: tuple}, so
  a (group, type) pair is labelled once for as long as its group lives
  (catalog groups: the whole process) and the entry dies with the group;
- assignment_representatives normalises the first t coordinates of the
  image tuple to 0, 1, ..., t-1 (t = transitivity degree), then removes the
  residual pointwise-stabilizer symmetry when that stabilizer is small
  enough to enumerate. When it is too large the enumeration may repeat
  equivalent maps, which costs time but never correctness. The
  assignments of one rank come as one int8 array, a row per assignment in
  lexicographic order; the canonicity filter is the same test as on
  tuples, run on all stabilizer elements at once over chunks of rows.

Maps leave this module in one form, kernel representatives plus int8
assignment rows; the maps of a kernel are the gather rows[:, block_index].

Idempotent sweeps cannot use right multiplication (it destroys
idempotency), so they enumerate, per kernel representative, the finitely
many idempotent assignments (one image point inside each block).
"""
from __future__ import annotations

import math
import weakref
from collections import Counter
from functools import lru_cache
from itertools import chain, combinations, permutations, product, repeat
from typing import Iterator, NamedTuple

import numpy as np

from .groups import PermutationGroup, orbit_labels
from .transformations import KernelType, Partition, Transformation

STABILIZER_ENUMERATION_CAP = 20_000
# (stabilizer element, row, coordinate) cells the canonicity filter
# compares at once
CANONICITY_CHUNK_CELLS = 1 << 18
# largest partition table built: about 80 MB at degree 16. Every type up
# to degree 12 fits; degree 15 rank 4 reaches 6.3 million partitions
MAX_TABLE_PARTITIONS = 2_000_000
# largest assignment array built, in rows: the release gate and the
# benchmark build at most 3,628,800 (C11 and D11 at rank 10, 36 MB); C13
# at rank 12 would ask for 479,001,600 rows, 5.7 GB
MAX_ASSIGNMENT_ROWS = 4_000_000
# partition tables kept, one per kernel type; the benchmark's five-sweep
# pass at degree 9-10 uses 85
TABLE_CACHE_SIZE = 256
# group -> {kernel type: its kernel representatives}; an entry lives and
# dies with its group
_kernel_reps: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def partition_count(kt: KernelType) -> int:
    """Number of partitions of the type: n! / (prod s_i! * prod m_j!).

    s_i are the block sizes and m_j the multiplicities of the distinct
    sizes. Above MAX_TABLE_PARTITIONS a ValueError names the count, so a
    table too large to hold is refused before anything is allocated.
    """
    count = math.factorial(kt.degree)
    for size, times in Counter(kt.sizes).items():
        count //= math.factorial(size) ** times * math.factorial(times)
    if count > MAX_TABLE_PARTITIONS:
        raise ValueError(
            f"kernel type {kt} has {count:,} partitions, "
            f"more than the {MAX_TABLE_PARTITIONS:,} a partition table holds"
        )
    return count


def _label_rows(kt: KernelType) -> Iterator[list[int]]:
    """Block-label rows of every partition of the type, in enumeration order.

    Each row is the same list, refilled; copy it before the next one.

    Blocks are anchored at their least point and realised in lexicographic
    order: the size of the anchored block (larger first), then its other
    points. A block's label is its place in that order, so labels run in
    first-occurrence order.
    """
    row = [0] * kt.degree

    def rec(remaining: list[int], pool: tuple[int, ...], label: int):
        if not remaining:
            yield row
            return
        anchor, rest = remaining[0], remaining[1:]
        row[anchor] = label
        for size in sorted(set(pool), reverse=True):
            i = pool.index(size)
            smaller = pool[:i] + pool[i + 1 :]
            for extra in combinations(rest, size - 1):
                for x in extra:
                    row[x] = label
                left = [x for x in rest if x not in extra]
                yield from rec(left, smaller, label + 1)

    yield from rec(list(range(kt.degree)), kt.sizes, 0)


def _block_minima(labels: np.ndarray, rank: int) -> np.ndarray:
    """One byte key per label row: every point replaced by the least point of its block.

    Rows with equal keys are the same partition, whatever their labels, and
    byte keys compare as unsigned bytes, so they sort at any degree.
    """
    count, n = labels.shape
    least = np.empty((count, rank), dtype=np.uint8)
    rows = np.arange(count)
    for x in range(n - 1, -1, -1):
        least[rows, labels[:, x]] = x
    minima = np.take_along_axis(least, labels, axis=1)
    return np.ascontiguousarray(minima).view(np.dtype((np.void, n)))[:, 0]


def _tuple_order(labels: np.ndarray, rank: int) -> np.ndarray:
    """Row indices in the tuple order of the canonical block lists.

    Each row is flattened to its blocks in label order, points ascending,
    each block followed by a terminator that sorts below every point, so a
    block that is a prefix of another compares smaller, as in tuples.
    """
    count, n = labels.shape
    width = n + 1  # points 0..n-1, then the terminator n, per label
    cells = np.empty((count, n + rank), dtype=np.int16)
    cells[:, :n] = labels.astype(np.int16) * width + np.arange(n, dtype=np.int16)
    cells[:, n:] = np.arange(rank, dtype=np.int16) * width + n
    cells.sort(axis=1)
    # terminator n -> 0, point x -> x + 1
    flat = ((cells % width + 1) % width).astype(np.uint8)
    return np.argsort(flat.view(np.dtype((np.void, n + rank)))[:, 0]).astype(np.int32)


class PartitionTable(NamedTuple):
    """Every partition of one kernel type, as read-only arrays.

    rows: int8 block labels in first-occurrence order, one row per
    partition, in enumeration order; keys: the _block_minima keys, sorted;
    key_rows[i]: the row whose key is keys[i]; tuple_order: the row
    indices in the tuple order of Partition.blocks.
    """

    rows: np.ndarray
    keys: np.ndarray
    key_rows: np.ndarray
    tuple_order: np.ndarray

    def find(self, labels: np.ndarray, rank: int) -> np.ndarray:
        """The row index of each label row, whatever its labelling."""
        return self.key_rows[np.searchsorted(self.keys, _block_minima(labels, rank))]


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def partition_table(kt: KernelType) -> PartitionTable:
    """The table of a kernel type; built once, and never written afterwards."""
    n = kt.degree
    count = partition_count(kt)
    rows = np.fromiter(
        chain.from_iterable(_label_rows(kt)), dtype=np.int8, count=count * n
    ).reshape(count, n)
    keys = _block_minima(rows, kt.rank)
    key_rows = np.argsort(keys).astype(np.int32)
    table = PartitionTable(rows, keys[key_rows], key_rows, _tuple_order(rows, kt.rank))
    for array in table:
        array.setflags(write=False)
    return table


def _partition(degree: int, labels: list[int], rank: int) -> Partition:
    blocks: list[list[int]] = [[] for _ in range(rank)]
    for x, label in enumerate(labels):
        blocks[label].append(x)
    return Partition(degree, tuple(map(tuple, blocks)))


def partitions_of_type(kt: KernelType) -> Iterator[Partition]:
    """All partitions of range(degree) with the given block-size multiset.

    Deterministic: the rows of partition_table, in enumeration order.
    """
    for labels in partition_table(kt).rows:
        yield _partition(kt.degree, labels.tolist(), kt.rank)


def kernel_orbit_representatives(
    group: PermutationGroup, kt: KernelType
) -> list[Partition]:
    """One partition of the given type per group orbit.

    The representative is the smallest partition of its orbit under plain
    tuple comparison of the canonical block lists; orbits are listed in
    order of first appearance in partitions_of_type. Memoised per group
    and type; every call returns a new list.
    """
    if kt.degree != group.degree:
        raise ValueError("kernel type degree mismatch")
    partition_count(kt)  # a refusal never depends on what the memo holds
    memo = _kernel_reps.setdefault(group, {})
    if kt not in memo:
        table = partition_table(kt)
        moves = [table.find(table.rows[:, g.images], kt.rank) for g in group.generators]
        label = orbit_labels(moves, len(table.rows))
        # np.unique lists each orbit by its least index, with the position of
        # its first row in tuple order
        _, first = np.unique(label[table.tuple_order], return_index=True)
        kept = table.rows[table.tuple_order[first]]
        memo[kt] = tuple(_partition(kt.degree, labels, kt.rank) for labels in kept.tolist())
    return list(memo[kt])


def assignment_count(group: PermutationGroup, rank: int) -> int:
    """Rows assignment_representatives enumerates, perm(n - t, rank - t) for
    t = min(transitivity degree, rank). Above MAX_ASSIGNMENT_ROWS a
    ValueError names the count, before anything is allocated."""
    n = group.degree
    if not 1 <= rank <= n:
        raise ValueError("rank out of range")
    t = min(group.transitivity_degree(), rank)
    count = math.perm(n - t, rank - t)
    if count > MAX_ASSIGNMENT_ROWS:
        raise ValueError(
            f"rank {rank} on degree {n} at transitivity degree {t} has {count:,} "
            f"image assignments, more than the {MAX_ASSIGNMENT_ROWS:,} an assignment array holds"
        )
    return count


def check_array_sizes(pairs) -> None:
    """Refuse the first (group, kernel types) pair of pairs with a partition
    table or an assignment array too large to build: the ValueError of
    partition_count or assignment_count, raised before anything is built."""
    for group, types in pairs:
        for kt in types:
            partition_count(kt)
            assignment_count(group, kt.rank)


def assignment_representatives(group: PermutationGroup, rank: int) -> np.ndarray:
    """Injective image tuples up to the right action of the group.

    One int8 row per assignment, in lexicographic order. The first
    min(t, rank) coordinates are pinned to 0, 1, ... where t is the
    transitivity degree; the remainder enumerates all injections, filtered
    to canonical form under the residual pointwise stabilizer when that
    stabilizer is enumerable. With no free coordinate left the single row
    is canonical, and the stabilizer is not enumerated.
    """
    n = group.degree
    count = assignment_count(group, rank)
    t = min(group.transitivity_degree(), rank)
    free = rank - t
    rows = np.fromiter(
        chain.from_iterable(
            chain.from_iterable(zip(repeat(range(t)), permutations(range(t, n), free)))
        ),
        dtype=np.int8,
        count=count * rank,
    ).reshape(count, rank)
    if free and t > 0 and 1 < group.stabilizer_order(t) <= STABILIZER_ENUMERATION_CAP:
        # residual symmetry small enough to remove exactly; otherwise the
        # enumeration may repeat equivalent maps, which is sound
        stab = np.array(
            [
                g
                for g in group.stabilizer_elements(t, STABILIZER_ENUMERATION_CAP)
                if any(g[x] != x for x in range(n))
            ],
            dtype=np.int8,
        )
        rows = rows[_canonical(rows, stab)]
    return rows


def _canonical(rows: np.ndarray, stab: np.ndarray) -> np.ndarray:
    """keep[i]: no element of stab moves rows[i] to a lexicographically smaller row."""
    count, rank = rows.shape
    keep = np.empty(count, dtype=bool)
    step = max(1, CANONICITY_CHUNK_CELLS // (len(stab) * rank))
    for lo in range(0, count, step):
        chunk = rows[lo : lo + step]
        moved = stab[:, chunk]
        # the first coordinate where a moved row differs decides; a row
        # moved onto itself differs nowhere, argmax gives 0 and less is false
        first = (moved != chunk).argmax(axis=2)[..., None]
        smaller = np.take_along_axis(moved < chunk, first, axis=2)
        keep[lo : lo + step] = ~smaller.any(axis=(0, 2))
    return keep


def representatives_of_type(
    group: PermutationGroup, kt: KernelType
) -> tuple[list[Partition], np.ndarray]:
    """Kernel representatives and assignment rows; each pair is one instance,
    the map rows[i, kernel.block_index] sending block j to rows[i, j]."""
    return kernel_orbit_representatives(group, kt), assignment_representatives(group, kt.rank)


def instances_of_type(group: PermutationGroup, kt: KernelType) -> Iterator[Transformation]:
    """Representative maps of one kernel type, up to two-sided reduction."""
    kernels, rows = representatives_of_type(group, kt)
    for kernel in kernels:
        for images in rows[:, kernel.block_index].tolist():
            yield Transformation(tuple(images))


def idempotent_instances_of_type(
    group: PermutationGroup, kt: KernelType
) -> Iterator[tuple[Partition, np.ndarray]]:
    """Representative idempotent maps: each block maps inside itself.

    One (kernel, int8 assignment rows) pair per kernel representative.
    Kernel representatives still apply (conjugation preserves idempotency);
    the assignment symmetry does not, so all block-internal image choices
    are kept.
    """
    for kernel in kernel_orbit_representatives(group, kt):
        yield kernel, np.array(list(product(*kernel.blocks)), dtype=np.int8)


def kernel_types_of_rank(n: int, rank: int) -> list[KernelType]:
    """All kernel types of maps of the given rank on n points."""
    if not 1 <= rank <= n:
        raise ValueError(f"rank {rank} is outside 1..{n}")

    def parts(total: int, count: int, maximum: int):
        if count == 1:
            if 1 <= total <= maximum:
                yield (total,)
            return
        for first in range(min(total - count + 1, maximum), 0, -1):
            for tail in parts(total - first, count - 1, first):
                yield (first, *tail)

    return [KernelType(p) for p in parts(n, rank, n)]
