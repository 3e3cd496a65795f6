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

- kernel_orbit_representatives enumerates partitions of the wanted type
  and keeps the smallest member of each G-orbit. Orbits are walked with
  PermutationGroup.orbit on raw canonical block tuples, so no Partition is
  built per orbit step;
- assignment_representatives normalises the first t coordinates of the
  image tuple to 0, 1, ..., t-1 (t = transitivity degree), then removes the
  residual pointwise-stabilizer symmetry when that stabilizer is small
  enough to enumerate. When it is too large the enumeration may repeat
  equivalent maps, which costs time but never correctness. The
  assignments of one rank come as one int8 array, a row per assignment in
  lexicographic order; the canonicity filter is the same test as on
  tuples, run on all stabilizer elements at once over chunks of rows.

Idempotent sweeps cannot use right multiplication (it destroys
idempotency), so they enumerate, per kernel representative, the finitely
many idempotent assignments (one image point inside each block).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, permutations, product, repeat
from typing import Iterator

import numpy as np

from .groups import PermutationGroup, act_on_blocks
from .transformations import KernelType, Partition, Transformation

STABILIZER_ENUMERATION_CAP = 20_000
# (stabilizer element, row, coordinate) cells the canonicity filter
# compares at once
CANONICITY_CHUNK_CELLS = 1 << 18


def partitions_of_type(kt: KernelType) -> Iterator[Partition]:
    """All partitions of range(degree) with the given block-size multiset.

    Deterministic: blocks are anchored at their minimum, realised in
    lexicographic order.
    """
    n = kt.degree
    sizes = kt.sizes

    def rec(remaining: frozenset[int], size_pool: tuple[int, ...]):
        if not remaining:
            yield []
            return
        anchor = min(remaining)
        rest = sorted(remaining - {anchor})
        tried = set()
        for i, s in enumerate(size_pool):
            if s in tried:
                continue
            tried.add(s)
            pool = size_pool[:i] + size_pool[i + 1 :]
            for extra in combinations(rest, s - 1):
                block = (anchor, *extra)
                for tail in rec(remaining - set(block), pool):
                    yield [block] + tail

    for blocks in rec(frozenset(range(n)), sizes):
        yield Partition(n, tuple(sorted(blocks)))


def kernel_orbit_representatives(
    group: PermutationGroup, kt: KernelType
) -> list[Partition]:
    """One partition of the given type per group orbit.

    The representative is the smallest partition of its orbit under plain
    tuple comparison of the canonical block lists; orbits are listed in
    order of first appearance.
    """
    if kt.degree != group.degree:
        raise ValueError("kernel type degree mismatch")
    seen: set[tuple[tuple[int, ...], ...]] = set()
    reps: list[Partition] = []
    for p in partitions_of_type(kt):
        if p.blocks in seen:
            continue
        orbit = [blocks for blocks, _ in group.orbit(p.blocks, act_on_blocks)]
        seen.update(orbit)
        reps.append(Partition(kt.degree, min(orbit)))
    return reps


def canonical_kernel(group: PermutationGroup, blocks: Partition):
    """Minimal partition of the orbit plus a permutation u with blocks*u = rep."""
    best, word = min(group.orbit(blocks.blocks, act_on_blocks))
    return Partition(blocks.degree, best), group.element(word)


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
    if not 1 <= rank <= n:
        raise ValueError("rank out of range")
    t = min(group.transitivity_degree(), rank)
    free = rank - t
    count = math.perm(n - t, free)
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
    """Kernel representatives and assignment rows; each pair is one instance."""
    return kernel_orbit_representatives(group, kt), assignment_representatives(group, kt.rank)


def map_from_assignment(blocks: Partition, assignment: tuple[int, ...]) -> tuple[int, ...]:
    """Raw image tuple of the map sending block i to assignment[i]."""
    idx = blocks.block_index
    return tuple(assignment[idx[x]] for x in range(blocks.degree))


@dataclass(frozen=True)
class SweepInstance:
    """One representative map in a sweep, with its provenance."""

    kernel: Partition
    assignment: tuple[int, ...]
    images: tuple[int, ...]

    def transformation(self) -> Transformation:
        return Transformation(self.images)


def instances_of_type(
    group: PermutationGroup, kt: KernelType
) -> Iterator[SweepInstance]:
    """Representative maps of one kernel type, up to two-sided reduction."""
    reps, rows = representatives_of_type(group, kt)
    assignments = [tuple(row) for row in rows.tolist()]
    for kernel in reps:
        for assignment in assignments:
            yield SweepInstance(
                kernel, assignment, map_from_assignment(kernel, assignment)
            )


def count_instances_of_type(group: PermutationGroup, kt: KernelType) -> int:
    reps, rows = representatives_of_type(group, kt)
    return len(reps) * len(rows)


def idempotent_instances_of_type(
    group: PermutationGroup, kt: KernelType
) -> Iterator[SweepInstance]:
    """Representative idempotent maps: each block maps inside itself.

    Kernel representatives still apply (conjugation preserves idempotency);
    the assignment symmetry does not, so all block-internal image choices
    are kept.
    """
    for kernel in kernel_orbit_representatives(group, kt):
        for assignment in product(*kernel.blocks):
            yield SweepInstance(
                kernel, assignment, map_from_assignment(kernel, assignment)
            )


def canonical_instance(
    group: PermutationGroup, f: Transformation
) -> tuple[Partition, tuple[int, ...]]:
    """A (kernel, assignment) key; equal keys mean the same generated semigroup.

    Two maps with equal keys are two-sided translates of one another, so
    their generated semigroups are equal as sets and closure results can be
    cached per key. The key is the kernel representative from
    kernel_orbit_representatives plus a right-translate normalised
    assignment. It is not canonical: the assignment is read in the block
    order of the representative, and the setwise stabilizer of the
    representative, which can permute those blocks, is not factored out.
    So two translates of one map can get different keys; a cache keyed by
    it then repeats a closure, but never shares one wrongly.
    """
    kernel, u = canonical_kernel(group, f.kernel())
    # ker(u^-1 * f) = ker(f) * u = kernel
    shifted = u.inverse() * f
    assignment = tuple(shifted.images[block[0]] for block in kernel.blocks)
    return kernel, _normalise_assignment(group, assignment)


def _normalise_assignment(
    group: PermutationGroup, assignment: tuple[int, ...]
) -> tuple[int, ...]:
    """Right-translate the tuple so a maximal prefix reads 0, 1, 2, ...

    The residual pointwise-stabilizer symmetry is removed by minimising
    over its elements when the stabilizer is small enough to enumerate.
    """
    n = group.degree
    rank = len(assignment)
    t = min(group.transitivity_degree(), rank)
    current = list(assignment)
    chain = group._chain
    for i in range(t):
        # move coordinate i to the point i using a transversal element
        lv = chain.levels[i]
        u = lv.transversal[current[i]]
        inv = [0] * n
        for x, y in enumerate(u):
            inv[y] = x
        current = [inv[x] for x in current]
        if current[i] != i:
            raise AssertionError("transversal normalisation failed")
    tup = tuple(current)
    if t > 0 and 1 < group.stabilizer_order(t) <= STABILIZER_ENUMERATION_CAP:
        best = tup
        for g in group.stabilizer_elements(t, STABILIZER_ENUMERATION_CAP):
            moved = tuple(g[x] for x in tup)
            if moved < best:
                best = moved
        tup = best
    return tup


def kernel_types_of_rank(n: int, rank: int) -> list[KernelType]:
    """All kernel types of maps of the given rank on n points."""

    def parts(total: int, count: int, maximum: int):
        if count == 1:
            if 1 <= total <= maximum:
                yield (total,)
            return
        for first in range(min(total - count + 1, maximum), 0, -1):
            for tail in parts(total - first, count - 1, first):
                yield (first, *tail)

    return [KernelType(p) for p in parts(n, rank, n)]
