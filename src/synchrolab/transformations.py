"""Total transformations of a finite point set, with rank/kernel calculus.

Conventions used throughout the package:

- Points are 0-based internally and 1-based in all text I/O.
- Maps act on the right: ``x`` under ``f`` then ``g`` is ``compose(f, g)``,
  so ``compose(f, g).images[x] == g.images[f.images[x]]``.
- Permutations are the bijective special case of a transformation.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

# Pair sets and adjacency rows are kept inside one machine word; raise with care.
MAX_DEGREE = 64


@dataclass(frozen=True)
class Transformation:
    """A total map on ``{0, ..., degree-1}`` stored as a tuple of images."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if n == 0:
            raise ValueError("degree must be positive")
        if n > MAX_DEGREE:
            raise ValueError(f"degree {n} exceeds MAX_DEGREE={MAX_DEGREE}")
        if any(not (0 <= x < n) for x in self.images):
            raise ValueError(f"images out of range for degree {n}: {self.images}")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: "Transformation") -> "Transformation":
        return compose(self, other)

    def rank(self) -> int:
        """Number of distinct images; ``degree`` exactly for permutations.

        >>> Transformation((0, 0, 0)).rank()
        1
        """
        return len(set(self.images))

    def image(self) -> tuple[int, ...]:
        """The image set, sorted ascending."""
        return tuple(sorted(set(self.images)))

    def is_permutation(self) -> bool:
        return self.rank() == self.degree

    def kernel(self) -> "Partition":
        """Partition of the points into preimage classes."""
        classes: dict[int, list[int]] = {}
        for x, y in enumerate(self.images):
            classes.setdefault(y, []).append(x)
        return Partition.from_blocks(self.degree, classes.values())

    def kernel_type(self) -> "KernelType":
        sizes = {}
        for y in self.images:
            sizes[y] = sizes.get(y, 0) + 1
        return KernelType(tuple(sorted(sizes.values(), reverse=True)))

    def is_uniform(self) -> bool:
        """True iff all kernel classes have the same size."""
        sizes = self.kernel_type().sizes
        return sizes[0] == sizes[-1]

    def is_idempotent(self) -> bool:
        return compose(self, self) == self

    def inverse(self) -> "Transformation":
        if not self.is_permutation():
            raise ValueError("only permutations are invertible")
        inv = [0] * self.degree
        for x, y in enumerate(self.images):
            inv[y] = x
        return Transformation(tuple(inv))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial disjoint cycles of a permutation, 0-based."""
        if not self.is_permutation():
            raise ValueError("cycle decomposition needs a permutation")
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start] or self.images[start] == start:
                continue
            cyc = [start]
            seen[start] = True
            x = self.images[start]
            while x != start:
                cyc.append(x)
                seen[x] = True
                x = self.images[x]
            out.append(tuple(cyc))
        return out

    def __str__(self) -> str:
        return format_transformation(self)

    def __repr__(self) -> str:
        return f"Transformation({list(self.images)!r})"


def identity(n: int) -> Transformation:
    return Transformation(tuple(range(n)))


def constant(n: int, value: int) -> Transformation:
    if not 0 <= value < n:
        raise ValueError("constant value out of range")
    return Transformation((value,) * n)


def compose(f: Transformation, g: Transformation) -> Transformation:
    """Apply ``f`` first, then ``g`` (right action).

    >>> compose(Transformation((0, 0, 1)), Transformation((1, 1, 2))).images
    (1, 1, 1)
    """
    if f.degree != g.degree:
        raise ValueError(f"degree mismatch: {f.degree} != {g.degree}")
    gi = g.images
    return Transformation(tuple(gi[x] for x in f.images))


def compose_all(maps: Iterable[Transformation]) -> Transformation:
    """Compose left to right; at least one map required."""
    result = None
    for m in maps:
        result = m if result is None else compose(result, m)
    if result is None:
        raise ValueError("empty composition")
    return result


def idempotent_power(f: Transformation) -> Transformation:
    """The unique idempotent among the powers of ``f``.

    Iterates f, f^2, ... until a repetition f^a = f^b (b < a) appears; the
    eventual cycle of powers contains exactly one idempotent.
    """
    seen: dict[Transformation, int] = {}
    g = f
    k = 1
    while g not in seen:
        seen[g] = k
        if compose(g, g) == g:
            return g
        g = compose(g, f)
        k += 1
    # Unreachable: the power cycle of a finite transformation always
    # contains an idempotent, found by the check above.
    raise AssertionError("no idempotent power found")


@dataclass(frozen=True)
class Partition:
    """A partition of ``{0, ..., degree-1}`` in canonical form.

    Canonical form: each block's elements sorted ascending, blocks sorted by
    minimum element. Required for deterministic orbit-representative work.
    """

    degree: int
    blocks: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_blocks(degree: int, blocks: Iterable[Iterable[int]]) -> "Partition":
        canon = sorted(tuple(sorted(b)) for b in blocks)
        p = Partition(degree, tuple(canon))
        p._validate()
        return p

    @staticmethod
    def singletons(degree: int) -> "Partition":
        return Partition(degree, tuple((x,) for x in range(degree)))

    def _validate(self):
        seen = [False] * self.degree
        for block in self.blocks:
            if not block:
                raise ValueError("empty block")
            for x in block:
                if not 0 <= x < self.degree:
                    raise ValueError(f"point {x} out of range")
                if seen[x]:
                    raise ValueError(f"point {x} in two blocks")
                seen[x] = True
        if not all(seen):
            raise ValueError("blocks do not cover all points")

    @cached_property
    def block_index(self) -> tuple[int, ...]:
        """block_index[x] = index of the block containing x."""
        idx = [0] * self.degree
        for i, block in enumerate(self.blocks):
            for x in block:
                idx[x] = i
        return tuple(idx)

    def block_containing(self, x: int) -> tuple[int, ...]:
        return self.blocks[self.block_index[x]]

    def sizes(self) -> tuple[int, ...]:
        return tuple(sorted((len(b) for b in self.blocks), reverse=True))

    def kernel_type(self) -> "KernelType":
        return KernelType(self.sizes())

    def is_uniform(self) -> bool:
        lens = {len(b) for b in self.blocks}
        return len(lens) == 1

    def refines(self, other: "Partition") -> bool:
        """True iff every block of self lies inside a block of other."""
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return all(
            len({other.block_index[x] for x in block}) == 1 for block in self.blocks
        )

    def apply(self, p: Transformation) -> "Partition":
        """The partition with blocks mapped through the permutation ``p``."""
        if not p.is_permutation():
            raise ValueError("partitions move under permutations only")
        return Partition.from_blocks(
            self.degree, ([p.images[x] for x in block] for block in self.blocks)
        )

    def __len__(self) -> int:
        return len(self.blocks)

    def __str__(self) -> str:
        inner = ", ".join(
            "{" + ",".join(str(x + 1) for x in b) + "}" for b in self.blocks
        )
        return "{" + inner + "}"


@dataclass(frozen=True)
class KernelType:
    """Multiset of kernel-class sizes, sorted descending."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        if not self.sizes or any(s < 1 for s in self.sizes):
            raise ValueError("sizes must be positive")
        if tuple(sorted(self.sizes, reverse=True)) != self.sizes:
            raise ValueError("sizes must be sorted descending")

    @property
    def degree(self) -> int:
        return sum(self.sizes)

    @property
    def rank(self) -> int:
        return len(self.sizes)

    def is_uniform(self) -> bool:
        return self.sizes[0] == self.sizes[-1]

    @staticmethod
    def parse(text: str) -> "KernelType":
        parts = [p for p in re.split(r"[,\s()]+", text) if p]
        sizes = tuple(sorted((int(p) for p in parts), reverse=True))
        return KernelType(sizes)

    def __str__(self) -> str:
        return "(" + ",".join(str(s) for s in self.sizes) + ")"


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_transformation(text: str, degree: int | None = None) -> Transformation:
    """Parse ``[i1,i2,...,in]`` with 1-based images, or cycle notation.

    Cycle notation like ``(1 2 3)(4 5)`` is accepted for permutations; the
    degree is taken from the largest point unless given explicitly.
    """
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            raise ValueError(f"unterminated image list: {text!r}")
        body = text[1:-1].strip()
        if not body:
            raise ValueError("empty image list")
        tokens = re.split(r"\s*,\s*|\s+", body)
        if "" in tokens:
            raise ValueError(f"empty entry in image list: {text!r}")
        images = tuple(int(tok) - 1 for tok in tokens)
        if degree is not None and len(images) != degree:
            raise ValueError(f"expected degree {degree}, got {len(images)}")
        if not all(0 <= x < len(images) for x in images):
            raise ValueError(f"images must lie in 1..{len(images)}")
        return Transformation(images)
    return parse_cycles(text, degree)


def parse_cycles(text: str, degree: int | None = None) -> Transformation:
    """Parse 1-based cycle notation such as ``(1 2 3)(4 5)`` or ``()``."""
    stripped = text.strip()
    if not stripped:
        raise ValueError("empty permutation text")
    consumed = _CYCLE_RE.sub("", stripped).strip()
    if consumed:
        raise ValueError(f"could not parse permutation {text!r}")
    cycles = []
    maxpoint = 0
    for body in _CYCLE_RE.findall(stripped):
        pts = [int(tok) - 1 for tok in re.split(r"[,\s]+", body.strip()) if tok]
        if len(set(pts)) != len(pts):
            raise ValueError(f"repeated point in cycle {body!r}")
        if pts:
            maxpoint = max(maxpoint, max(pts))
            cycles.append(pts)
    n = degree if degree is not None else maxpoint + 1
    if n < 1:
        raise ValueError("cannot infer degree of ()")
    images = list(range(n))
    for pts in cycles:
        if max(pts) >= n:
            raise ValueError(f"cycle point {max(pts)+1} beyond degree {n}")
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a] = b
    return Transformation(tuple(images))


def format_transformation(f: Transformation) -> str:
    """Bracketed 1-based image list, the package's canonical text form."""
    return "[" + ",".join(str(x + 1) for x in f.images) + "]"


def format_cycles(p: Transformation) -> str:
    """1-based cycle notation; the identity prints as ``()``."""
    cycles = p.cycles()
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(x + 1) for x in c) + ")" for c in cycles)
