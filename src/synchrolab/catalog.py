"""Programmatic catalog of small transitive groups.

Every entry is built from first principles (no generator tables): symmetric
and alternating groups, cyclic and dihedral groups, wreath products of two
symmetric group factors in product action on a square grid, and the Mobius
group PGL(2, q) on the projective line over a field constructed by search.

Each entry declares the transitivity, primitivity and order it is supposed
to have; ``verify_entry`` recomputes all three with the group engine and
any mismatch is an error, so the catalog doubles as a self-check.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import factorial, isqrt

from .groups import PermutationGroup
from .transformations import Transformation


@dataclass(frozen=True)
class Expected:
    transitive: bool
    primitive: bool
    order: int | None = None


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    degree: int
    group: PermutationGroup
    expected: Expected
    description: str = ""


def _perm(n: int, mapping: dict[int, int]) -> Transformation:
    images = list(range(n))
    for a, b in mapping.items():
        images[a] = b
    return Transformation(tuple(images))


def _cycle(n: int, points: list[int]) -> Transformation:
    return _perm(n, {a: b for a, b in zip(points, points[1:] + points[:1])})


def symmetric_group(n: int) -> PermutationGroup:
    if n < 2:
        raise ValueError("degree must be at least 2")
    gens = [_cycle(n, [0, 1])]
    if n > 2:
        gens.append(_cycle(n, list(range(n))))
    return PermutationGroup(gens, n)


def alternating_group(n: int) -> PermutationGroup:
    if n < 3:
        raise ValueError("degree must be at least 3")
    three = _cycle(n, [0, 1, 2])
    if n == 3:
        return PermutationGroup([three], n)
    if n % 2 == 1:
        big = _cycle(n, list(range(n)))
    else:
        big = _cycle(n, list(range(1, n)))
    return PermutationGroup([three, big], n)


def cyclic_group(n: int) -> PermutationGroup:
    return PermutationGroup([_cycle(n, list(range(n)))], n)


def dihedral_group(n: int) -> PermutationGroup:
    rotation = _cycle(n, list(range(n)))
    reflection = Transformation(tuple((n - x) % n for x in range(n)))
    return PermutationGroup([rotation, reflection], n)


def grid_group(m: int) -> PermutationGroup:
    """Two symmetric-group factors in product action on the m x m grid.

    Point (i, j) is i*m + j. Generators: the factor acting on rows, plus
    the coordinate swap; conjugating row moves by the swap yields the
    column moves, so three generators suffice.
    """
    if m < 2:
        raise ValueError("grid side must be at least 2")
    n = m * m

    def rowperm(p: Transformation) -> Transformation:
        return Transformation(
            tuple(p.images[x // m] * m + x % m for x in range(n))
        )

    gens = [rowperm(g) for g in symmetric_group(m).generators]
    swap = Transformation(tuple((x % m) * m + x // m for x in range(n)))
    return PermutationGroup(gens + [swap], n)


class GaloisField:
    """Arithmetic in GF(p^k), built by searching for an irreducible polynomial.

    Elements are integers 0..q-1 encoding coefficient vectors base p, with
    0 and 1 the additive and multiplicative identities. All choices
    (irreducible polynomial, primitive element) are the lexicographically
    first found, so the construction is reproducible.
    """

    def __init__(self, q: int):
        p, k = _prime_power(q)
        self.q = q
        self.p = p
        self.k = k
        if k == 1:
            self._add = lambda a, b: (a + b) % p
            self._mul = lambda a, b: (a * b) % p
        else:
            poly = self._find_irreducible()
            self._poly = poly
            self._mul_table = self._build_mul_table(poly)
            self._add = self._add_vec
            self._mul = lambda a, b: self._mul_table[a][b]
        self.primitive = self._find_primitive()

    def add(self, a: int, b: int) -> int:
        return self._add(a, b)

    def mul(self, a: int, b: int) -> int:
        return self._mul(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        for b in range(1, self.q):
            if self.mul(a, b) == 1:
                return b
        raise AssertionError("field element without inverse")

    def _digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.k):
            out.append(a % self.p)
            a //= self.p
        return out

    def _undigits(self, coeffs) -> int:
        val = 0
        for c in reversed(list(coeffs)):
            val = val * self.p + c
        return val

    def _add_vec(self, a: int, b: int) -> int:
        da, db = self._digits(a), self._digits(b)
        return self._undigits((x + y) % self.p for x, y in zip(da, db))

    def _poly_mul_mod(self, a: list[int], b: list[int], poly: list[int]) -> list[int]:
        p = self.p
        prod = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] = (prod[i + j] + x * y) % p
        # reduce by the monic polynomial x^k + poly[k-1] x^{k-1} + ... + poly[0]
        for d in range(len(prod) - 1, self.k - 1, -1):
            c = prod[d]
            if c:
                prod[d] = 0
                for j in range(self.k):
                    prod[d - self.k + j] = (prod[d - self.k + j] - c * poly[j]) % p
        return prod[: self.k]

    def _find_irreducible(self) -> list[int]:
        # monic degree-k polynomials, low coefficients first
        p, k = self.p, self.k
        for code in range(p**k):
            poly = [(code // p**i) % p for i in range(k)]
            if self._is_irreducible(poly):
                return poly
        raise AssertionError("no irreducible polynomial found")

    def _is_irreducible(self, poly: list[int]) -> bool:
        # trial division by every monic polynomial of degree 1..k//2
        p, k = self.p, self.k
        full = poly + [1]
        for d in range(1, k // 2 + 1):
            for code in range(p**d):
                divisor = [(code // p**i) % p for i in range(d)] + [1]
                if _poly_remainder_is_zero(full, divisor, p):
                    return False
        return True

    def _build_mul_table(self, poly: list[int]) -> list[list[int]]:
        table = []
        for a in range(self.q):
            da = self._digits(a)
            row = []
            for b in range(self.q):
                db = self._digits(b)
                row.append(self._undigits(self._poly_mul_mod(da, db, poly)))
            table.append(row)
        return table

    def _find_primitive(self) -> int:
        target = self.q - 1
        for c in range(2, self.q):
            x, order = c, 1
            while x != 1:
                x = self.mul(x, c)
                order += 1
            if order == target:
                return c
        if self.q == 2:
            return 1
        raise AssertionError("no primitive element found")


def _poly_remainder_is_zero(num: list[int], den: list[int], p: int) -> bool:
    num = num[:]
    dd = len(den) - 1
    for d in range(len(num) - 1, dd - 1, -1):
        c = num[d]
        if c:
            for j in range(dd + 1):
                num[d - dd + j] = (num[d - dd + j] - c * den[j]) % p
    return all(c == 0 for c in num[:dd])


def _prime_power(q: int) -> tuple[int, int]:
    for p in range(2, q + 1):
        if q % p == 0:
            k = 0
            m = q
            while m % p == 0:
                m //= p
                k += 1
            if m != 1:
                raise ValueError(f"{q} is not a prime power")
            return p, k
    raise ValueError(f"{q} is not a prime power")


def projective_linear_group(q: int) -> PermutationGroup:
    """PGL(2, q) on the q+1 projective-line points.

    Points: field elements at their own index, the infinite point at index
    q. Generators: z -> z+1, z -> c*z for a primitive c, and z -> 1/z.
    """
    field = GaloisField(q)
    n = q + 1
    inf = q

    def mobius(fn) -> Transformation:
        return Transformation(tuple(fn(z) for z in range(n)))

    add_one = mobius(lambda z: inf if z == inf else field.add(z, 1))
    invert = mobius(
        lambda z: inf if z == 0 else (0 if z == inf else field.inv(z))
    )
    gens = [add_one, invert]
    if q > 2:
        scale = mobius(
            lambda z: inf if z == inf else field.mul(z, field.primitive)
        )
        gens.insert(1, scale)
    return PermutationGroup(gens, n)


def _is_prime_power(q: int) -> bool:
    try:
        _prime_power(q)
    except ValueError:
        return False
    return True


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, n))


def _entries_of_degree(n: int) -> list[CatalogEntry]:
    """The catalog entries of degree n (3 <= n <= 64), sorted by name."""
    entries = [
        CatalogEntry(
            f"S{n}",
            n,
            symmetric_group(n),
            Expected(transitive=True, primitive=True, order=factorial(n)),
            "symmetric group, natural action",
        )
    ]
    if n >= 4:
        entries.append(
            CatalogEntry(
                f"A{n}",
                n,
                alternating_group(n),
                Expected(transitive=True, primitive=True, order=factorial(n) // 2),
                "alternating group, natural action",
            )
        )
    if _is_prime(n):
        entries.append(
            CatalogEntry(
                f"C{n}",
                n,
                cyclic_group(n),
                Expected(transitive=True, primitive=True, order=n),
                "cyclic group of prime degree",
            )
        )
        if n >= 5:
            entries.append(
                CatalogEntry(
                    f"D{n}",
                    n,
                    dihedral_group(n),
                    Expected(transitive=True, primitive=True, order=2 * n),
                    "dihedral group of prime degree",
                )
            )
    elif n >= 4:
        entries.append(
            CatalogEntry(
                f"C{n}",
                n,
                cyclic_group(n),
                Expected(transitive=True, primitive=False, order=n),
                "cyclic group of composite degree (imprimitive)",
            )
        )
    m = isqrt(n)
    if m * m == n and 2 <= m <= 8:
        entries.append(
            CatalogEntry(
                f"grid-{m}",
                n,
                grid_group(m),
                # product action is primitive exactly when the factor is
                # primitive and not regular, which fails only at m = 2
                Expected(
                    transitive=True,
                    primitive=(m >= 3),
                    order=2 * factorial(m) ** 2,
                ),
                f"row/column symmetries of the {m}x{m} grid, product action",
            )
        )
    q = n - 1
    if _is_prime_power(q):
        entries.append(
            CatalogEntry(
                f"PGL(2,{q})",
                n,
                projective_linear_group(q),
                Expected(
                    transitive=True,
                    primitive=True,
                    order=(q + 1) * q * (q - 1),
                ),
                "Mobius transformations of the projective line",
            )
        )
    entries.sort(key=lambda e: e.name)
    return entries


def build_catalog(max_degree: int = 12) -> list[CatalogEntry]:
    """All catalog entries of degree between 3 and max_degree."""
    if max_degree > 64:
        raise ValueError("catalog degrees stop at 64")
    return [e for n in range(3, max_degree + 1) for e in _entries_of_degree(n)]


def verify_entry(entry: CatalogEntry) -> None:
    """Recompute the declared expectations; raise on any mismatch."""
    g = entry.group
    if g.degree != entry.degree:
        raise ValueError(f"{entry.name}: degree mismatch")
    if g.is_transitive() != entry.expected.transitive:
        raise ValueError(f"{entry.name}: transitivity mismatch")
    if g.is_primitive() != entry.expected.primitive:
        raise ValueError(f"{entry.name}: primitivity mismatch")
    if entry.expected.order is not None and g.order() != entry.expected.order:
        raise ValueError(
            f"{entry.name}: order {g.order()} != expected {entry.expected.order}"
        )


def find_entry(name: str) -> CatalogEntry:
    """The entry of that name, building the catalog only up to its degree."""
    for n in range(3, 65):
        for entry in _entries_of_degree(n):
            if entry.name == name:
                return entry
    raise KeyError(f"no catalog entry named {name!r}; try 'catalog list'")
