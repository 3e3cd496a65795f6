import math

import pytest

from synchrolab import catalog
from synchrolab.catalog import (
    GaloisField,
    build_catalog,
    find_entry,
    grid_group,
    projective_linear_group,
    verify_entry,
)
from synchrolab.experiments import verify_theorem
from synchrolab.reports import report_emit


class TestGaloisField:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11])
    def test_field_axioms(self, q):
        field = GaloisField(q)
        for a in range(q):
            assert field.add(a, 0) == a
            assert field.mul(a, 1) == a
            if a:
                assert field.mul(a, field.inv(a)) == 1
        # commutativity and distributivity spot checks
        for a in range(q):
            for b in range(q):
                assert field.add(a, b) == field.add(b, a)
                assert field.mul(a, b) == field.mul(b, a)
                for c in range(min(q, 4)):
                    assert field.mul(a, field.add(b, c)) == field.add(
                        field.mul(a, b), field.mul(a, c)
                    )

    def test_primitive_element_generates(self):
        field = GaloisField(9)
        seen = set()
        x = 1
        for _ in range(8):
            x = field.mul(x, field.primitive)
            seen.add(x)
        assert seen == set(range(1, 9))

    def test_not_prime_power(self):
        with pytest.raises(ValueError):
            GaloisField(6)


class TestProjectiveGroups:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_order_formula(self, q):
        g = projective_linear_group(q)
        assert g.degree == q + 1
        assert g.order() == (q + 1) * q * (q - 1)

    def test_sharply_3_transitive(self):
        for q in (4, 5, 7, 9):
            g = projective_linear_group(q)
            assert g.transitivity_degree() == 3

    def test_pgl25_catalog_claims(self):
        g = projective_linear_group(5)
        assert g.degree == 6
        assert g.order() == 120
        assert g.is_2_transitive()


class TestCatalog:
    def test_every_entry_verifies(self):
        for entry in build_catalog(12):
            verify_entry(entry)

    def test_expected_names_present(self):
        names = {e.name for e in build_catalog(12)}
        for wanted in ["S5", "A5", "C5", "D5", "C6", "grid-3", "PGL(2,5)", "S12"]:
            assert wanted in names

    def test_grid3_entry(self):
        entry = find_entry("grid-3")
        assert entry.degree == 9
        assert entry.expected.order == 72
        assert entry.expected.primitive

    def test_c6_imprimitive_blocks(self):
        entry = find_entry("C6")
        sizes = sorted(s.block_size for s in entry.group.block_systems())
        assert sizes == [2, 3]

    def test_max_degree_respected(self):
        assert all(e.degree <= 7 for e in build_catalog(7))

    def test_find_entry(self):
        assert find_entry("S5").degree == 5
        with pytest.raises(KeyError):
            find_entry("nonsense")

    def test_deterministic(self):
        """The shared entries match a fresh construction, degree by degree."""

        def shape(entries):
            return [(e.name, [g.images for g in e.group.generators]) for e in entries]

        for n in range(3, 11):
            fresh = catalog._entries_of_degree.__wrapped__(n)
            assert shape(e for e in build_catalog(10) if e.degree == n) == shape(fresh)

    def test_grid_orders(self):
        for m in (2, 3):
            assert grid_group(m).order() == 2 * math.factorial(m) ** 2

    def test_order_equals_chain_product_catalogwide(self):
        for entry in build_catalog(10):
            sizes = entry.group._chain.orbit_sizes()
            prod = 1
            for s in sizes:
                prod *= s
            assert prod == entry.group.order()

    def test_order_equals_element_count_when_enumerable(self):
        for entry in build_catalog(10):
            if entry.group.order() <= 5000:
                assert len(entry.group.elements(cap=5000)) == entry.group.order()

    def test_pair_orbits_cover_catalogwide(self):
        for entry in build_catalog(10):
            n = entry.degree
            cells = entry.group.pair_orbits()
            pairs = [p for c in cells for p in c]
            assert len(pairs) == len(set(pairs)) == n * (n - 1) // 2


class TestSharedEntries:
    """Entries are built once per process and shared by every caller."""

    def test_build_catalog_shares_entries(self):
        first, second = build_catalog(10), build_catalog(10)
        assert first is not second
        assert all(a is b for a, b in zip(first, second, strict=True))

    def test_find_entry_is_the_catalog_entry(self):
        (grid,) = [e for e in build_catalog(9) if e.name == "grid-3"]
        assert find_entry("grid-3") is grid

    @pytest.mark.parametrize(
        "other,theorem_id",
        [("small-ranks", "imprimitivity-char"), ("imprimitivity-char", "small-ranks")],
    )
    def test_report_bytes_cold_and_warm(self, other, theorem_id):
        """Group caches filled by another sweep, or by the same one, leave a
        report's bytes as they are on fresh groups."""

        def report_bytes(sweep_id):
            return report_emit(verify_theorem(sweep_id, max_degree=7), "jsonl")

        catalog._entries_of_degree.cache_clear()
        cold = report_bytes(theorem_id)
        catalog._entries_of_degree.cache_clear()
        report_bytes(other)
        assert report_bytes(theorem_id) == cold
        assert report_bytes(theorem_id) == cold
