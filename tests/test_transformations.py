import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from synchrolab.transformations import (
    KernelType,
    Partition,
    Transformation,
    compose,
    constant,
    format_cycles,
    format_transformation,
    identity,
    idempotent_power,
    parse_cycles,
    parse_transformation,
)


def t(*images_1based):
    return Transformation(tuple(x - 1 for x in images_1based))


def _maps_of_degree(n):
    return st.tuples(*[st.integers(0, n - 1)] * n).map(Transformation)


transformations = st.integers(min_value=1, max_value=12).flatmap(_maps_of_degree)

same_degree_pairs = st.integers(min_value=1, max_value=12).flatmap(
    lambda n: st.tuples(_maps_of_degree(n), _maps_of_degree(n))
)


class TestCompose:
    def test_identity_neutral(self):
        g = t(3, 1, 2)
        assert compose(identity(3), g) == g

    def test_hand_checked(self):
        assert compose(t(1, 1, 2), t(2, 2, 3)) == t(2, 2, 2)

    def test_constant_absorbs(self):
        for f in [t(1, 3, 2, 2), t(4, 4, 4, 4), identity(4)]:
            assert compose(f, constant(4, 2)) == constant(4, 2)

    def test_right_action_order(self):
        # x (f g) = (x f) g: f sends 0 to 1, g sends 1 to 2
        f, g = t(2, 1, 3), t(1, 3, 2)
        assert compose(f, g).images[0] == 2

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            compose(identity(3), identity(4))


class TestRankKernel:
    def test_constant_rank_one(self):
        assert constant(9, 0).rank() == 1

    def test_permutation_full_rank(self):
        assert t(3, 1, 2).rank() == 3

    def test_grid_projection_rank(self):
        projection = Transformation(tuple((x // 3) * 4 for x in range(9)))
        assert projection.rank() == 3
        assert projection.kernel_type() == KernelType((3, 3, 3))
        assert projection.is_uniform()

    def test_kernel_identity(self):
        assert identity(4).kernel() == Partition.singletons(4)

    def test_kernel_hand_example(self):
        assert t(1, 1, 3, 3).kernel() == Partition.from_blocks(4, [[0, 1], [2, 3]])

    def test_kernel_constant(self):
        assert constant(5, 3).kernel() == Partition.from_blocks(5, [range(5)])

    def test_kernel_type_rank_n_minus_1(self):
        assert t(1, 1, 3, 4, 5).kernel_type() == KernelType((2, 1, 1, 1))

    def test_kernel_type_32(self):
        assert t(1, 1, 1, 4, 4, 6, 7).kernel_type() == KernelType((3, 2, 1, 1))

    def test_identity_kernel_type(self):
        assert identity(6).kernel_type() == KernelType((1,) * 6)

    def test_uniformity(self):
        assert t(2, 1, 3).is_uniform()
        assert not t(1, 1, 3).is_uniform()


class TestIdempotentPower:
    def test_idempotent_fixed(self):
        f = t(1, 1, 3)
        assert f.is_idempotent()
        assert idempotent_power(f) == f

    def test_cycle_reaches_identity(self):
        assert idempotent_power(t(2, 3, 1)) == identity(3)

    def test_hand_derived(self):
        # f = [2,1,1]: f^2 = [1,2,2] is idempotent, f itself is not
        f = t(2, 1, 1)
        assert not f.is_idempotent()
        e = idempotent_power(f)
        assert e == t(1, 2, 2)
        assert compose(e, e) == e

    def test_thousand_random_maps(self):
        rng = random.Random(20240817)
        for _ in range(1000):
            n = rng.randint(1, 12)
            f = Transformation(tuple(rng.randrange(n) for _ in range(n)))
            e = idempotent_power(f)
            assert compose(e, e) == e
            # e is a power of f: same kernel refinement chain
            assert e.kernel().degree == n


class TestInverse:
    def test_example(self):
        assert t(3, 1, 2).inverse() == t(2, 3, 1)

    def test_roundtrip(self):
        p = t(4, 2, 1, 3)
        assert compose(p, p.inverse()) == identity(4)

    def test_non_permutation_rejected(self):
        with pytest.raises(ValueError):
            t(1, 1, 3).inverse()

    def test_is_idempotent_examples(self):
        assert t(1, 1, 3).is_idempotent()
        assert not t(2, 1).is_idempotent()


class TestProperties:
    @given(same_degree_pairs)
    def test_rank_of_product_bounded(self, pair):
        f, g = pair
        assert compose(f, g).rank() <= min(f.rank(), g.rank())

    @given(same_degree_pairs)
    def test_kernel_refines_product_kernel(self, pair):
        f, g = pair
        assert f.kernel().refines(compose(f, g).kernel())

    @given(transformations)
    def test_kernel_type_sums_to_degree(self, f):
        assert sum(f.kernel_type().sizes) == f.degree

    @given(transformations)
    def test_kernel_block_count_is_rank(self, f):
        assert len(f.kernel()) == f.rank()


class TestTextFormats:
    def test_bracket_roundtrip(self):
        text = "[2,2,3,1]"
        f = parse_transformation(text)
        assert format_transformation(f) == text

    def test_one_based(self):
        assert parse_transformation("[1,1,3]") == t(1, 1, 3)

    def test_cycles_parse(self):
        p = parse_cycles("(1 2 3)(4 5)")
        assert p == t(2, 3, 1, 5, 4)

    def test_cycles_with_degree(self):
        p = parse_cycles("(1 2)", degree=4)
        assert p == t(2, 1, 3, 4)

    def test_cycles_roundtrip(self):
        p = t(2, 3, 1, 5, 4)
        assert parse_cycles(format_cycles(p)) == p

    def test_identity_cycles(self):
        assert format_cycles(identity(3)) == "()"

    def test_bad_input(self):
        with pytest.raises(ValueError):
            parse_transformation("[1,2")
        with pytest.raises(ValueError):
            parse_cycles("(1 2 x)")
        with pytest.raises(ValueError):
            parse_cycles("(1 2)(2 3) junk")

    @pytest.mark.parametrize("text", ["[1,,2]", "[1,2,]", "[,1,2]"])
    def test_empty_image_rejected(self, text):
        with pytest.raises(ValueError, match="empty entry"):
            parse_transformation(text)

    def test_separators(self):
        for text in ["[2,2,3,1]", "[2, 2, 3, 1]", "[2 2 3 1]", "[ 2 ,2,3 , 1 ]"]:
            assert parse_transformation(text) == t(2, 2, 3, 1)


class TestDegreeCap:
    def test_cap_enforced(self):
        from synchrolab.transformations import MAX_DEGREE

        Transformation(tuple(range(MAX_DEGREE)))  # at the cap: fine
        with pytest.raises(ValueError):
            Transformation(tuple(range(MAX_DEGREE + 1)))

    def test_graph_cap(self):
        from synchrolab.graphs import Graph
        from synchrolab.transformations import MAX_DEGREE

        Graph.null(MAX_DEGREE)
        with pytest.raises(ValueError):
            Graph.null(MAX_DEGREE + 1)


class TestPartition:
    def test_canonical_order(self):
        p = Partition.from_blocks(5, [[4, 3], [0, 2], [1]])
        assert p.blocks == ((0, 2), (1,), (3, 4))

    def test_invalid_cover(self):
        with pytest.raises(ValueError):
            Partition.from_blocks(4, [[0, 1]])
        with pytest.raises(ValueError):
            Partition.from_blocks(3, [[0, 1], [1, 2]])

    def test_refines(self):
        fine = Partition.singletons(4)
        coarse = Partition.from_blocks(4, [[0, 1], [2, 3]])
        assert fine.refines(coarse)
        assert not coarse.refines(fine)

    def test_apply_permutation(self):
        p = Partition.from_blocks(4, [[0, 1], [2, 3]])
        swapped = p.apply(t(3, 4, 1, 2))
        assert swapped == Partition.from_blocks(4, [[0, 1], [2, 3]])
        rotated = p.apply(t(2, 3, 4, 1))
        assert rotated == Partition.from_blocks(4, [[1, 2], [0, 3]])

    def test_str_one_based(self):
        p = Partition.from_blocks(3, [[0, 1], [2]])
        assert str(p) == "{{1,2}, {3}}"


class TestKernelType:
    def test_parse(self):
        assert KernelType.parse("3,2,1,1") == KernelType((3, 2, 1, 1))
        assert KernelType.parse("(2, 1, 1)") == KernelType((2, 1, 1))

    def test_sorted_enforced(self):
        with pytest.raises(ValueError):
            KernelType((1, 3))

    def test_rank_and_degree(self):
        kt = KernelType((3, 2, 1))
        assert kt.rank == 3
        assert kt.degree == 6
