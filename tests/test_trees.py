from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evenzeta.polynomials import ONE
from evenzeta.rationals import double_factorial_product
from evenzeta.recursion import IndexSet, numerator_polynomial, zeta_numerator
from evenzeta.sequences import ODD_NUMBERS, SequenceSpec
from evenzeta.trees import (
    PlaneTree,
    _low_weight_table,
    catalan,
    enumerate_trees,
    generalized_transform,
    polynomial_via_trees,
    tree_data,
)
from evenzeta.zeta import zeta_even_rational


def catalan_oracle(n):
    # independent recurrence oracle: C_0 = 1, C_{n+1} = sum C_i C_{n-i}
    cs = [1]
    for m in range(n):
        cs.append(sum(cs[i] * cs[m - i] for i in range(m + 1)))
    return cs[n]


def test_catalan_against_recurrence():
    for n in range(0, 15):
        assert catalan(n) == catalan_oracle(n)


@pytest.mark.parametrize("k,count", [(1, 1), (2, 1), (4, 5), (10, catalan_oracle(9))])
def test_enumeration_count(k, count):
    assert sum(1 for _ in enumerate_trees(k)) == count


def test_enumeration_order_and_bounds():
    seqs = [t.levels for t in enumerate_trees(4)]
    assert seqs == [(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2), (1, 2, 3)]
    assert seqs == sorted(seqs)
    with pytest.raises(ValueError, match=str(catalan(16))):
        list(enumerate_trees(17))


def test_plane_tree_validation():
    with pytest.raises(ValueError):
        PlaneTree((2,))
    with pytest.raises(ValueError):
        PlaneTree((1, 3))
    with pytest.raises(ValueError):
        PlaneTree((1, 0))


def test_tree_data_base_cases():
    for k in (1, 2):
        (tree,) = list(enumerate_trees(k))
        data = tree_data(tree)
        assert data.low == IndexSet() and data.high == IndexSet()
        assert data.weight == 1


# low/high as odd values, plus the weight, for every tree on 3 and 4 vertices
FROZEN_DATA = {
    (1, 1): ((3,), (), 1),
    (1, 2): ((), (5,), 5),
    (1, 1, 1): ((3, 5), (5,), 5),
    (1, 1, 2): ((5,), (5, 7), 35),
    (1, 2, 1): ((3, 5), (), 5),
    (1, 2, 2): ((3,), (7,), 35),
    (1, 2, 3): ((), (5, 7), 175),
}


def test_tree_data_frozen_values():
    for levels, (low, high, wt) in FROZEN_DATA.items():
        data = tree_data(PlaneTree(levels))
        assert data.low.values() == low
        assert data.high.values() == high
        assert data.weight == wt


@pytest.mark.parametrize("k,expected", [(3, 10), (5, 992250)])
def test_weighted_low_products_sum_to_numerator(k, expected):
    total = 0
    for tree in enumerate_trees(k):
        data = tree_data(tree)
        total += data.weight * data.low.shifted().product()
    assert total == expected


@pytest.mark.parametrize("k", range(2, 10))
def test_tree_sums_match_recursion(k):
    assert polynomial_via_trees(k) == numerator_polynomial(k)
    assert generalized_transform(k) * double_factorial_product(k) == zeta_numerator(k)


def test_tree_sum_bounds():
    with pytest.raises(ValueError, match="15"):
        polynomial_via_trees(16)
    with pytest.raises(ValueError, match="15"):
        generalized_transform(16)
    with pytest.raises(ValueError):
        polynomial_via_trees(1)
    for k in (0, -1):
        with pytest.raises(ValueError, match=f"k={k} outside 2..15"):
            polynomial_via_trees(k)
        with pytest.raises(ValueError, match=f"k={k} outside 1..15"):
            generalized_transform(k)


def test_polynomial_via_trees_base_case():
    assert polynomial_via_trees(2) == ONE


def test_polynomial_via_trees_keeps_integer_coefficients():
    for k in range(2, 13):
        assert all(type(c) is int for c in polynomial_via_trees(k).coeffs)


@pytest.mark.parametrize("k", range(3, 10))
def test_leading_coefficient_comes_from_level_one_trees(k):
    restricted = sum(
        tree_data(t).weight for t in enumerate_trees(k) if t.levels[-1] == 1
    )
    assert restricted * 2 ** (k - 2) == numerator_polynomial(k).coeffs[-1]


def replayed_table(k, seq=ODD_NUMBERS):
    table = {}
    for tree in enumerate_trees(k):
        data = tree_data(tree, seq)
        mask = data.low.mask
        table[mask] = table.get(mask, 0) + data.weight
    return table


@pytest.mark.parametrize("k", range(1, 9))
def test_kernel_table_matches_per_tree_replay(k):
    # dual route: the state fold vs the reference per-tree replay
    assert replayed_table(k) == _low_weight_table(k, ODD_NUMBERS.values_upto(k))


nonzero_fractions = st.fractions(max_denominator=50).filter(lambda v: v != 0)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 7), values=st.lists(nonzero_fractions, min_size=7, max_size=7))
def test_fold_matches_per_tree_replay_on_rational_sequences(k, values):
    seq = SequenceSpec(values)
    assert _low_weight_table(k, seq.values_upto(k)) == replayed_table(k, seq)


def test_generalized_transform_default_values():
    assert generalized_transform(1) == Fraction(1, 3)
    assert generalized_transform(3) == Fraction(2, 945)


@pytest.mark.parametrize("k", range(1, 11))
def test_generalized_transform_equals_twice_zeta_coefficient(k):
    assert generalized_transform(k) == 2 * zeta_even_rational(k).coeff


def test_generalized_transform_all_ones_regression():
    ones = SequenceSpec(lambda n: 1)
    assert generalized_transform(2, ones) == 1
    # with unit values the numerator counts the trees themselves
    assert generalized_transform(3, ones) == 2
    assert generalized_transform(5, ones) == catalan_oracle(4)


def tree_term(tree, seq):
    data = tree_data(tree, seq)
    return Fraction(data.weight) * data.low.shifted().product(seq)


def replayed_transform(k, seq):
    # the route's reference: per-tree replay over the whole family, in Fractions
    total = sum((tree_term(t, seq) for t in enumerate_trees(k)), Fraction(0))
    denominator = Fraction(1)
    for j in range(1, k + 1):
        denominator *= seq.product(range(1, j + 1))
    return total / denominator


def test_generalized_transform_rational_sequence_routes_agree():
    seq = SequenceSpec([Fraction(1, 2), Fraction(3, 4), Fraction(-2, 5), 7, 9])
    assert generalized_transform(4, seq) == replayed_transform(4, seq)


nonzero_values = st.one_of(
    st.integers(-1000, 1000), st.fractions(max_denominator=1000)
).filter(lambda v: v != 0)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 7), values=st.lists(nonzero_values, min_size=7, max_size=7))
def test_generalized_transform_matches_per_tree_replay(k, values):
    seq = SequenceSpec(values)
    value = generalized_transform(k, seq)
    assert type(value) is Fraction
    assert value == replayed_transform(k, seq)


@pytest.mark.parametrize("k", range(1, 10))
def test_tree_terms_have_degree_of_the_scaling(k):
    # each term is a product of (k-1)(k-2)/2 values, so with every value 2
    # it is that power of 2; the denominator has k(k+1)/2 values, whence
    # the d^-(2k-1) scaling of the transform
    twos = SequenceSpec([2] * k)
    for tree in enumerate_trees(k):
        assert tree_term(tree, twos) == 2 ** ((k - 1) * (k - 2) // 2)


SCALING_BASE = [Fraction(1, 2), 3, Fraction(-2, 5), 7, Fraction(9, 11), -4,
                Fraction(13, 6), 1, Fraction(-8, 3), 5, Fraction(17, 10), -2]


@pytest.mark.parametrize("c", [-3, Fraction(5, 7)])
def test_transform_scales_by_inverse_power(c):
    seq = SequenceSpec(SCALING_BASE)
    scaled = SequenceSpec([c * v for v in SCALING_BASE])
    for k in range(1, 13):
        factor = Fraction(c) ** -(2 * k - 1)
        assert generalized_transform(k, scaled) == factor * generalized_transform(k, seq)
        if k <= 7:
            assert replayed_transform(k, scaled) == factor * replayed_transform(k, seq)


def test_sequence_spec_errors():
    with pytest.raises(ValueError):
        SequenceSpec([1, 0, 3]).value(2)
    short = SequenceSpec([3, 5])
    with pytest.raises(ValueError):
        generalized_transform(3, short)
    with pytest.raises(ValueError):
        ODD_NUMBERS.value(0)


@pytest.mark.parametrize(
    "seq,position",
    [
        (SequenceSpec(lambda n: n + 0.5), 1),
        (SequenceSpec([True, 2, 3]), 1),
        (SequenceSpec([3, 5, 7.0]), 3),
    ],
)
def test_sequence_spec_rejects_inexact_values(seq, position):
    with pytest.raises(ValueError, match=f"position {position}"):
        generalized_transform(3, seq)


def test_sequence_spec_from_file(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("3\n5\n7\n9\n", encoding="utf-8")
    seq = SequenceSpec.from_file(str(path))
    assert seq.values_upto(4) == [3, 5, 7, 9]
    assert generalized_transform(3, seq) == generalized_transform(3)

    bad = tmp_path / "bad.txt"
    bad.write_text("3\nfive\n", encoding="utf-8")
    with pytest.raises(ValueError, match="bad.txt:2"):
        SequenceSpec.from_file(str(bad))

    zero = tmp_path / "zero.txt"
    zero.write_text("3\n0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="zero.txt:2"):
        SequenceSpec.from_file(str(zero))
