import copy
import math
import pickle
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evenzeta import trees, verify
from evenzeta.polynomials import ONE, Polynomial
from evenzeta.rationals import double_factorial_product
from evenzeta.recursion import numerator_polynomial, zeta_numerator
from evenzeta.trees import (
    ENUMERATION_MAX,
    ODD_NUMBERS,
    TRANSFORM_MAX,
    TREE_SUM_MAX,
    PlaneTree,
    SequenceSpec,
    TreeData,
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
    with pytest.raises(ValueError, match=r"^k=17 outside 1\.\.16$"):
        list(enumerate_trees(17))


def test_plane_tree_validation():
    with pytest.raises(ValueError):
        PlaneTree((2,))
    with pytest.raises(ValueError):
        PlaneTree((1, 3))
    with pytest.raises(ValueError):
        PlaneTree((1, 0))
    # a bool or float level is refused by type before the range check
    with pytest.raises(TypeError, match=r"^levels\[0\]=True is not an int$"):
        PlaneTree((True, 2.0))
    with pytest.raises(TypeError, match=r"^levels\[1\]=2\.0 is not an int$"):
        PlaneTree((1, 2.0))


VALUES = {
    "PlaneTree": (PlaneTree((1, 2, 2)), "levels"),
    "TreeData": (TreeData((1,), (2, 3), Fraction(5, 3)), "weight"),
    "SUITES entry": (verify.SUITES["trees"], "hard_max_k"),
}


@pytest.mark.parametrize("name", list(VALUES))
def test_value_types_are_immutable_and_pickle(name):
    value, field = VALUES[name]
    for attribute in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, attribute, 1)
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(copied) is type(value) and copied == value
        assert getattr(copied, field) == getattr(value, field)


def test_plane_tree_is_its_checked_levels():
    tree = PlaneTree([1, 2, 2])
    assert tree == (1, 2, 2) and tree.levels == (1, 2, 2) and type(tree.levels) is tuple
    assert (tree.vertex_count, str(tree), str(PlaneTree())) == (4, "1,2,2", ".")
    assert repr(TreeData((), (), 1)) == "TreeData(low=(), high=(), weight=1)"
    # loading a pickle builds the tree again, so an invalid level still raises
    forged = pickle.dumps(tuple.__new__(PlaneTree, (1, 3)))
    with pytest.raises(ValueError, match=r"entry 1 is 3, allowed 1\.\.2$"):
        pickle.loads(forged)


def test_tree_data_base_cases():
    for k in (1, 2):
        (tree,) = list(enumerate_trees(k))
        data = tree_data(tree)
        assert data.low == () and data.high == ()
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
        assert tuple(2 * n + 1 for n in data.low) == low
        assert tuple(2 * n + 1 for n in data.high) == high
        assert data.weight == wt


@pytest.mark.parametrize("k,expected", [(3, 10), (5, 992250)])
def test_weighted_low_products_sum_to_numerator(k, expected):
    total = 0
    for tree in enumerate_trees(k):
        data = tree_data(tree)
        total += data.weight * math.prod(2 * n + 3 for n in data.low)
    assert total == expected


@pytest.mark.parametrize("k", range(2, 10))
def test_tree_sums_match_recursion(k):
    assert polynomial_via_trees(k) == numerator_polynomial(k)
    assert generalized_transform(k) * double_factorial_product(k) == zeta_numerator(k)


def test_tree_sum_bounds():
    with pytest.raises(ValueError, match=f"k={TREE_SUM_MAX + 1} outside 2..{TREE_SUM_MAX}"):
        polynomial_via_trees(TREE_SUM_MAX + 1)
    with pytest.raises(ValueError, match=f"k={TRANSFORM_MAX + 1} outside 1..{TRANSFORM_MAX}"):
        generalized_transform(TRANSFORM_MAX + 1)
    with pytest.raises(ValueError):
        polynomial_via_trees(1)
    for k in (0, -1):
        with pytest.raises(ValueError, match=f"k={k} outside 2..{TREE_SUM_MAX}"):
            polynomial_via_trees(k)
        with pytest.raises(ValueError, match=f"k={k} outside 1..{TRANSFORM_MAX}"):
            generalized_transform(k)


@pytest.mark.parametrize(
    "call,lo,hi",
    [
        (polynomial_via_trees, 2, TREE_SUM_MAX),
        (generalized_transform, 1, TRANSFORM_MAX),
        (lambda k: list(enumerate_trees(k)), 1, ENUMERATION_MAX),
    ],
    ids=["polynomial_via_trees", "generalized_transform", "enumerate_trees"],
)
def test_bound_message_counts_no_trees(call, lo, hi):
    # C(k-1) of k = 10**4 has 6000 digits: the message states the bound only
    with pytest.raises(ValueError, match=rf"^k=10000 outside {lo}\.\.{hi}$"):
        call(10**4)


def test_polynomial_via_trees_base_case():
    assert polynomial_via_trees(2) == ONE


def test_cold_family_under_threads(monkeypatch):
    # the weights and the family grow under one lock: threads racing on a
    # cold cache must build the same values as one caller did
    expected = {k: (polynomial_via_trees(k), generalized_transform(k)) for k in range(2, 41)}
    family, weights = trees._family[:40], trees._odd_weights[:40]
    monkeypatch.setattr(trees, "_odd_weights", [(1, 1)])
    monkeypatch.setattr(trees, "_family", [((1, 1), [1])])
    got = {}

    def build(k):
        got[k] = (polynomial_via_trees(k), generalized_transform(k))

    ks = range(40, 1, -4)
    threads = [threading.Thread(target=build, args=(k,)) for k in ks]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == {k: expected[k] for k in ks}
    assert trees._family == family
    assert trees._odd_weights == weights


def test_cached_family_is_positive_content_times_primitive():
    # w_a = 2u + R_a and every c_d are positive, so each G_d is positive in
    # u = x - (k-1), and P_k(x + k - 1) has positive coefficients
    polynomial_via_trees(120)
    for (gamma, gamma_den), g in trees._family[:120]:
        assert gamma > 0 and gamma_den > 0 and math.gcd(gamma, gamma_den) == 1
        assert math.gcd(*g) == 1
        assert all(type(c) is int and c > 0 for c in g)
    # P_k(x + k - 1) = r * g_{k-1}(x) with r > 0, checked by Horner at
    # deg + 1 points, so its coefficients are positive as g_{k-1}'s are
    for k in range(2, 40):
        p, (_, g) = polynomial_via_trees(k), trees._family[k - 1]
        r = Fraction(p.evaluate(k - 1), g[0])
        assert r > 0 and p.degree == len(g) - 1
        assert all(p.evaluate(x + k - 1) == r * Polynomial(g).evaluate(x) for x in range(len(g)))


@pytest.mark.parametrize("k", [1, 2, 9, 10, 57, 128, 199, TRANSFORM_MAX])
def test_cached_odd_weights_equal_the_uncached_path(k):
    assert generalized_transform(k) == generalized_transform(k, SequenceSpec(ODD_NUMBERS[:k]))


def test_polynomial_via_trees_keeps_integer_coefficients():
    for k in range(2, 13):
        assert all(type(c) is int for c in polynomial_via_trees(k).coeffs)


@pytest.mark.parametrize("k", range(3, 10))
def test_leading_coefficient_comes_from_level_one_trees(k):
    restricted = sum(
        tree_data(t).weight for t in enumerate_trees(k) if t.levels[-1] == 1
    )
    assert restricted * 2 ** (k - 2) == numerator_polynomial(k).coeffs[-1]


def low_weight_table(k, values):
    """Reference fold: map each low mask on k vertices to the summed weight of its trees.

    Sets of positions are bitmasks (bit n-1 marks position n) and values[n-1]
    is the value at position n.  The replay of tree_data is folded by state:
    states maps a low mask to the summed weight of the trees reaching it,
    and grows by one vertex per step, so step t holds at most 2^(t-2)
    states rather than C_{t-1} trees.

    With s1 the shifted low mask of a tree on t-1 vertices, the positions
    of {1..t-1} outside s1 are free.  A new vertex at level i puts the i-1
    greatest free positions into high (with s1) and all but the i greatest
    into low (with s1), and multiplies the weight by the values over the
    high mask.  The low set then has t-1-i members, so its size fixes the
    level of the last vertex and the mask alone is the state: its free
    positions number one more than that level, and bound the next one.
    """
    states = {0: 1}  # the one tree on 2 vertices
    for t in range(3, k + 1):
        nxt = {}
        for low, wt in states.items():
            s1 = low << 1
            free = [n for n in range(t - 1) if not s1 >> n & 1]
            for n in range(1, t - 1):
                if s1 >> n & 1:
                    wt = wt * values[n]
            highs = [wt]  # highs[j]: weight with the j greatest free positions high
            for n in reversed(free[1:]):
                highs.append(highs[-1] * values[n])
            mask = s1
            for i in range(len(free), 0, -1):
                nxt[mask] = nxt.get(mask, 0) + highs[i - 1]
                mask |= 1 << free[len(free) - i]
        states = nxt
    return states


def folded_transform(k, seq):
    # the transform from the reference fold, in Fractions
    values = seq.values_upto(k)
    numerator = Fraction(0)
    for mask, wt in low_weight_table(k, values).items():
        for n in range(mask.bit_length()):
            if mask >> n & 1:
                wt *= values[n + 1]  # bit n is position n+1, shifted to n+2
        numerator += wt
    return numerator / value_tower(k, seq)


def replayed_table(k, seq=ODD_NUMBERS):
    table = {}
    for tree in enumerate_trees(k):
        data = tree_data(tree, seq)
        mask = sum(1 << (n - 1) for n in data.low)
        table[mask] = table.get(mask, 0) + data.weight
    return table


@pytest.mark.parametrize("k", range(1, 9))
def test_kernel_table_matches_per_tree_replay(k):
    # dual reference: the state fold vs the per-tree replay
    assert replayed_table(k) == low_weight_table(k, ODD_NUMBERS.values_upto(k))


nonzero_fractions = st.fractions(max_denominator=50).filter(lambda v: v != 0)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 7), values=st.lists(nonzero_fractions, min_size=7, max_size=7))
def test_fold_matches_per_tree_replay_on_rational_sequences(k, values):
    seq = SequenceSpec(values)
    assert low_weight_table(k, seq.values_upto(k)) == replayed_table(k, seq)


def test_generalized_transform_default_values():
    assert generalized_transform(1) == Fraction(1, 3)
    assert generalized_transform(3) == Fraction(2, 945)


@pytest.mark.parametrize("k", range(1, 11))
def test_generalized_transform_equals_twice_zeta_coefficient(k):
    assert generalized_transform(k) == 2 * zeta_even_rational(k)


def test_generalized_transform_all_ones_regression():
    ones = SequenceSpec([1] * 5)
    assert generalized_transform(2, ones) == 1
    # with unit values the numerator counts the trees themselves
    assert generalized_transform(3, ones) == 2
    assert generalized_transform(5, ones) == catalan_oracle(4)


def tree_term(tree, seq):
    data = tree_data(tree, seq)
    return Fraction(data.weight) * math.prod(seq[n] for n in data.low)  # position n+1


def value_tower(k, seq):
    # the transform's denominator: prod_{j=1}^{k} (product of the values at 1..j)
    denominator = Fraction(1)
    for j in range(1, k + 1):
        denominator *= math.prod(seq[:j])
    return denominator


def replayed_transform(k, seq):
    # the route's reference: per-tree replay over the whole family, in Fractions
    total = sum((tree_term(t, seq) for t in enumerate_trees(k)), Fraction(0))
    return total / value_tower(k, seq)


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


@settings(max_examples=20, deadline=None)
@given(k=st.integers(8, 12), values=st.lists(nonzero_values, min_size=12, max_size=12))
def test_generalized_transform_matches_reference_fold(k, values):
    # the band above the per-tree replay's k <= 7
    seq = SequenceSpec(values)
    assert generalized_transform(k, seq) == folded_transform(k, seq)


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
    with pytest.raises(ValueError, match="^sequence value at position 2 is zero$"):
        SequenceSpec([1, 0, 3])
    short = SequenceSpec([3, 5])
    message = "^sequence supplies only 2 values; position 3 needed$"
    with pytest.raises(ValueError, match=message):
        generalized_transform(3, short)
    # a 4-vertex tree needs positions 1..3, whichever its high sets reach
    with pytest.raises(ValueError, match=message):
        tree_data(PlaneTree((1, 2, 3)), short)
    # a negative slice would drop values from the end
    assert short.values_upto(-1) == ()
    with pytest.raises(TypeError, match=r"^n=2\.0 is not an int$"):
        short.values_upto(2.0)
    # a plain list or tuple is refused by the parameter's name, before any work
    with pytest.raises(TypeError, match="^seq is a list, not a SequenceSpec$"):
        generalized_transform(3, [3, 5, 7])
    with pytest.raises(TypeError, match="^seq is a tuple, not a SequenceSpec$"):
        tree_data(PlaneTree((1,)), (3,))
    with pytest.raises(TypeError, match="^tree is a tuple, not a PlaneTree$"):
        tree_data((1, 1))


@pytest.mark.parametrize(
    "seq,position",
    [
        ([1.5, 2, 3], 1),
        ([True, 2, 3], 1),
        ([3, 5, 7.0], 3),
    ],
)
def test_sequence_spec_rejects_inexact_values(seq, position):
    # checked once, when the sequence is built
    with pytest.raises(ValueError, match=f"^sequence value at position {position} is "):
        SequenceSpec(seq)


def test_odd_numbers_cover_every_position_the_route_reads():
    assert len(ODD_NUMBERS) == TRANSFORM_MAX
    assert all(ODD_NUMBERS[n - 1] == 2 * n + 1 for n in range(1, TRANSFORM_MAX + 1))


def test_sequence_spec_from_file(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("3\n5\n7\n9\n", encoding="utf-8")
    seq = SequenceSpec.from_file(str(path))
    assert seq.values_upto(4) == (3, 5, 7, 9)
    assert generalized_transform(3, seq) == generalized_transform(3)

    bad = tmp_path / "bad.txt"
    bad.write_text("3\nfive\n", encoding="utf-8")
    with pytest.raises(ValueError, match="bad.txt:2"):
        SequenceSpec.from_file(str(bad))

    zero = tmp_path / "zero.txt"
    zero.write_text("3\n0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="zero.txt:2"):
        SequenceSpec.from_file(str(zero))

    # a full-width digit is not canonical base-10 text, and its line is named
    wide = tmp_path / "wide.txt"
    wide.write_text("3\n\uff15\n", encoding="utf-8")
    with pytest.raises(ValueError, match="wide.txt:2: not a rational literal"):
        SequenceSpec.from_file(str(wide))

    # a leading byte-order mark is no part of line 1
    bom = tmp_path / "bom.txt"
    bom.write_text("\ufeff3\n5\n7\n", encoding="utf-8")
    assert SequenceSpec.from_file(str(bom)) == (3, 5, 7)

    # text that is not UTF-8 is refused by the file's path
    latin = tmp_path / "latin.txt"
    latin.write_bytes(b"3\n5\xff\n")
    with pytest.raises(ValueError, match=r"^.*latin\.txt: not UTF-8 text$"):
        SequenceSpec.from_file(str(latin))
