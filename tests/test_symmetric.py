import itertools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evenzeta.symmetric import (
    VariableSet,
    cycle_index_elementary,
    elementary_symmetric,
    newton_girard_check,
    power_sum,
)


def esym_brute(values, k):
    # independent oracle: literal sum over k-subsets
    return sum(
        (math.prod(c, start=Fraction(1)) for c in itertools.combinations(values, k)),
        Fraction(0),
    )


def cycle_index_by_permutations(values, k):
    # the paper's sum over the symmetric group, one term per permutation:
    # (1/k!) sum_sigma sgn(sigma) prod p_{cycle lengths}; the sign is the
    # parity of the inversion count, so nothing is shared with the grouping
    # by cycle type
    total = Fraction(0)
    for image in itertools.permutations(range(k)):
        inversions = sum(image[i] > image[j] for i, j in itertools.combinations(range(k), 2))
        term = Fraction((-1) ** inversions)
        seen = set()
        for start in range(k):
            if start in seen:
                continue
            length, i = 0, start
            while i not in seen:  # one cycle of the permutation
                seen.add(i)
                i = image[i]
                length += 1
            term *= sum(z**length for z in values)
        total += term
    return total / math.factorial(k)


var_sets = st.lists(
    st.fractions(min_value=-9, max_value=9, max_denominator=8), min_size=1, max_size=6
).map(VariableSet)


def test_elementary_symmetric_examples():
    assert elementary_symmetric(VariableSet([1, 2, 3]), 2) == 11
    assert elementary_symmetric(VariableSet([5, -7]), 0) == 1
    inv_squares = VariableSet([Fraction(1), Fraction(1, 4), Fraction(1, 9)])
    assert elementary_symmetric(inv_squares, 3) == Fraction(1, 36)


@pytest.mark.parametrize("bad", [0.1, "1/3", True])
def test_variable_set_rejects_inexact_values(bad):
    with pytest.raises(TypeError, match=repr(bad)):
        VariableSet((bad, 2))


def test_elementary_symmetric_bounds():
    vs = VariableSet([1, 2])
    with pytest.raises(ValueError):
        elementary_symmetric(vs, 3)


@given(var_sets)
def test_elementary_matches_brute_force(vs):
    for k in range(vs.size + 1):
        assert elementary_symmetric(vs, k) == esym_brute(vs.values, k)


def test_power_sum_examples():
    assert power_sum(VariableSet([1, 2, 3]), 1) == 6
    c = Fraction(2, 7)
    assert power_sum(VariableSet([c]), 5) == c**5
    assert power_sum(VariableSet([1, Fraction(1, 4)]), 2) == Fraction(17, 16)
    with pytest.raises(ValueError):
        power_sum(VariableSet([1]), 0)


def test_cycle_index_examples():
    vs = VariableSet([1, 2, 3])
    assert cycle_index_elementary(vs, 1) == power_sum(vs, 1)
    assert cycle_index_elementary(vs, 2) == 11
    inv_squares = VariableSet.inverse_squares(4)
    assert cycle_index_elementary(inv_squares, 4) == Fraction(1, 576)
    assert elementary_symmetric(inv_squares, 4) == Fraction(1, 576)


def test_cycle_index_bound():
    vs = VariableSet(range(1, 10))
    with pytest.raises(ValueError, match="elementary_symmetric"):
        cycle_index_elementary(vs, 9)
    with pytest.raises(ValueError):
        cycle_index_elementary(vs, 0)


@settings(max_examples=30)
@given(var_sets)
def test_cycle_index_matches_elementary(vs):
    for k in range(1, vs.size + 1):
        assert cycle_index_elementary(vs, k) == elementary_symmetric(vs, k)


def test_permutation_walk_matches_cycle_index():
    vs = VariableSet([Fraction(1, 2), -3, Fraction(5, 7), 2, 1, Fraction(-4, 9)])
    for k in range(1, 7):
        assert cycle_index_elementary(vs, k) == cycle_index_by_permutations(vs.values, k)


@pytest.mark.parametrize(
    "fn", [power_sum, elementary_symmetric, cycle_index_elementary, newton_girard_check]
)
@pytest.mark.parametrize("bad", [2.0, True, Fraction(2)])
def test_index_must_be_an_int(fn, bad):
    with pytest.raises(TypeError, match=re.escape(f"k={bad!r}")):
        fn(VariableSet([1, 2, 3]), bad)


def test_newton_girard_examples():
    vs = VariableSet([2, 3])
    assert newton_girard_check(vs, 1) == (5, 5)
    assert newton_girard_check(vs, 2) == (-13, 12 - 25)
    lhs, rhs = newton_girard_check(VariableSet.inverse_squares(12), 5)
    assert lhs == rhs


def test_newton_girard_bounds():
    with pytest.raises(ValueError):
        newton_girard_check(VariableSet([1, 2]), 3)


@settings(max_examples=40)
@given(var_sets)
def test_newton_girard_holds(vs):
    for k in range(1, vs.size + 1):
        lhs, rhs = newton_girard_check(vs, k)
        assert lhs == rhs
