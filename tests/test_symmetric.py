import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evenzeta.symmetric import (
    Permutation,
    VariableSet,
    cycle_index_elementary,
    elementary_symmetric,
    newton_girard_check,
    power_sum,
    symmetric_group,
)


def esym_brute(values, k):
    # independent oracle: literal sum over k-subsets
    return sum(
        (math.prod(c, start=Fraction(1)) for c in itertools.combinations(values, k)),
        Fraction(0),
    )


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


def test_permutation_basics():
    p = Permutation((2, 3, 1, 4))
    assert p.cycles == ((1, 2, 3), (4,))
    assert p.sign == 1
    assert Permutation((2, 1, 3)).sign == -1
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))


def test_symmetric_group_size():
    assert sum(1 for _ in symmetric_group(4)) == 24


@given(st.integers(min_value=1, max_value=5), st.randoms())
def test_sign_is_multiplicative(k, rng):
    def rand_perm():
        image = list(range(1, k + 1))
        rng.shuffle(image)
        return Permutation(image)

    a, b = rand_perm(), rand_perm()
    assert (a * b).sign == a.sign * b.sign


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


def test_cycle_type_and_permutation_modes_agree():
    vs = VariableSet([Fraction(1, 2), -3, Fraction(5, 7), 2, 1])
    for k in range(1, 6):
        assert cycle_index_elementary(vs, k, mode="permutations") == (
            cycle_index_elementary(vs, k, mode="cycle-types")
        )
    with pytest.raises(ValueError):
        cycle_index_elementary(vs, 2, mode="nonsense")


def test_newton_girard_examples():
    vs = VariableSet([2, 3])
    assert newton_girard_check(vs, 1).passed
    res = newton_girard_check(vs, 2)
    assert res.passed and res.lhs == -13 and res.rhs == 12 - 25
    inv_squares = VariableSet.inverse_squares(12)
    assert newton_girard_check(inv_squares, 5).passed


def test_newton_girard_bounds():
    with pytest.raises(ValueError):
        newton_girard_check(VariableSet([1, 2]), 3)


@settings(max_examples=40)
@given(var_sets)
def test_newton_girard_holds(vs):
    for k in range(1, vs.size + 1):
        assert newton_girard_check(vs, k)
