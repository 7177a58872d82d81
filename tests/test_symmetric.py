import itertools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evenzeta import basis, rationals, recursion, tree_polynomial, trees
from evenzeta.basis import BASIS_COEFFICIENTS_MAX, basis_coefficients
from evenzeta.plane_trees import ENUMERATION_MAX, PlaneTree, catalan, enumerate_trees, tree_data
from evenzeta.rationals import (
    DOUBLE_FACTORIAL_PRODUCT_MAX,
    double_factorial_odd,
    double_factorial_product,
)
from evenzeta.recursion import (
    RECURSION_MAX,
    numerator_polynomial,
    translated_polynomial,
    zeta_numerator,
)
from evenzeta.symmetric import (
    CYCLE_INDEX_MAX,
    CYCLE_INDEX_VARIABLES_MAX,
    INVERSE_SQUARES_MAX,
    NEWTON_GIRARD_MAX,
    VARIABLES_MAX,
    VariableSet,
    cycle_index_elementary,
    elementary_symmetric,
    newton_girard_check,
    power_sum,
)
from evenzeta.tree_polynomial import TREE_SUM_MAX, polynomial_via_trees
from evenzeta.trees import TRANSFORM_MAX, generalized_transform
from evenzeta.zeta import (
    BERNOULLI_CLASSICAL_MAX,
    BERNOULLI_EVEN_MAX,
    ELEMENTARY_ZETA_MAX,
    bernoulli_classical,
    bernoulli_even,
    bernoulli_from_zeta,
    elementary_zeta,
    newton_partial_closed,
    newton_partial_sum,
    zeta_even_rational,
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


def test_variable_set_needs_a_variable():
    with pytest.raises(ValueError, match="^a variable set needs at least one variable$"):
        VariableSet([])


@pytest.mark.parametrize(
    "fn",
    [elementary_symmetric, power_sum, cycle_index_elementary, newton_girard_check],
    ids=lambda fn: fn.__name__,
)
def test_vars_must_be_a_variable_set(fn):
    # a list would let a bool in as a variable: its type is refused before its k
    with pytest.raises(TypeError, match="^vars is a list, not a VariableSet$"):
        fn([True, 2], 99)


def test_elementary_symmetric_bounds():
    vs = VariableSet([1, 2])
    with pytest.raises(ValueError):
        elementary_symmetric(vs, 3)


@given(var_sets)
def test_elementary_matches_brute_force(vs):
    for k in range(len(vs) + 1):
        assert elementary_symmetric(vs, k) == esym_brute(vs, k)


def test_power_sum_examples():
    assert power_sum(VariableSet([1, 2, 3]), 1) == 6
    c = Fraction(2, 7)
    assert power_sum(VariableSet([c]), 5) == c**5
    assert power_sum(VariableSet([1, Fraction(1, 4)]), 2) == Fraction(17, 16)
    with pytest.raises(ValueError):
        power_sum(VariableSet([1]), 0)


@given(
    st.lists(
        st.fractions(min_value=-9, max_value=9, max_denominator=8) | st.just(Fraction(0)),
        min_size=1,
        max_size=9,
    ).map(VariableSet)
)
@example(VariableSet([0]))
@example(VariableSet([0, -1, Fraction(-2, 3)]))
@example(VariableSet([Fraction(1, 2), 0, -3, Fraction(5, 7), Fraction(-4, 9)]))
@example(VariableSet([-2, Fraction(1, 6), 0, Fraction(-3, 4), 5, Fraction(7, 8), -1]))
def test_power_sum_matches_the_sum_of_powers(vs):
    # an odd variable count leaves one sum unpaired at some merge level
    for k in range(1, max(len(vs), CYCLE_INDEX_MAX) + 1):
        assert power_sum(vs, k) == sum(z**k for z in vs)


def test_cycle_index_examples():
    vs = VariableSet([1, 2, 3])
    assert cycle_index_elementary(vs, 1) == power_sum(vs, 1)
    assert cycle_index_elementary(vs, 2) == 11
    inv_squares = VariableSet.inverse_squares(4)
    assert cycle_index_elementary(inv_squares, 4) == Fraction(1, 576)
    assert elementary_symmetric(inv_squares, 4) == Fraction(1, 576)


def test_cycle_index_bound():
    vs = VariableSet(range(1, 10))
    with pytest.raises(ValueError, match=r"^k=9 outside 1\.\.8$"):
        cycle_index_elementary(vs, 9)
    with pytest.raises(ValueError):
        cycle_index_elementary(vs, 0)


@settings(max_examples=30)
@given(var_sets)
def test_cycle_index_matches_elementary(vs):
    for k in range(1, len(vs) + 1):
        assert cycle_index_elementary(vs, k) == elementary_symmetric(vs, k)


def test_permutation_walk_matches_cycle_index():
    vs = VariableSet([Fraction(1, 2), -3, Fraction(5, 7), 2, 1, Fraction(-4, 9)])
    for k in range(1, 7):
        assert cycle_index_elementary(vs, k) == cycle_index_by_permutations(vs, k)


VARS = VariableSet([1, 2, 3])


def variables(n):
    return VariableSet(range(1, n + 1))


# Every __all__ callable of rationals, recursion, basis, zeta, the tree modules and symmetric
# that takes an index: id -> (call on that index, lo, hi, argument name).
# expand_basis is not here: its k shifts the linear factors, and its cost
# is the length of its first argument.
INDEXED = {
    "power_sum": (lambda k: power_sum(VARS, k), 1, CYCLE_INDEX_MAX, "k"),
    "elementary_symmetric": (lambda k: elementary_symmetric(VARS, k), 0, 3, "k"),
    "cycle_index_elementary": (lambda k: cycle_index_elementary(VARS, k), 1, CYCLE_INDEX_MAX, "k"),
    "newton_girard_check": (lambda k: newton_girard_check(VARS, k), 1, 3, "k"),
    "power_sum.N": (lambda n: power_sum(variables(n), 1), 1, VARIABLES_MAX, "N"),
    "elementary_symmetric.N": (
        lambda n: elementary_symmetric(variables(n), 1), 1, VARIABLES_MAX, "N"
    ),
    "cycle_index_elementary.N": (
        lambda n: cycle_index_elementary(variables(n), 1), 1, CYCLE_INDEX_VARIABLES_MAX, "N"
    ),
    "newton_girard_check.N": (
        lambda n: newton_girard_check(variables(n), 1), 1, NEWTON_GIRARD_MAX, "N"
    ),
    "VariableSet.inverse_squares": (VariableSet.inverse_squares, 1, INVERSE_SQUARES_MAX, "n"),
    "double_factorial_odd": (double_factorial_odd, 0, DOUBLE_FACTORIAL_PRODUCT_MAX, "i"),
    "double_factorial_product": (double_factorial_product, 0, DOUBLE_FACTORIAL_PRODUCT_MAX, "k"),
    "numerator_polynomial": (numerator_polynomial, 1, RECURSION_MAX, "k"),
    "zeta_numerator": (zeta_numerator, 1, RECURSION_MAX, "k"),
    "translated_polynomial": (translated_polynomial, 1, RECURSION_MAX, "k"),
    "basis_coefficients": (basis_coefficients, 2, BASIS_COEFFICIENTS_MAX, "k"),
    "catalan": (catalan, 0, TRANSFORM_MAX - 1, "n"),
    "enumerate_trees": (lambda k: next(enumerate_trees(k)), 1, ENUMERATION_MAX, "k"),
    "polynomial_via_trees": (polynomial_via_trees, 2, TREE_SUM_MAX, "k"),
    "tree_data": (
        lambda k: tree_data(PlaneTree([1] * (k - 1))), 1, TRANSFORM_MAX, "vertex_count"
    ),
    "generalized_transform": (generalized_transform, 1, TRANSFORM_MAX, "k"),
    "elementary_zeta": (elementary_zeta, 0, ELEMENTARY_ZETA_MAX, "k"),
    "zeta_even_rational": (zeta_even_rational, 1, RECURSION_MAX, "k"),
    "bernoulli_from_zeta": (
        lambda k: bernoulli_from_zeta(k, Fraction(1)), 1, ELEMENTARY_ZETA_MAX, "k"
    ),
    "bernoulli_even": (bernoulli_even, 1, BERNOULLI_EVEN_MAX, "k"),
    "bernoulli_classical": (bernoulli_classical, 0, BERNOULLI_CLASSICAL_MAX, "n"),
    "newton_partial_sum.n": (lambda n: newton_partial_sum(n, 10), 2, RECURSION_MAX, "n"),
    "newton_partial_sum.k": (lambda k: newton_partial_sum(3, k), 2, ELEMENTARY_ZETA_MAX, "k"),
    "newton_partial_closed.n": (lambda n: newton_partial_closed(n, 10), 2, RECURSION_MAX, "n"),
    "newton_partial_closed.k": (lambda k: newton_partial_closed(3, k), 1, ELEMENTARY_ZETA_MAX, "k"),
}


def _work_done():
    """The caches an index reaches first when a call does any work."""
    return (
        len(recursion._parts),
        tuple(recursion._rising),
        len(basis._basis),
        len(tree_polynomial._family),
        len(trees._odd_weights),
        bernoulli_classical.cache_info().currsize,
        double_factorial_odd.cache_info().currsize,
        len(rationals._tower),
    )


# A size (a tree's vertex count, a variable count N) is an int by
# construction and at least 1, so only its upper bound can be passed.
SIZES = {"power_sum.N", "elementary_symmetric.N", "cycle_index_elementary.N",
         "newton_girard_check.N", "tree_data"}
# each bad index by its test id
BAD = {"2.0": 2.0, "True": True, "bad2": Fraction(2), "lo-1": "lo-1", "hi+1": "hi+1"}


@pytest.mark.parametrize(
    "fn, bad",
    [
        pytest.param(fn, bad, id=f"{bad_id}-{fn}")
        for bad_id, bad in BAD.items()
        for fn in INDEXED
        if fn not in SIZES or bad == "hi+1"
    ],
)
def test_index_must_be_an_int(fn, bad):
    # a bool, float or Fraction index and one just outside the bound are
    # refused with the documented message before any work is done
    call, lo, hi, name = INDEXED[fn]
    before = _work_done()
    if bad in ("lo-1", "hi+1"):
        k = lo - 1 if bad == "lo-1" else hi + 1
        with pytest.raises(ValueError, match=f"^{re.escape(f'{name}={k} outside {lo}..{hi}')}$"):
            call(k)
    else:
        with pytest.raises(TypeError, match=f"^{re.escape(f'{name}={bad!r} is not an int')}$"):
            call(bad)
    assert _work_done() == before


def test_newton_girard_examples():
    vs = VariableSet([2, 3])
    assert newton_girard_check(vs, 1) == (5, 5)
    assert newton_girard_check(vs, 2) == (-13, 12 - 25)
    lhs, rhs = newton_girard_check(VariableSet.inverse_squares(12), 5)
    assert lhs == rhs


def test_newton_girard_bounds():
    with pytest.raises(ValueError):
        newton_girard_check(VariableSet([1, 2]), 3)
    # past NEWTON_GIRARD_MAX, refused even when the variables would allow it
    k = NEWTON_GIRARD_MAX + 1
    with pytest.raises(ValueError, match=rf"^k={k} outside 1\.\.{NEWTON_GIRARD_MAX}$"):
        newton_girard_check(VariableSet(range(1, k + 2)), k)


@settings(max_examples=40)
@given(var_sets)
def test_newton_girard_holds(vs):
    for k in range(1, len(vs) + 1):
        lhs, rhs = newton_girard_check(vs, k)
        assert lhs == rhs


def newton_girard_by_fractions(vars, k):
    # both sides from Fraction sums over the variables, sharing no code with
    # the package's integer rows: p_i summed power by power, e_j by the product
    # recurrence on prod(1 + z t)
    p = [Fraction(0)] * (k + 1)
    e = [Fraction(1)] + [Fraction(0)] * k
    for z in vars:
        power = Fraction(1)
        for i in range(1, k + 1):
            power *= z
            p[i] += power
        for j in range(k, 0, -1):
            e[j] += z * e[j - 1]
    rhs = k * e[k]
    for i in range(1, k):
        rhs -= (-1) ** (i - 1) * e[k - i] * p[i]
    return (-1) ** (k - 1) * p[k], rhs


@settings(max_examples=40)
@given(
    st.lists(
        st.fractions(min_value=-30, max_value=30, max_denominator=60), min_size=1, max_size=10
    ).map(VariableSet)
)
def test_newton_girard_matches_the_fraction_loop(vs):
    for k in range(1, len(vs) + 1):
        assert newton_girard_check(vs, k) == newton_girard_by_fractions(vs, k)
