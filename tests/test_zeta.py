import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evenzeta.cli import BERNOULLI_MAX
from evenzeta.recursion import RECURSION_MAX
from evenzeta.zeta import (
    BERNOULLI_CLASSICAL_MAX,
    BERNOULLI_EVEN_MAX,
    ELEMENTARY_ZETA_MAX,
    bernoulli_classical,
    bernoulli_from_zeta,
    bernoulli_even,
    elementary_zeta,
    newton_partial_closed,
    newton_partial_sum,
    zeta_even_rational,
)


def zeta_from_classical(k):
    # independent route: invert the Bernoulli relation using only the oracle
    sign = 1 if k % 2 else -1
    return sign * Fraction(2 ** (2 * k)) * bernoulli_classical(2 * k) / (
        2 * math.factorial(2 * k)
    )


# -- the classical oracle stands on its own ---------------------------------


def test_classical_oracle_seed_and_landmark():
    assert bernoulli_classical(0) == 1
    assert bernoulli_classical(3) == 0
    assert bernoulli_classical(12) == Fraction(-691, 2730)


def test_classical_oracle_odd_vanishing():
    for n in range(3, 31, 2):
        assert bernoulli_classical(n) == 0


def test_classical_oracle_recursion_identity():
    for n in range(1, 20):
        total = sum(
            math.comb(n + 1, j) * bernoulli_classical(j) for j in range(n + 1)
        )
        assert total == 0


def test_classical_oracle_bound():
    # `bernoulli --k 350 --method classical` asks the oracle for B_700
    bound = BERNOULLI_CLASSICAL_MAX
    assert bound >= 2 * BERNOULLI_MAX["classical"]
    with pytest.raises(ValueError, match=rf"^n={bound + 1} outside 0\.\.{bound}$"):
        bernoulli_classical(bound + 1)
    with pytest.raises(ValueError, match=rf"^n=-1 outside 0\.\.{bound}$"):
        bernoulli_classical(-1)


@pytest.mark.parametrize(
    "fn,bound",
    [(zeta_even_rational, RECURSION_MAX), (bernoulli_even, BERNOULLI_EVEN_MAX)],
)
def test_operator_route_bounds(fn, bound):
    # the `verify` bernoulli suite runs up to 240 and the CLI up to 260
    assert bound >= 240
    with pytest.raises(ValueError, match=rf"^k={bound + 1} outside 1\.\.{bound}$"):
        fn(bound + 1)
    with pytest.raises(ValueError, match=r"^k=0 outside 1\.\."):
        fn(0)


# -- zeta values -------------------------------------------------------------


def test_elementary_zeta_values():
    assert elementary_zeta(0) == 1
    assert elementary_zeta(1) == Fraction(1, 6)
    assert elementary_zeta(3) == Fraction(1, 5040)


@pytest.mark.parametrize(
    "k,coeff",
    [(1, Fraction(1, 6)), (2, Fraction(1, 90)), (3, Fraction(1, 945)), (4, Fraction(1, 9450))],
)
def test_zeta_even_rational_small_values(k, coeff):
    value = zeta_even_rational(k)
    assert type(value) is Fraction and value == coeff
    assert value == zeta_from_classical(k)


def test_zeta_even_rational_sign_pattern():
    for k in range(1, 31):
        assert zeta_even_rational(k) > 0


# -- bernoulli numbers -------------------------------------------------------


@pytest.mark.parametrize(
    "k,expected", [(1, Fraction(1, 6)), (2, Fraction(-1, 30)), (5, Fraction(5, 66))]
)
def test_bernoulli_even_small_values(k, expected):
    assert bernoulli_even(k) == expected


@pytest.mark.parametrize("bad", [0.5, "1/3", True])
def test_bernoulli_from_zeta_rejects_inexact_coeff(bad):
    with pytest.raises(TypeError, match=rf"^coeff={re.escape(repr(bad))} "):
        bernoulli_from_zeta(1, bad)


@pytest.mark.parametrize(
    "k,coeff,expected",
    [(1, 1, Fraction(1)), (2, 3, Fraction(-9)), (1, Fraction(1, 6), Fraction(1, 6)),
     (2, Fraction(1, 90), Fraction(-1, 30))],
)
def test_bernoulli_from_zeta_returns_a_fraction(k, coeff, expected):
    # an int coefficient gives a Fraction too, never int / int's float
    b = bernoulli_from_zeta(k, coeff)
    assert type(b) is Fraction and b == expected


@given(
    st.integers(1, 40),
    st.one_of(st.integers(-10**6, 10**6), st.fractions(max_denominator=10**6)),
)
def test_bernoulli_from_zeta_is_exact_for_any_exact_coeff(k, coeff):
    b = bernoulli_from_zeta(k, coeff)
    sign = 1 if k % 2 else -1
    assert type(b) is Fraction
    assert b == sign * 2 * math.factorial(2 * k) * Fraction(coeff) / 4**k


def test_bernoulli_even_matches_oracle():
    for k in range(1, 31):
        b = bernoulli_even(k)
        assert b == bernoulli_classical(2 * k)
        assert (b > 0) == (k % 2 == 1)


# -- partial sums ------------------------------------------------------------


def test_partial_sum_vanishes_at_k1():
    assert newton_partial_sum(2, 1) == 0
    assert newton_partial_closed(2, 1) == 0


def test_partial_sum_n2_closed_formula():
    for k in range(1, 11):
        expected = -Fraction(2 * k * (2 * k - 2), 6 * math.factorial(2 * k + 1))
        assert newton_partial_sum(2, k) == expected
        assert newton_partial_closed(2, k) == expected


@pytest.mark.parametrize("n", range(2, 9))
def test_partial_sum_routes_agree(n):
    for k in range(max(1, n - 1), 11):
        assert newton_partial_sum(n, k) == newton_partial_closed(n, k)


@pytest.mark.parametrize("n", range(2, 9))
def test_partial_sum_closes_to_zeta(n):
    sign = 1 if n % 2 else -1
    assert sign * newton_partial_sum(n, n) == zeta_even_rational(n)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_partial_sums_agree_over_a_wide_range(data):
    n = data.draw(st.integers(2, 60), label="n")
    k = data.draw(st.integers(n - 1, ELEMENTARY_ZETA_MAX), label="k")
    assert newton_partial_sum(n, k) == newton_partial_closed(n, k)
    sign = 1 if n % 2 else -1
    assert sign * newton_partial_sum(n, n) == zeta_even_rational(n) == zeta_from_classical(n)


def test_partial_sum_domain_errors():
    with pytest.raises(ValueError):
        newton_partial_sum(5, 2)  # k < n-1 underflows the indices
    with pytest.raises(ValueError):
        newton_partial_sum(1, 5)
    with pytest.raises(ValueError):
        newton_partial_closed(2, 0)
