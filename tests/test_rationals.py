import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from evenzeta.rationals import (
    DOUBLE_FACTORIAL_PRODUCT_MAX,
    double_factorial_odd,
    double_factorial_product,
    parse_rational,
)

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)


def test_exact_addition():
    assert Fraction(1, 6) + Fraction(1, 90) == Fraction(8, 45)


def test_zero_annihilates():
    assert Fraction(3, 4) * Fraction(0) == Fraction(0, 1)


def test_reduction_on_construction():
    # independent gcd oracle
    g = math.gcd(10, 4725)
    assert g == 5
    assert Fraction(10, 4725) == Fraction(10 // g, 4725 // g) == Fraction(2, 945)


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 2) / Fraction(0)


@given(rationals, rationals, rationals)
def test_associativity_and_distributivity(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


@given(rationals)
def test_canonical_form(q):
    assert parse_rational(str(q)) == q


@pytest.mark.parametrize(
    "text,expected",
    [("-1/30", Fraction(-1, 30)), ("945", Fraction(945)), (" 2/945 ", Fraction(2, 945))],
)
def test_parse_rational(text, expected):
    assert parse_rational(text) == expected


# full-width, Arabic-Indic and Devanagari digits are not base-10 text
@pytest.mark.parametrize(
    "bad", ["", "1/0", "1.5", "a/b", "1/2/3", "1 / 2", "１２/٣", "١٢", "12/３", "-४"]
)
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


@pytest.mark.parametrize("i,expected", [(0, 1), (1, 3), (2, 15), (4, 3 * 5 * 7 * 9)])
def test_double_factorial_odd(i, expected):
    assert double_factorial_odd(i) == expected


def test_double_factorial_ratio():
    for i in range(1, 30):
        assert double_factorial_odd(i) == double_factorial_odd(i - 1) * (2 * i + 1)


def test_double_factorial_product():
    assert double_factorial_product(0) == 1
    assert double_factorial_product(3) == 3 * 15 * 105
    for k in range(1, 12):
        assert (
            double_factorial_product(k)
            == double_factorial_product(k - 1) * double_factorial_odd(k)
        )


def test_double_factorial_product_past_recursion_limit():
    # one product, so a cold call needs no call depth per k; a recursion
    # through the cache ran out of stack at k = 500
    double_factorial_product.cache_clear()
    assert double_factorial_product(500) % double_factorial_odd(500) == 0


def test_double_factorial_product_bound():
    bound = DOUBLE_FACTORIAL_PRODUCT_MAX
    assert bound >= 175
    with pytest.raises(ValueError, match=rf"^k={bound + 1} outside 0\.\.{bound}$"):
        double_factorial_product(bound + 1)
    with pytest.raises(ValueError, match=rf"^k=-1 outside 0\.\.{bound}$"):
        double_factorial_product(-1)


def test_double_factorial_rejects_negative():
    with pytest.raises(ValueError):
        double_factorial_odd(-1)
