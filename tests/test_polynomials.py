import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from evenzeta.polynomials import ONE, ZERO, Polynomial, split_content, taylor_shift
from evenzeta.trees import PlaneTree, generalized_transform, tree_data

small_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
polys = st.lists(small_rationals, max_size=6).map(Polynomial)
# ints and Fractions mixed, integral Fractions such as 3/1 included
mixed_coeffs = st.lists(st.one_of(st.integers(-30, 30), small_rationals), max_size=6)


def naive_eval(coeffs, x):
    # independent power-sum evaluation oracle, over Fractions only
    return sum((Fraction(c) * Fraction(x) ** i for i, c in enumerate(coeffs)), Fraction(0))


def assert_stored_form(p):
    for c in p.coeffs:
        if Fraction(c).denominator == 1:
            assert type(c) is int
        else:
            assert type(c) is Fraction and c.denominator > 1


def test_addition_trims_and_cancels():
    assert Polynomial((7, 1)) + Polynomial((-7,)) == Polynomial((0, 1))
    assert Polynomial((1, 1)) + Polynomial((1, -1)) == Polynomial((2,))


def test_addition_identity():
    p = Polynomial((1, 2, 3))
    assert p + ZERO == p


def test_multiplication():
    assert Polynomial((3, 2)) * Polynomial((5, 2)) == Polynomial((15, 16, 4))
    assert Polynomial((1, 2)) * ZERO == ZERO
    # the two-factor product (2x-1)(2x+1)
    assert Polynomial((-1, 2)) * Polynomial((1, 2)) == Polynomial((-1, 0, 4))


def test_comparison_with_a_bool_is_false():
    # a bool is not an exact value, so it is no constant polynomial, and == does not raise
    assert (Polynomial((1,)) == True) is False  # noqa: E712
    assert (ZERO != False) is True  # noqa: E712
    assert Polynomial((1,)) == 1 and Polynomial((Fraction(1, 2),)) == Fraction(1, 2)


@pytest.mark.parametrize("scale", [True, False, 0.5])
def test_a_bool_or_float_is_no_scalar_factor(scale):
    # as in the constructor and evaluate, a bool is not an exact value:
    # p * True used to return p
    p = Polynomial((1, 2))
    with pytest.raises(TypeError):
        p * scale
    with pytest.raises(TypeError):
        scale * p


def test_zero_degree_sentinel():
    assert ZERO.degree is None
    assert ONE.degree == 0
    assert not ZERO
    assert ZERO.evaluate(Fraction(7, 3)) == 0


@given(polys, small_rationals)
def test_horner_matches_naive(p, x):
    assert p.evaluate(x) == naive_eval(p.coeffs, x)


@given(mixed_coeffs, mixed_coeffs, small_rationals)
def test_mixed_coefficients_match_fraction_reference(cs, ds, x):
    p, q = Polynomial(cs), Polynomial(ds)
    for r in (p, q, p + q, p * q):
        assert_stored_form(r)
    assert p.evaluate(x) == naive_eval(cs, x)
    assert (p + q).evaluate(x) == naive_eval(cs, x) + naive_eval(ds, x)
    assert (p * q).evaluate(x) == naive_eval(cs, x) * naive_eval(ds, x)


def test_stored_form_examples():
    p = Polynomial((Fraction(65, 1), 60, Fraction(80, 2), Fraction(0)))
    assert p.coeffs == (65, 60, 40)
    assert all(type(c) is int for c in p.coeffs)
    assert repr(p) == "Polynomial([65, 60, 40])"
    assert type(p.coefficient(7)) is int and p.coefficient(7) == 0
    assert type(p.evaluate(2)) is int
    # an integral product is stored as an int, any other as a Fraction
    assert (Polynomial((4, 2)) * Fraction(1, 2)).coeffs == (2, 1)
    assert (Polynomial((-1, 1)) * Fraction(1, 2)).coeffs == (Fraction(-1, 2), Fraction(1, 2))


@pytest.mark.parametrize(
    "make",
    [
        lambda: Polynomial((0.5,)),
        lambda: Polynomial(("1/3",)),
        lambda: Polynomial((True, 1)),
        lambda: Polynomial((1, 2)).evaluate(0.5),
        # the tree route takes a SequenceSpec and a PlaneTree, not the plain
        # tuple or list of their entries
        lambda: generalized_transform(3, [3, 5, 7]),
        lambda: generalized_transform(3, (3, 5, 7)),
        lambda: tree_data((1, 1)),
        lambda: tree_data(PlaneTree((1, 1)), [3, 5]),
    ],
)
def test_inexact_values_are_rejected(make):
    with pytest.raises(TypeError):
        make()


@given(
    st.lists(st.integers(-(10**6), 10**6), max_size=8),
    st.integers(-9, 9),
    st.integers(-30, 30),
    st.integers(1, 8),
    small_rationals,
)
@example([], 2, -3, 2, Fraction(1, 3))  # the zero polynomial
@example([7, 0, -2, 5], 1, -61, 2, Fraction(-5, 4))  # a negative B
def test_taylor_shift_matches_naive(cs, a, b, d, x):
    shifted = taylor_shift(cs, a, b, d)
    assert len(shifted) == len(cs) and all(type(c) is int for c in shifted)
    n = len(cs) - 1
    assert naive_eval(shifted, x) == Fraction(d) ** n * naive_eval(cs, (a * x + b) / Fraction(d))


@given(polys, polys)
def test_degree_law(p, q):
    if p and q:
        assert (p * q).degree == p.degree + q.degree


def test_text_form():
    assert str(Polynomial((465, 130, 10))) == "465 + 130*x + 10*x^2"
    assert str(ZERO) == "0"
    assert str(Polynomial((0, 1))) == "x"
    assert str(Polynomial((0, -1, 0, Fraction(1, 2)))) == "-x + 1/2*x^3"
    assert str(Polynomial((Fraction(-1, 30),))) == "-1/30"


def test_coefficient_strings():
    assert Polynomial((9450, 7560, 0, 7560)).coefficient_strings() == [
        "9450",
        "7560",
        "0",
        "7560",
    ]


def test_immutability():
    p = Polynomial((1, 2))
    with pytest.raises(AttributeError):
        p.coeffs = (3,)


def test_equal_polynomials_are_equal_keys():
    # Fraction(4, 2) is stored as the int 2, and trailing zeros are trimmed
    p, q = Polynomial((1, Fraction(4, 2), 0)), Polynomial([1, 2])
    assert p == q and hash(p) == hash(q)
    table = {p: "p"}
    table[q] = "q"
    assert table == {Polynomial((1, 2)): "q"}
    assert {ZERO: 0}[Polynomial([0, 0])] == 0


@given(st.lists(st.integers(-(10**30), 10**30) | st.sampled_from([0, -6, 12]), max_size=8))
@example([])
@example([0, 0])
@example([-6, 0, 9])
def test_split_content(cs):
    content, primitive = split_content(cs)
    assert [content * a for a in primitive] == cs
    if any(cs):
        assert content > 0 and math.gcd(*primitive) == 1
    else:
        assert content == 0
