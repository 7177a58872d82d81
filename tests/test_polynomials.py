import copy
import math
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from evenzeta.plane_trees import PlaneTree, tree_data
from evenzeta.polynomials import ZERO, Polynomial, split_content, taylor_shift
from evenzeta.symmetric import VariableSet
from evenzeta.trees import SequenceSpec, generalized_transform
from evenzeta.zeta import bernoulli_from_zeta

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


def normalized(cs):
    """The coefficient tuple as the coefficients themselves give it: trailing
    zeros trimmed, an integral value as an int, any other as a Fraction."""
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(c.numerator if c.denominator == 1 else c for c in cs)


def is_positive_scalar(c):
    return (type(c) is int or (type(c) is Fraction and c.denominator > 1)) and c > 0


@given(mixed_coeffs, mixed_coeffs)
@example([], [0, Fraction(0)])  # two spellings of zero
@example([Fraction(4, 2), -6], [2, Fraction(-12, 2), 0])
def test_pair_is_the_normalized_coefficients(cs, ds):
    p, q = Polynomial(cs), Polynomial(ds)
    assert p.coeffs == normalized(cs) and type(p.coeffs) is tuple
    assert_stored_form(p)
    if p:
        assert is_positive_scalar(p.content) and p.primitive[-1] != 0
        assert all(type(a) is int for a in p.primitive) and math.gcd(*p.primitive) == 1
        assert p.coeffs == tuple(p.content * a for a in p.primitive)
    else:
        assert (p.content, p.primitive) == (0, ())
    assert (p == q) is (normalized(cs) == normalized(ds))
    assert hash(p) == hash((p.content, p.primitive))
    if p == q:
        assert hash(p) == hash(q)


@pytest.mark.parametrize(
    "other",
    [True, False, 0.5, 2, Fraction(1, 2), Polynomial((3,))],
    ids=["True", "False", "0.5", "2", "Fraction(1, 2)", "Polynomial((3,))"],
)
def test_a_polynomial_has_no_arithmetic(other):
    # the routes compute on int lists: no number or polynomial is a factor or a term
    p = Polynomial((1, 2))
    for op in (
        lambda: p * other,
        lambda: other * p,
        lambda: p + other,
        lambda: other + p,
        lambda: p - other,
        lambda: other - p,
    ):
        with pytest.raises(TypeError):
            op()
    with pytest.raises(TypeError):
        -p


@pytest.mark.parametrize(
    "content, primitive, message",
    [
        (0, (1,), "content 0 is not a positive"),
        (-2, (1,), "content -2 is not a positive"),
        (Fraction(-1, 2), (1,), r"content Fraction\(-1, 2\) is not a positive"),
        (Fraction(0), (1,), r"content Fraction\(0, 1\) is not a positive"),
        (Fraction(-3), (1,), r"content Fraction\(-3, 1\) is not a positive"),
        (1, (), r"primitive part \(\) is not ints"),
        (1, (1, 0), r"primitive part \(1, 0\) is not ints"),
        (1, (1, True), r"primitive part \(1, True\) is not ints"),
        (1, (Fraction(1, 2), 1), "is not ints"),
        (1, (2, -4), r"primitive part \(2, -4\) is not ints of gcd 1, nonzero last"),
    ],
)
def test_from_parts_refuses_what_is_no_pair(content, primitive, message):
    with pytest.raises(ValueError, match=message):
        Polynomial.from_parts(content, primitive)


def test_from_parts_is_the_pair():
    p = Polynomial.from_parts(Fraction(6, 3), [-3, 0, 2])
    assert (p.content, p.primitive) == (2, (-3, 0, 2)) and type(p.content) is int
    assert p == Polynomial((-6, 0, 4)) and p.coeffs == (-6, 0, 4)
    assert p.degree == 2
    half = Polynomial.from_parts(Fraction(1, 2), (1, 2))
    assert half.coeffs == (Fraction(1, 2), 1) and half.evaluate(3) == Fraction(7, 2)


def test_pickle_and_copy_rebuild_through_the_check():
    for p in (Polynomial((1, 2)), Polynomial((Fraction(-3, 4), 0, 6)), ZERO, Polynomial((1,))):
        for copied in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
            assert type(copied) is Polynomial and copied == p
            assert (copied.content, copied.primitive) == (p.content, p.primitive)
    forged = object.__new__(Polynomial)
    object.__setattr__(forged, "content", 1)
    object.__setattr__(forged, "primitive", (2, 4))
    with pytest.raises(ValueError, match=r"^primitive part \(2, 4\) is not ints of gcd 1"):
        pickle.loads(pickle.dumps(forged))


def test_comparison_with_a_bool_is_false():
    # == compares pairs: a constant equals no scalar, and == does not raise
    assert (Polynomial((1,)) == True) is False  # noqa: E712
    assert (ZERO != False) is True  # noqa: E712
    assert (Polynomial((1,)) == 1) is False and (ZERO == 0) is False
    assert Polynomial((Fraction(1, 2),)) != Fraction(1, 2)


def test_zero_degree_sentinel():
    assert ZERO.degree is None
    assert Polynomial((1,)).degree == 0
    assert not ZERO
    assert ZERO.evaluate(Fraction(7, 3)) == 0


@given(polys, small_rationals)
def test_horner_matches_naive(p, x):
    assert p.evaluate(x) == naive_eval(p.coeffs, x)


@given(mixed_coeffs, mixed_coeffs, small_rationals)
def test_mixed_coefficients_match_fraction_reference(cs, ds, x):
    p, q = Polynomial(cs), Polynomial(ds)
    for r in (p, q):
        assert_stored_form(r)
    assert p.evaluate(x) == naive_eval(cs, x)
    assert q.evaluate(x) == naive_eval(ds, x)


def test_stored_form_examples():
    p = Polynomial((Fraction(65, 1), 60, Fraction(80, 2), Fraction(0)))
    assert p.coeffs == (65, 60, 40)
    assert all(type(c) is int for c in p.coeffs)
    assert repr(p) == "Polynomial([65, 60, 40])"
    assert type(p.evaluate(2)) is int
    # an integral coefficient is stored as an int, any other as a Fraction
    assert Polynomial((Fraction(-1, 2), Fraction(2, 2))).coeffs == (Fraction(-1, 2), 1)


# every input that must be an int or a Fraction, as a call on the value, by
# the name that its refusal states
EXACT_INPUTS = {
    "coefficient": lambda v: Polynomial((1, v)),
    "content": lambda v: Polynomial.from_parts(v, (1,)),
    "x0": lambda v: Polynomial((1, 2)).evaluate(v),
    "R_2": lambda v: SequenceSpec((3, v)),
    "variable": lambda v: VariableSet((1, v)),
    "coeff": lambda v: bernoulli_from_zeta(1, v),
}


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
        # each exact-value input refuses a float, a bool and a string; the case
        # binds the input's name and the value as its defaults
        *(
            pytest.param(
                lambda name=name, value=value: EXACT_INPUTS[name](value), id=f"{name}={value!r}"
            )
            for name in EXACT_INPUTS
            for value in (1.5, True, "1/3")
        ),
    ],
)
def test_inexact_values_are_rejected(make):
    with pytest.raises(TypeError) as refused:
        make()
    if make.__defaults__:  # an exact-value input names itself and the value, in these words
        name, value = make.__defaults__
        assert str(refused.value) == f"{name}={value!r} is not an int or a Fraction"


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


@pytest.mark.parametrize(
    "args, error, message",
    [
        (([1.5, 2], 2, 1), TypeError, "coeffs[0]=1.5 is not an int"),
        (([1, True], 2, 1), TypeError, "coeffs[1]=True is not an int"),
        (([1, Fraction(1, 2)], 2, 1), TypeError, "coeffs[1]=Fraction(1, 2) is not an int"),
        (([1, 2], 2.0, 1), TypeError, "a=2.0 is not an int"),
        (([1, 2], 1, True), TypeError, "b=True is not an int"),
        (([1, 2], 1, 1, Fraction(2)), TypeError, "d=Fraction(2, 1) is not an int"),
        (([1, 2], 1, 1, 0), ValueError, "d=0 is not positive"),
        (([], 1, 1, -2), ValueError, "d=-2 is not positive"),
    ],
)
def test_taylor_shift_refuses_what_it_cannot_shift(args, error, message):
    # the shift's int coefficients hold only for int A, B, D and coefficients, D >= 1
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        taylor_shift(*args)


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
    # a constant polynomial is its pair's key, never its scalar's
    for c in (3, Fraction(3, 2), Fraction(4, 2), -7, 0):
        const = Polynomial((c,))
        assert const != c and hash(const) == hash((const.content, const.primitive))
        assert const in {Polynomial([c, 0])} and c not in {const} and const not in {c}
    assert 0 not in {ZERO} and ZERO not in {0: "zero"}


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
