import itertools
import math
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from evenzeta import recursion
from evenzeta.polynomials import ONE, InexactDivisionError, Polynomial
from evenzeta.recursion import (
    basis_coefficients,
    expand_basis,
    numerator_parts,
    numerator_polynomial,
    shifted_product_identity,
    translated_polynomial,
    zeta_numerator,
)
from evenzeta.trees import _replay_step

# the published opening of the integer sequence
SEQUENCE = [
    1,
    1,
    10,
    945,
    992250,
    13575766050,
    2787683360962500,
    9732664704199465153125,
]


# Short references for the tests, sharing no code with the package's step
# (recursion._entry) or shift (polynomials.taylor_shift).


def factor_product(positions, k):
    """prod_{n in positions} (2x - 2k + 2n+1), on Polynomial arithmetic."""
    out = ONE
    for n in positions:
        out = out * Polynomial((2 * n + 1 - 2 * k, 2))
    return out


def apply_step(f, k):
    """The paper's k-th step operator, written out:
    [f(k) * prod_{i=1}^{k} (2x - 2k + 2i+1) - f(x) * (2k+1)!!] / (2x - 2k)."""
    odd = math.prod(range(3, 2 * k + 2, 2))  # (2k+1)!!
    bracket = f.evaluate(k) * factor_product(range(1, k + 1), k) - odd * f
    quotient, acc = [], 0  # synthetic division by (x - k), from the top
    for c in reversed(bracket.coeffs):
        acc = acc * k + c
        quotient.append(acc)
    assert quotient.pop() == 0  # the remainder
    return Polynomial(reversed(quotient)) * Fraction(1, 2)


def expand_step(s, k):
    """The replay step of the tree route on the positions s, as one
    (weight, sorted low positions) term per count j of smallest picks."""
    s1 = {n + 1 for n in s}
    return [
        (math.prod(2 * n + 1 for n in high), tuple(sorted(low)))
        for low, high in (_replay_step(s1, k, j) for j in range(k - len(s)))
    ]


def halved_at_points(poly, a, b):
    """2^n * poly((a*x + b)/2) at x = 0..n, n = deg(poly), as many points as
    fix a polynomial of degree n: Horner (Polynomial.evaluate) at the int
    a*x + b on the coefficients poly_i * 2^(n-i), for ints a and b."""
    n = len(poly.coeffs) - 1
    scaled = Polynomial(c * 2 ** (n - i) for i, c in enumerate(poly.coeffs))
    return [scaled.evaluate(a * x + b) for x in range(n + 1)]


def test_factor_product_examples():
    assert factor_product((), 5) == ONE
    assert factor_product((1,), 2) == Polynomial((-1, 2))
    assert factor_product((1, 2), 3) == Polynomial((3, -8, 4))


def test_apply_step_base_case():
    assert apply_step(ONE, 1) == ONE


def test_apply_step_reproduces_published_translations():
    # the reference is checked against the paper's values before it checks the cache
    p3 = apply_step(ONE, 2)
    assert [p3.evaluate(Fraction(x + 3, 2)) for x in range(2)] == [7, 8]  # 7 + x
    p4 = apply_step(p3, 3)
    # 465 + 130x + 10x^2
    assert [p4.evaluate(Fraction(x + 5, 2)) for x in range(3)] == [465, 605, 765]


def test_numerator_polynomial_values():
    assert numerator_polynomial(1) == ONE
    assert numerator_polynomial(2) == ONE
    assert translated_polynomial(5, half_scale=True) == Polynomial(
        (360045, 142695, 19845, 945)
    )
    # leading coefficient relation at k = 6
    assert numerator_polynomial(6).coeffs[-1] == 992250 * 2**4


def test_published_sequence():
    for k, expected in enumerate(SEQUENCE, start=1):
        assert zeta_numerator(k) == expected


def test_numerator_polynomials_keep_integer_coefficients():
    for k in range(1, 61):
        assert all(type(c) is int for c in numerator_polynomial(k).coeffs)


def test_cached_steps_match_apply_step():
    # the cache grows its rising product one factor per step and divides in
    # the same pass; the reference writes the operator out, so a wrong
    # update shows here
    for k in range(1, 61):
        assert apply_step(numerator_polynomial(k), k) == numerator_polynomial(k + 1)


def test_cold_cache_under_threads(monkeypatch):
    # the cache and its rising product grow under one lock: threads racing
    # on a cold cache must build the same polynomials as one caller did
    expected = {k: numerator_polynomial(k) for k in range(1, 41)}
    monkeypatch.setattr(recursion, "_parts", [(1, ONE, 1), (1, ONE, 1)])
    monkeypatch.setattr(recursion, "_rising", [1])
    got = {}

    def build(k):
        got[k] = numerator_polynomial(k)

    ks = range(40, 0, -5)
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
    assert [g * p for g, p, _ in recursion._parts] == [ONE] + [expected[k] for k in range(1, 41)]
    assert [g * v for g, _, v in recursion._parts[1:]] == [p.evaluate(k) for k, p in expected.items()]


def test_zeta_numerator_matches_the_built_polynomial():
    # zeta_numerator evaluates the primitive part and scales the value;
    # numerator_polynomial scales every coefficient first
    for k in range(1, 121):
        assert zeta_numerator(k) == numerator_polynomial(k).evaluate(k)


def test_cached_parts_are_content_times_primitive():
    numerator_polynomial(120)
    for content, primitive, _ in recursion._parts[1:121]:
        assert type(content) is int and content > 0
        assert math.gcd(*primitive.coeffs) == 1
        assert all(type(c) is int for c in primitive.coeffs)


def test_cached_values_are_the_primitive_part_at_k():
    # the step takes p_k(k) by Horner as it fills p_k; the next step and
    # zeta_numerator both read it from the entry
    numerator_polynomial(120)
    for k, (_, primitive, value) in enumerate(recursion._parts[1:121], start=1):
        assert type(value) is int and value == primitive.evaluate(k)


def test_numerator_parts_read_the_cache():
    for k in (1, 2, 7, 60):
        content, primitive = numerator_parts(k)
        assert (content, primitive) == recursion._parts[k][:2]
        assert primitive * content == numerator_polynomial(k)


def test_wrong_double_factorial_makes_the_step_raise(monkeypatch):
    # on a cold cache the bracket of step 5 does not vanish at x = 5: the step
    # raises and commits nothing, and the cache grows on correctly afterwards
    expected = [zeta_numerator(k) for k in range(1, 11)]
    monkeypatch.setattr(recursion, "_parts", [(1, ONE, 1), (1, ONE, 1)])
    monkeypatch.setattr(recursion, "_rising", [1])
    right = recursion.double_factorial_odd
    monkeypatch.setattr(
        recursion, "double_factorial_odd", lambda j: right(j) + 2 if j == 5 else right(j)
    )
    with pytest.raises(InexactDivisionError, match=r"dividing by \(x - 5\); expected exact"):
        zeta_numerator(10)
    assert len(recursion._parts) == 6 and len(recursion._rising) == 5
    monkeypatch.setattr(recursion, "double_factorial_odd", right)
    assert [zeta_numerator(k) for k in range(1, 11)] == expected


@pytest.mark.parametrize("half_scale", [False, True])
def test_translated_polynomial_is_the_full_shift(half_scale):
    # translated(x) = P_k(a*x + k - 3/2) = P_k((2a*x + 2k - 3)/2) at deg + 1 points
    a2 = 1 if half_scale else 2
    for k in range(1, 81):
        translated, full = translated_polynomial(k, half_scale=half_scale), numerator_polynomial(k)
        assert all(type(c) is int for c in translated.coeffs)
        assert translated.degree == full.degree
        assert halved_at_points(translated, 2, 0) == halved_at_points(full, a2, 2 * k - 3)


@given(
    st.integers(1, 2**40),
    st.lists(st.integers(-(2**20), 2**20), min_size=1, max_size=8).filter(lambda cs: cs[-1]),
    st.integers(1, 40),
    st.booleans(),
)
@example(1, [1, 1, 1], 3, True)  # 2^2 does not divide every shifted coefficient
@example(2**9 * 3, [5, -1, 2], 4, False)  # the content's twos outnumber 2^n
def test_translated_polynomial_of_any_parts(content, coeffs, k, half_scale):
    # integer shifting, cancelling twos and the exact Fraction fallback all
    # agree with the full polynomial at the shifted points
    primitive = Polynomial(coeffs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recursion, "numerator_parts", lambda _: (content, primitive))
        got = translated_polynomial(k, half_scale=half_scale)
    a2 = 1 if half_scale else 2
    assert got.degree == primitive.degree
    assert halved_at_points(got, 2, 0) == halved_at_points(primitive * content, a2, 2 * k - 3)
    for c in got.coeffs:
        assert type(c) is int or c.denominator > 1


def test_cache_holds_a_fraction_of_the_full_polynomials():
    # the content, shared by every coefficient of P_k, is stored once
    def bits(poly):
        return sum(abs(c).bit_length() for c in poly.coeffs)

    full = [bits(numerator_polynomial(k)) for k in range(1, 101)]
    cached = [g.bit_length() + bits(p) for g, p, _ in recursion._parts[1:101]]
    assert cached[-1] < full[-1] / 10
    assert sum(cached) < sum(full) / 10


def test_degree_and_leading_coefficient():
    for k in range(2, 13):
        poly = numerator_polynomial(k)
        assert poly.degree == k - 2
        assert poly.coeffs[-1] == zeta_numerator(k - 1) * 2 ** (k - 2)


def test_translated_positivity():
    assert translated_polynomial(2) == ONE
    assert translated_polynomial(3) == Polynomial((7, 2))
    assert translated_polynomial(3, half_scale=True) == Polynomial((7, 1))
    for k in range(1, 16):
        assert all(c > 0 for c in translated_polynomial(k).coeffs)


def test_expand_step_first_term_is_shift():
    for k in range(2, 7):
        for s in _subsets(k):
            terms = expand_step(s, k)
            assert len(terms) == k - len(s)
            _, low0 = terms[0]
            assert low0 == tuple(n + 1 for n in s)


def _subsets(k):
    base = range(1, k - 1)
    for r in range(len(base) + 1):
        yield from itertools.combinations(base, r)


@pytest.mark.parametrize("k", range(2, 11))
def test_expand_step_matches_operator(k):
    # polynomial-identity oracle: assembled expansion == direct operator action
    for s in _subsets(k):
        assembled = Polynomial()
        for weight, low in expand_step(s, k):
            assembled = assembled + weight * factor_product(low, k)
        assert assembled == apply_step(factor_product(s, k - 1), k)


def test_basis_coefficients_seed():
    assert basis_coefficients(2) == (Fraction(1),)


@pytest.mark.parametrize("k", [3, 4, 7, 10])
def test_basis_expansion_matches_recursion(k):
    coeffs = basis_coefficients(k)
    assert len(coeffs) == k - 1
    assert expand_basis(coeffs, k) == numerator_polynomial(k)


def test_basis_coefficients_observed_integrality():
    # the recurrence runs on ints, so every coefficient is a positive int
    for k in range(2, 41):
        for c in basis_coefficients(k):
            assert type(c) is int and c > 0


@pytest.mark.parametrize("n", range(0, 9))
def test_shifted_product_identity(n):
    assert shifted_product_identity(n)


def test_bounds():
    with pytest.raises(ValueError):
        numerator_polynomial(0)
    with pytest.raises(ValueError):
        basis_coefficients(1)
