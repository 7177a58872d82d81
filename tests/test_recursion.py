import itertools
import math
import sys
import threading
from fractions import Fraction

import pytest

from evenzeta import recursion
from evenzeta.polynomials import ONE, Polynomial
from evenzeta.recursion import (
    apply_step,
    basis_coefficients,
    expand_basis,
    factor_product,
    numerator_polynomial,
    shifted_product_identity,
    translated_polynomial,
    zeta_numerator,
)
from evenzeta.trees import expand_step

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


def test_factor_product_examples():
    assert factor_product((), 5) == ONE
    assert factor_product((1,), 2) == Polynomial((-1, 2))
    assert factor_product((1, 2), 3) == Polynomial((3, -8, 4))


def test_apply_step_base_case():
    assert apply_step(ONE, 1) == ONE


def test_apply_step_reproduces_published_translations():
    p3 = apply_step(ONE, 2)
    assert p3.compose_affine(Fraction(1, 2), Fraction(3, 2)) == Polynomial((7, 1))
    p4 = apply_step(p3, 3)
    assert p4.compose_affine(Fraction(1, 2), Fraction(5, 2)) == Polynomial((465, 130, 10))


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
    # the cache grows its rising product one factor per step; apply_step
    # rebuilds it with factor_product, so a wrong update shows here
    for k in range(1, 61):
        assert apply_step(numerator_polynomial(k), k) == numerator_polynomial(k + 1)


def test_cold_cache_under_threads(monkeypatch):
    # the cache and its rising product grow under one lock: threads racing
    # on a cold cache must build the same polynomials as one caller did
    expected = {k: numerator_polynomial(k) for k in range(1, 41)}
    monkeypatch.setattr(recursion, "_parts", [(1, ONE), (1, ONE)])
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
    assert [g * p for g, p in recursion._parts] == [ONE] + [expected[k] for k in range(1, 41)]


def test_zeta_numerator_matches_the_built_polynomial():
    # zeta_numerator evaluates the primitive part and scales the value;
    # numerator_polynomial scales every coefficient first
    for k in range(1, 121):
        assert zeta_numerator(k) == numerator_polynomial(k).evaluate(k)


def test_cached_parts_are_content_times_primitive():
    numerator_polynomial(120)
    for content, primitive in recursion._parts[1:121]:
        assert type(content) is int and content > 0
        assert math.gcd(*primitive.coeffs) == 1
        assert all(type(c) is int for c in primitive.coeffs)


def test_cache_holds_a_fraction_of_the_full_polynomials():
    # the content, shared by every coefficient of P_k, is stored once
    def bits(poly):
        return sum(abs(c).bit_length() for c in poly.coeffs)

    full = [bits(numerator_polynomial(k)) for k in range(1, 101)]
    cached = [g.bit_length() + bits(p) for g, p in recursion._parts[1:101]]
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


def test_expand_step_domain_error():
    # positions must be distinct and lie in 1..k-2
    for s in ([3], [2, 2], [0, 1]):
        with pytest.raises(ValueError):
            expand_step(s, 4)


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
