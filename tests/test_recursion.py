import itertools
import math
import re
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from evenzeta import basis, recursion, verify
from evenzeta.basis import BASIS_COEFFICIENTS_MAX, basis_coefficients, expand_basis
from evenzeta.plane_trees import _replay_step
from evenzeta.polynomials import Polynomial
from evenzeta.rationals import ConsistencyError
from evenzeta.recursion import (
    numerator_polynomial,
    translated_polynomial,
    zeta_numerator,
)

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
# (recursion._entry) or shift (polynomials.taylor_shift).  Polynomials are
# ascending int lists here, added and multiplied by add and mul.


def add(a, b):
    """The sum of two ascending coefficient lists."""
    if len(a) < len(b):
        a, b = b, a
    return [c + (b[i] if i < len(b) else 0) for i, c in enumerate(a)]


def mul(a, b):
    """The product of two ascending coefficient lists, by schoolbook multiplication."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] += c * d
    return out


def factor_product(positions, k):
    """prod_{n in positions} (2x - 2k + 2n+1), as an ascending int list."""
    out = [1]
    for n in positions:
        out = mul(out, [2 * n + 1 - 2 * k, 2])
    return out


def apply_step(f, k):
    """The paper's k-th step operator on the ascending int list f, written out:
    [f(k) * prod_{i=1}^{k} (2x - 2k + 2i+1) - f(x) * (2k+1)!!] / (2x - 2k)."""
    odd = math.prod(range(3, 2 * k + 2, 2))  # (2k+1)!!
    fk = sum(c * k**i for i, c in enumerate(f))
    bracket = add([fk * c for c in factor_product(range(1, k + 1), k)], [-odd * c for c in f])
    quotient, acc = [], 0  # synthetic division by (x - k), from the top
    for c in reversed(bracket):
        acc = acc * k + c
        quotient.append(acc)
    assert quotient.pop() == 0  # the remainder
    return Polynomial(Fraction(c, 2) for c in reversed(quotient))


def expand_basis_reference(coeffs, k):
    """sum_i c_i * prod_{j=1}^{i} (2x - 2(k-1) + 2j+1), on int lists in x."""
    out = []
    for i, c in enumerate(coeffs):
        out = add(out, [c * a for a in factor_product(range(1, i + 1), k - 1)])
    return Polynomial(out)


def basis_coefficients_reference(k):
    """The nested-product coefficients c_0..c_{k-2} of P_k as full ints, by the
    recurrence of basis.basis_coefficients run from c_{0,2} = 1 for this k
    alone: three passes per step, each step's content split off and
    multiplied back at the end."""
    odd = [math.prod(range(3, 2 * n + 2, 2)) for n in range(k - 1)]  # (2n+1)!!
    content, s = 1, [1]
    for cur in range(2, k):
        s.append(0)
        for n in range(cur - 2, -1, -1):
            s[n] += 2 * (n + 1) * s[n + 1]
        total = 0
        for n in range(cur):
            total += odd[n] * s[n]
            s[n] = total
        suffix = 1
        for i in range(cur - 1, -1, -1):
            s[i] *= suffix
            suffix *= 2 * i + 3
        divisor = math.gcd(*s)
        content, s = content * divisor, [c // divisor for c in s]
    return tuple(c * content for c in s)


def shifted_product_identity_reference(n):
    """sum_{i=0}^{n} 2^(n-i) * n!/i! * prod_{j=1}^{i} (u + 2j+1), the closed
    form of prod_{i=1}^{n} (u + 2i+3) behind the recurrence of
    basis.basis_coefficients, as an ascending int list in u."""
    out, b = [], [1]
    for i in range(n + 1):
        if i:
            b = mul(b, [2 * i + 1, 1])
        out = add(out, [2 ** (n - i) * math.factorial(n) // math.factorial(i) * c for c in b])
    return out


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
    assert factor_product((), 5) == [1]
    assert factor_product((1,), 2) == [-1, 2]
    assert factor_product((1, 2), 3) == [3, -8, 4]
    assert add([1, 2], [3]) == [4, 2] and add([], [5, 0]) == [5, 0]
    assert mul([-1, 2], [1, 2]) == [-1, 0, 4] and mul([1, 2], []) == []


def test_apply_step_base_case():
    assert apply_step([1], 1) == Polynomial((1,))


def test_apply_step_reproduces_published_translations():
    # the reference is checked against the paper's values before it checks the cache
    p3 = apply_step([1], 2)
    assert [p3.evaluate(Fraction(x + 3, 2)) for x in range(2)] == [7, 8]  # 7 + x
    p4 = apply_step(p3.coeffs, 3)
    # 465 + 130x + 10x^2
    assert [p4.evaluate(Fraction(x + 5, 2)) for x in range(3)] == [465, 605, 765]


def test_numerator_polynomial_values():
    assert numerator_polynomial(1) == Polynomial((1,))
    assert numerator_polynomial(2) == Polynomial((1,))
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
        assert apply_step(numerator_polynomial(k).coeffs, k) == numerator_polynomial(k + 1)


def test_cold_cache_under_threads(monkeypatch):
    # the cache and its rising product grow under one lock: threads racing
    # on a cold cache must build the same polynomials as one caller did
    expected = {k: numerator_polynomial(k) for k in range(1, 41)}
    monkeypatch.setattr(recursion, "_parts", [(1, (1,), 1), (1, (1,), 1)])
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
    built = [Polynomial.from_parts(g, p) for g, p, _ in recursion._parts]
    assert built == [Polynomial((1,))] + [expected[k] for k in range(1, 41)]
    assert [g * v for g, _, v in recursion._parts[1:]] == [p.evaluate(k) for k, p in expected.items()]


def test_zeta_numerator_matches_the_built_polynomial():
    # zeta_numerator scales the cached value; Polynomial.evaluate runs Horner
    # on the primitive part; the reference sums the full coefficients' terms
    for k in range(1, 121):
        poly = numerator_polynomial(k)
        assert zeta_numerator(k) == poly.evaluate(k)
        assert zeta_numerator(k) == sum(c * k**i for i, c in enumerate(poly.coeffs))


def test_cached_parts_are_content_times_primitive():
    numerator_polynomial(120)
    for content, primitive, _ in recursion._parts[1:121]:
        assert type(content) is int and content > 0
        assert type(primitive) is tuple and math.gcd(*primitive) == 1
        assert all(type(c) is int for c in primitive)


def test_cached_values_are_the_primitive_part_at_k():
    # the step takes p_k(k) by Horner as it fills p_k; the next step and
    # zeta_numerator both read it from the entry
    numerator_polynomial(120)
    for k, (_, primitive, value) in enumerate(recursion._parts[1:121], start=1):
        assert type(value) is int and value == sum(a * k**i for i, a in enumerate(primitive))


def test_numerator_polynomial_is_the_cached_pair():
    for k in (1, 2, 7, 60):
        poly = numerator_polynomial(k)
        assert (poly.content, poly.primitive) == recursion._parts[k][:2]
        content, primitive, _ = recursion._parts[k]
        assert poly.coeffs == tuple(content * a for a in primitive)


def test_odd_content_makes_the_step_raise(monkeypatch):
    # on a cold cache, a step whose g * c is odd would give P_2 a half-integer
    # coefficient: it raises and commits nothing
    monkeypatch.setattr(recursion, "_parts", [(1, (1,), 1), (1, (1,), 1)])
    monkeypatch.setattr(recursion, "_rising", [1])
    monkeypatch.setattr(recursion, "split_content", lambda q: (1, q))
    with pytest.raises(ConsistencyError, match="P_2 has a non-integer coefficient"):
        zeta_numerator(2)
    assert len(recursion._parts) == 2 and recursion._rising == [1]


def test_value_that_is_not_positive_raises(monkeypatch):
    monkeypatch.setattr(recursion, "_parts", [(1, (1,), 1), (1, (1,), -1)])
    with pytest.raises(ConsistencyError, match="positive integer at k=1, got -1"):
        zeta_numerator(1)


def test_wrong_double_factorial_makes_the_step_raise(monkeypatch):
    # on a cold cache the bracket of step 5 does not vanish at x = 5: the step
    # raises and commits nothing, and the cache grows on correctly afterwards
    expected = [zeta_numerator(k) for k in range(1, 11)]
    monkeypatch.setattr(recursion, "_parts", [(1, (1,), 1), (1, (1,), 1)])
    monkeypatch.setattr(recursion, "_rising", [1])
    right = recursion.double_factorial_odd
    monkeypatch.setattr(
        recursion, "double_factorial_odd", lambda j: right(j) + 2 if j == 5 else right(j)
    )
    with pytest.raises(ConsistencyError, match=r"dividing by \(x - 5\); expected exact"):
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
    # the integer shift, its content and a content that 2^n does not divide
    # all agree with the full polynomial at the shifted points
    full = Polynomial([content * c for c in coeffs])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recursion, "numerator_polynomial", lambda _: full)
        got = translated_polynomial(k, half_scale=half_scale)
    a2 = 1 if half_scale else 2
    assert got.degree == full.degree
    assert halved_at_points(got, 2, 0) == halved_at_points(full, a2, 2 * k - 3)
    for c in got.coeffs:
        assert type(c) is int or c.denominator > 1


def test_cache_holds_a_fraction_of_the_full_polynomials():
    # the content, shared by every coefficient of P_k, is stored once
    def bits(coeffs):
        return sum(abs(c).bit_length() for c in coeffs)

    full = [bits(numerator_polynomial(k).coeffs) for k in range(1, 101)]
    cached = [g.bit_length() + bits(p) for g, p, _ in recursion._parts[1:101]]
    assert cached[-1] < full[-1] / 10
    assert sum(cached) < sum(full) / 10


def test_degree_and_leading_coefficient():
    for k in range(2, 13):
        poly = numerator_polynomial(k)
        assert poly.degree == k - 2
        assert poly.coeffs[-1] == zeta_numerator(k - 1) * 2 ** (k - 2)


def test_translated_positivity():
    assert translated_polynomial(2) == Polynomial((1,))
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
        assembled = []
        for weight, low in expand_step(s, k):
            assembled = add(assembled, [weight * a for a in factor_product(low, k)])
        assert Polynomial(assembled) == apply_step(factor_product(s, k - 1), k)


def test_basis_coefficients_seed():
    assert basis_coefficients(2) == Polynomial((1,))


@pytest.mark.parametrize("k", [3, 4, 7, 10])
def test_basis_expansion_matches_recursion(k):
    basis = basis_coefficients(k)
    assert basis.degree == k - 2
    assert expand_basis(basis, k) == numerator_polynomial(k)


@pytest.mark.parametrize("k", [*range(2, 121), 200, 280])
def test_basis_coefficients_match_reference(k):
    # the cached rows, read as full coefficients, against the recurrence run
    # from scratch for this k alone
    assert basis_coefficients(k).coeffs == basis_coefficients_reference(k)


def test_cold_basis_cache_in_any_order(monkeypatch):
    # each step grows the cache under the lock from a copy of the last row:
    # calls in descending order, and threads racing on a cold cache, must
    # build the same pairs as one ascending caller did
    expected = {k: basis_coefficients(k) for k in range(2, 41)}
    cold = [(1, (1,))] * 3
    monkeypatch.setattr(basis, "_basis", list(cold))
    assert {k: basis_coefficients(k) for k in range(40, 1, -1)} == expected
    monkeypatch.setattr(basis, "_basis", list(cold))
    got = {}

    def build(k):
        got[k] = basis_coefficients(k)

    ks = (40, 31, 22, 13)
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
    pairs = [(p.content, p.primitive) for p in expected.values()]
    assert basis._basis[2:] == pairs


@given(
    st.lists(
        st.one_of(
            st.integers(-(2**40), 2**40),
            st.fractions(-(2**20), 2**20, max_denominator=2**20),
        ),
        max_size=10,
    ),
    st.integers(-20, 260),
)
@example([], 2)
@example([0, 0], 5)
@example([Fraction(1, 3), 0, Fraction(-5, 6)], 4)
def test_expand_basis_matches_reference(coeffs, k):
    # the Horner sum in x against the product of linear factors in x; the
    # map is linear, so Fraction coefficients scale only the content
    got = expand_basis(Polynomial(coeffs), k)
    assert got == expand_basis_reference(coeffs, k)
    if all(type(c) is int for c in coeffs):
        assert all(type(c) is int for c in got.coeffs)


@pytest.mark.parametrize(
    "coeffs, k, error, message",
    [
        ((1, 2), 3, TypeError, "basis is a tuple, not a Polynomial"),
        ([1, 2], 3, TypeError, "basis is a list, not a Polynomial"),
        (Fraction(2), 3, TypeError, "basis is a Fraction, not a Polynomial"),
        (Polynomial([1, 2]), 3.0, TypeError, "k=3.0 is not an int"),
        (Polynomial([1, 2]), True, TypeError, "k=True is not an int"),
        (
            Polynomial([1] * BASIS_COEFFICIENTS_MAX),
            3,
            ValueError,
            f"len(basis.primitive)={BASIS_COEFFICIENTS_MAX} outside 0..{BASIS_COEFFICIENTS_MAX - 1}",
        ),
    ],
)
def test_expand_basis_refuses_bad_input(monkeypatch, coeffs, k, error, message):
    # refused with a message that names the input, before any arithmetic
    def no_arithmetic(*args):
        raise AssertionError("expand_basis did arithmetic on a refused input")

    monkeypatch.setattr(basis, "_nested_sum", no_arithmetic)
    monkeypatch.setattr(basis, "split_content", no_arithmetic)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        expand_basis(coeffs, k)


def test_basis_coefficients_observed_integrality():
    # the recurrence runs on ints, so every coefficient is a positive int,
    # and each cached row is a positive content and a primitive part of
    # positive ints with gcd 1
    for k in range(2, 41):
        assert all(type(c) is int and c > 0 for c in basis_coefficients(k).coeffs)
    for content, primitive in basis._basis[2:41]:
        assert type(content) is int and content > 0
        assert type(primitive) is tuple and math.gcd(*primitive) == 1
        assert all(type(c) is int and c > 0 for c in primitive)


def test_basis_gives_positivity_in_the_translated_frame():
    # the paper's positivity through the basis: at x/2 + k - 3/2 the basis
    # element prod_{j<=i} (2x - 2(k-1) + 2j+1) is prod_{j<=i} (x + 2j), so
    # the content times sum_i c_i * prod_{j<=i} (x + 2j), a sum of positive
    # terms, is the half-scale translated polynomial
    for k in range(2, 61):
        basis = basis_coefficients(k)
        assert all(c > 0 for c in basis.primitive), k
        frame = [basis.primitive[-1]]
        for i in range(len(basis.primitive) - 2, -1, -1):  # Horner from the top
            frame = add(mul(frame, [2 * (i + 1), 1]), [basis.primitive[i]])
        assert Polynomial([basis.content * c for c in frame]) == translated_polynomial(
            k, half_scale=True
        ), k


@pytest.mark.parametrize("n", range(0, 41))
def test_shifted_product_identity(n):
    # the lemma-2ni suite grows both sides one factor per n; at each n of a
    # run to 40 both equal the closed form
    name, lhs, rhs = list(verify._suite_lemma_2ni(40))[n]
    assert name == f"shifted product identity n={n}"
    assert lhs == rhs == shifted_product_identity_reference(n)


def test_bounds():
    with pytest.raises(ValueError):
        numerator_polynomial(0)
    with pytest.raises(ValueError):
        basis_coefficients(1)
