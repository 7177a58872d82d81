"""The operator recursion behind the even zeta values.

A family of step operators turns the constant polynomial 1 into a sequence
of integer-coefficient polynomials; evaluating the k-th polynomial at x = k
yields the positive integer that is the numerator of 2*zeta(2k)/pi^(2k)
over the double-factorial tower prod_{i<=k} (2i+1)!!.

The k-th step operator maps f to

    [ f(k) * prod_{i=1}^{k} (2x - 2k + 2i+1)  -  f(x) * prod_{i=1}^{k} (2i+1) ] / (2x - 2k)

and the numerator always vanishes at x = k, so the division is exact.

The cache keeps each P_k as g_k * p_k: its content g_k, the gcd of its
coefficients, and its primitive part p_k.  The tower puts a large common
factor into every coefficient (at k = 127 the content is 46.0k of the
coefficients' 47.9k bits), so the steps run on p_k alone.  The split is
exact because the operator is linear in f: the step of g * p is g times
the step of p.  With R_k = prod_{i=1}^{k} (2x - 2k + 2i+1), the step forms

    q = [p(k) * R_k - (2k+1)!! * p] / (x - k)

on ints, and with c = gcd(q), P_{k+1} = (g * c / 2) * (q / c); g * c is
even because P_{k+1} has integer coefficients, and an odd one raises
ConsistencyError.  Most of c is h = gcd(p(k), (2k+1)!!): it divides every
coefficient of the bracket, and so of q since x - k is monic.  The step
divides p(k) and (2k+1)!! by h before the products and takes the gcd of
what is left, a few bits.

The step is one backward pass over the coefficients, from the top: it
grows R_k = (2x - 2k + 3) * R_{k-1} by one linear factor, forms the
bracket coefficient, and divides by (x - k) synthetically, which yields q
from the top down, so the same pass evaluates q at k + 1 by Horner.  A
nonzero remainder raises InexactDivisionError.  Each cache entry holds
g_k, p_k and the value p_k(k), which is both the next step's p(k) and
what zeta_numerator scales by g_k.  The cache's step (_entry) is the only
implementation of the operator in the package.  translated_polynomial and
expand_basis shift with polynomials.taylor_shift, the package's only
affine substitution; the basis half runs on int lists too.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from typing import Iterable

from .polynomials import ONE, InexactDivisionError, Polynomial, split_content, taylor_shift
from .rationals import check_index, double_factorial_odd

__all__ = [
    "ConsistencyError",
    "numerator_parts",
    "numerator_polynomial",
    "zeta_numerator",
    "translated_polynomial",
    "basis_coefficients",
    "expand_basis",
    "shifted_product_identity",
    "RECURSION_MAX",
    "BASIS_COEFFICIENTS_MAX",
]

# Largest k of the recursion route: one cold call within about 4.5 s in a
# fresh process (2-vCPU host, Python 3.11.7; README has the ranges).
# RECURSION_MAX bounds the cache, and through it
# numerator_parts, numerator_polynomial, zeta_numerator,
# zeta.zeta_even_rational, translated_polynomial (0.46-0.63 s at 260 with
# half_scale=True) and the n of zeta's Newton partial sums:
# newton_partial_sum(260, 2000) took 0.70-0.76 s (bounds lifted, 300:
# 1.3-1.6 s, 400: 4.3-4.5 s), 1.9-2.4 s on the same host when the tower was
# rebuilt for each i < n.
# BASIS_COEFFICIENTS_MAX bounds basis_coefficients (280: 1.7-1.8 s; 330: 3.4-3.5 s)
# and shifted_product_identity, the identity behind its recurrence; the
# lemma-2ni suite, which checks every n up to it, binds it: 2.1-2.8 s at 280 (300: 4.0 s).
RECURSION_MAX = 260
BASIS_COEFFICIENTS_MAX = 280


class ConsistencyError(RuntimeError):
    """An internal invariant failed (e.g. a value that must be a positive integer is not)."""


_cache_lock = threading.Lock()
# P_j = g_j * p_j as the entry (g_j, p_j, p_j(j)) for j = 0 (unused), 1, 2,
# ...: the content g_j > 0 (the gcd of P_j's coefficients), the primitive
# part p_j and its value at x = j.
_parts: list[tuple[int, Polynomial, int]] = [(1, ONE, 1), (1, ONE, 1)]
# The rising product R_j = prod_{i=1}^{j} (2x - 2j + 2i+1) of the last step
# taken, j = len(_parts) - 2, as ascending int coefficients (R_0 = 1).
_rising: list[int] = [1]


def _entry(k: int) -> tuple[int, Polynomial, int]:
    """(g_k, p_k, p_k(k)) with P_k = g_k * p_k, growing the cache to k.

    Each step is one backward pass (module docstring) with a = p_j(j)/h and
    b = (2j+1)!!/h: O(j) operations on integers of a few thousand bits.  It
    grows a copy of the rising product and commits it with its entry, so a
    step that raises leaves the cache as it was.
    """
    global _rising
    check_index(k, 1, RECURSION_MAX)
    with _cache_lock:
        while len(_parts) <= k:
            j = len(_parts) - 1
            content, primitive, fj = _parts[j]
            odd = double_factorial_odd(j)
            shared = math.gcd(fj, odd)
            a, b, c = fj // shared, odd // shared, 3 - 2 * j
            p, m = primitive.coeffs, len(primitive.coeffs)
            rising, q = _rising + [0], [0] * j
            acc = value = 0  # value: q(j + 1) by Horner, as q fills from the top
            for i in range(j, 0, -1):
                r = rising[i] = c * rising[i] + 2 * rising[i - 1]
                acc = acc * j + a * r - (b * p[i] if i < m else 0)
                q[i - 1] = acc
                value = value * (j + 1) + acc
            rising[0] *= c
            acc = acc * j + a * rising[0] - b * p[0]
            if acc:
                raise InexactDivisionError(
                    f"remainder {acc} dividing by (x - {j}); expected exact division"
                )
            divisor, q = split_content(q)
            content *= shared * divisor
            if content & 1:
                raise ConsistencyError(f"P_{j + 1} has a non-integer coefficient")
            _parts.append((content >> 1, Polynomial(q), value // divisor))
            _rising = rising
        return _parts[k]


def numerator_parts(k: int) -> tuple[int, Polynomial]:
    """(g_k, p_k): the content and primitive part of the k-th polynomial, P_k =
    g_k * p_k, from the cache, for k within 1..RECURSION_MAX.  Read these
    where a degree, a leading coefficient or a value is all that is needed."""
    content, primitive, _ = _entry(k)
    return content, primitive


def numerator_polynomial(k: int) -> Polynomial:
    """The k-th polynomial of the recursion (degree k-2), k within 1..RECURSION_MAX.

    Built on each call as g_k * p_k from its cached content and primitive
    part (module docstring): the content is exact because the step is linear
    in f, and P_k's coefficients are integers.
    """
    content, primitive = numerator_parts(k)
    return primitive * content


def zeta_numerator(k: int) -> int:
    """The positive integer value of the k-th polynomial at x = k, k within 1..RECURSION_MAX."""
    content, _, value = _entry(k)
    value *= content
    if value <= 0:
        raise ConsistencyError(f"expected a positive integer at k={k}, got {value}")
    return value


def translated_polynomial(k: int, *, half_scale: bool = False) -> Polynomial:
    """The k-th polynomial shifted to x + k - 3/2, where all coefficients are positive.

    With half_scale the variable is additionally rescaled to x/2, the form
    in which the small cases are usually displayed.  k is within 1..RECURSION_MAX.

    The shift runs on the primitive part p_k of degree n, as the int Taylor
    shift 2^n * p_k((A*x + 2k - 3)/2) with A = 1 or 2.  The content's factors
    of 2 cancel against 2^n, what is left of 2^n is shifted out, and the
    rest of the content multiplies each coefficient once; a coefficient that
    2^n does not divide becomes an exact Fraction.
    """
    content, primitive = numerator_parts(k)
    n = len(primitive.coeffs) - 1
    shifted = taylor_shift(primitive.coeffs, 1 if half_scale else 2, 2 * k - 3, 2)
    twos = min((content & -content).bit_length() - 1, n)  # 2^twos divides both
    rest, drop = content >> twos, n - twos
    mask = (1 << drop) - 1
    return Polynomial(
        Fraction(content * c, 1 << n) if c & mask else (c >> drop) * rest for c in shifted
    )


def basis_coefficients(k: int) -> tuple[int, ...]:
    """Coefficients (c_0..c_{k-2}) of the k-th polynomial in its nested-product basis.

    The basis element for index i is the product of linear factors
    prod_{j=1}^{i} (2x - 2(k-1) + 2j+1), the constant 1 for i = 0
    (expand_basis assembles them).  Computed by the linear recurrence

        c_{i,k+1} = ( prod_{j=i+1}^{k-1} (2j+3) ) * sum_{n=0}^{i} (2n+1)!! * S_n,
        S_n = sum_{m=n}^{k-2} c_{m,k} * 2^(m-n) * m!/n! = c_{n,k} + 2(n+1) * S_{n+1},

    seeded with c_{0,2} = 1.  Each step is three passes over one list (S
    backward, the prefix sums forward, the suffix products backward) on the
    primitive part: the recurrence is linear, so each step splits off its
    content, and the contents multiply back once, at the end.  The
    coefficients are positive ints.  k is within 2..BASIS_COEFFICIENTS_MAX.
    """
    check_index(k, 2, BASIS_COEFFICIENTS_MAX)
    odd = [double_factorial_odd(n) for n in range(k - 1)]  # (2n+1)!!
    content, s = 1, [1]
    for cur in range(2, k):
        s.append(0)  # S_{cur-1} = 0: the sum over m in n..cur-2 is empty
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
        divisor, s = split_content(s)
        content *= divisor
    return tuple(c * content for c in s)


def _nested_sum(coeffs: list[int], a: int, b: int) -> list[int]:
    """Ascending int coefficients in u of sum_i c_i * prod_{j=1}^{i} (a*u + 2j+b),
    by Horner's rule: c_0 + (a*u + 2+b) * (c_1 + (a*u + 4+b) * (c_2 + ...))."""
    acc: list[int] = []
    for i in range(len(coeffs) - 1, -1, -1):
        acc = [a * lo + (2 * i + 2 + b) * hi for lo, hi in zip([0] + acc, acc + [0])]
        acc[0] += coeffs[i]
    return acc


def expand_basis(coeffs: Iterable[int], k: int) -> Polynomial:
    """Assemble nested-product basis coefficients back into a polynomial: the
    sum in u = x - (k-1), whose factors are 2u + 2j+1, shifted by taylor_shift."""
    return Polynomial(taylor_shift(_nested_sum(list(coeffs), 2, 1), 1, 1 - k))


def shifted_product_identity(n: int) -> bool:
    """Coefficientwise check of prod_{i=1}^{n} (u + 2i+3) =
    sum_{i=0}^{n} 2^(n-i) * (n!/i!) * prod_{j=1}^{i} (u + 2j+1),
    for n within 0..BASIS_COEFFICIENTS_MAX."""
    check_index(n, 0, BASIS_COEFFICIENTS_MAX, "n")
    rhs = [2 ** (n - i) * math.factorial(n) // math.factorial(i) for i in range(n + 1)]
    return _nested_sum([0] * n + [1], 1, 3) == _nested_sum(rhs, 1, 1)
