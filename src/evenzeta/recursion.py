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
nonzero remainder raises ConsistencyError.  Each cache entry holds
g_k, p_k as an int tuple and the value p_k(k), which is both the next
step's p(k) and what zeta_numerator scales by g_k; numerator_polynomial
hands out the pair (g_k, p_k) as a Polynomial, whose form it already is.
The cache's step (_entry) is the only implementation of the operator in
the package.  translated_polynomial shifts with polynomials.taylor_shift, the
package's only affine substitution.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

from .bounds import RECURSION_MAX
from .polynomials import Polynomial, split_content, taylor_shift
from .rationals import ConsistencyError, check_index, double_factorial_odd

__all__ = [
    "numerator_polynomial",
    "zeta_numerator",
    "translated_polynomial",
    "RECURSION_MAX",
]


_cache_lock = threading.Lock()
# P_j = g_j * p_j as the entry (g_j, p_j, p_j(j)) for j = 0 (unused), 1, 2,
# ...: the content g_j > 0 (the gcd of P_j's coefficients), the primitive
# part p_j as ascending int coefficients and its value at x = j.
_parts: list[tuple[int, tuple[int, ...], int]] = [(1, (1,), 1), (1, (1,), 1)]
# The rising product R_j = prod_{i=1}^{j} (2x - 2j + 2i+1) of the last step
# taken, j = len(_parts) - 2, as ascending int coefficients (R_0 = 1).
_rising: list[int] = [1]


def _entry(k: int) -> tuple[int, tuple[int, ...], int]:
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
            content, p, fj = _parts[j]
            odd = double_factorial_odd(j)
            shared = math.gcd(fj, odd)
            a, b, c = fj // shared, odd // shared, 3 - 2 * j
            m = len(p)
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
                raise ConsistencyError(
                    f"remainder {acc} dividing by (x - {j}); expected exact division"
                )
            divisor, q = split_content(q)
            content *= shared * divisor
            if content & 1:
                raise ConsistencyError(f"P_{j + 1} has a non-integer coefficient")
            _parts.append((content >> 1, tuple(q), value // divisor))
            _rising = rising
        return _parts[k]


def numerator_polynomial(k: int) -> Polynomial:
    """The k-th polynomial of the recursion (degree k-2), k within 1..RECURSION_MAX.

    The cached content g_k and primitive part p_k (module docstring) are
    the value's own pair, so no coefficient is scaled: read .content and
    .primitive where a degree, a leading coefficient or a value is all that
    is needed.  The content is exact because the step is linear in f, and
    P_k's coefficients are integers.
    """
    content, primitive, _ = _entry(k)
    return Polynomial.from_parts(content, primitive)


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
    shift s = 2^n * p_k((A*x + 2k - 3)/2) with A = 1 or 2.  With c = gcd(s),
    the result is the pair (g_k * c / 2^n, s / c).
    """
    poly = numerator_polynomial(k)
    shifted = taylor_shift(poly.primitive, 1 if half_scale else 2, 2 * k - 3, 2)
    c, primitive = split_content(shifted)
    return Polynomial.from_parts(Fraction(poly.content * c, 1 << poly.degree), primitive)
