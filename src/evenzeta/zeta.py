"""Even zeta values, Bernoulli numbers, and the partial-sum telescope.

Each value here is the exact rational coefficient of pi^(2k): every term of
the k-th Newton-Girard identity carries exactly pi^(2k), so the power is
fixed by k and only the coefficient carries information.

The classical Bernoulli recursion sum_{j=0}^{n} C(n+1, j) B_j = 0 with
B_0 = 1 serves as the independent oracle: it shares no code with the
operator recursion, and every Bernoulli value produced by the operator
route is checked against it in the verification suites.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .rationals import check_index, double_factorial_product, is_exact
from .recursion import RECURSION_MAX, numerator_parts, zeta_numerator

__all__ = [
    "elementary_zeta",
    "zeta_even_rational",
    "bernoulli_even",
    "bernoulli_from_zeta",
    "bernoulli_classical",
    "newton_partial_sum",
    "newton_partial_closed",
    "BERNOULLI_EVEN_MAX",
    "BERNOULLI_CLASSICAL_MAX",
    "ELEMENTARY_ZETA_MAX",
]

# Largest k of bernoulli_even: one call within about 4.5 s in a fresh process
# (2-vCPU host, Python 3.11.7), 0.6 s at 260, so it reaches RECURSION_MAX.
# The `verify` bernoulli suite runs it up to 240.
BERNOULLI_EVEN_MAX = RECURSION_MAX

# Largest n of the classical oracle, by the same rule: bernoulli_classical(700)
# took 3.9-4.4 s cold (725 took 3.8-5.0 s, 750 4.0-5.4 s).  It may not go
# below 700, the B_{2k} of `bernoulli --k 350 --method classical`.
BERNOULLI_CLASSICAL_MAX = 700

# Largest k of elementary_zeta, bernoulli_from_zeta and the Newton partial
# sums, whose own cost is a factorial of about 2k (0.1 s at 2000).  Their n
# is bounded by RECURSION_MAX: newton_partial_sum(260, 2000) took 0.70-0.76 s.
ELEMENTARY_ZETA_MAX = 2000


def elementary_zeta(k: int) -> Fraction:
    """1/(2k+1)!, the coefficient of pi^(2k) in the inverse-square specialization
    of e_k, for k within 0..ELEMENTARY_ZETA_MAX."""
    check_index(k, 0, ELEMENTARY_ZETA_MAX)
    return Fraction(1, math.factorial(2 * k + 1))


def zeta_even_rational(k: int) -> Fraction:
    """zeta(2k)/pi^(2k), the exact rational coefficient of pi^(2k) in zeta(2k).

    It is (numerator/2) / prod_{i=1}^{k} (2i+1)!! with the numerator from the
    operator recursion.  k is within 1..RECURSION_MAX, checked by
    zeta_numerator.
    """
    return Fraction(zeta_numerator(k), 2 * double_factorial_product(k))


def bernoulli_from_zeta(k: int, coeff: Fraction) -> Fraction:
    """B_{2k} from coeff = zeta(2k)/pi^(2k), by whichever route it was computed:
    B_{2k} = (-1)^(k-1) * 2 * (2k)! * coeff / 2^(2k), for k within 1..ELEMENTARY_ZETA_MAX.
    coeff must be an int or a Fraction."""
    if not is_exact(coeff):
        raise TypeError(f"coeff={coeff!r} is not an int or a Fraction")
    check_index(k, 1, ELEMENTARY_ZETA_MAX)
    sign = 1 if k % 2 else -1
    return sign * 2 * math.factorial(2 * k) * coeff / 2 ** (2 * k)


def bernoulli_even(k: int) -> Fraction:
    """B_{2k} for k within 1..BERNOULLI_EVEN_MAX, inverted from the even zeta
    value of the operator recursion, which checks k."""
    return bernoulli_from_zeta(k, zeta_even_rational(k))


@lru_cache(maxsize=None)
def bernoulli_classical(n: int) -> Fraction:
    """B_n by the classical recursion sum_{j=0}^{n} C(n+1,j) B_j = 0, B_0 = 1.

    Independent oracle: deliberately shares nothing with the operator
    recursion.  Uses the B_1 = -1/2 convention; even indices, which are all
    this package compares against, are convention-independent.  n lies
    within 0..BERNOULLI_CLASSICAL_MAX.
    """
    check_index(n, 0, BERNOULLI_CLASSICAL_MAX, "n")
    if n == 0:
        return Fraction(1)
    total = Fraction(0)
    for j in range(n):
        total += math.comb(n + 1, j) * bernoulli_classical(j)
    return -total / (n + 1)


def newton_partial_sum(n: int, k: int) -> Fraction:
    """The first n terms of the Newton-Girard solve for zeta(2k)/pi^(2k), by definition:

        k * elementary_zeta(k) - sum_{i=1}^{n-1} (-1)^(i-1) elementary_zeta(k-i) * zeta(2i)

    n is within 2..RECURSION_MAX and k within n-1..ELEMENTARY_ZETA_MAX, so
    every elementary index stays >= 0.
    """
    check_index(n, 2, RECURSION_MAX, "n")
    check_index(k, n - 1, ELEMENTARY_ZETA_MAX)
    total = k * elementary_zeta(k)
    for i in range(1, n):
        term = elementary_zeta(k - i) * zeta_even_rational(i)
        total = total - term if i % 2 else total + term
    return total


def newton_partial_closed(n: int, k: int) -> Fraction:
    """The same partial sum in closed form:

        (-1)^(n-1) * (1/2) * P_n(k)
            * prod_{i=1}^{n} (2k-2i+2) / ( (2k+1)! * prod_{i=1}^{n-1} (2i+1)!! )

    with P_n the n-th recursion polynomial, for n within 2..RECURSION_MAX and k
    within 1..ELEMENTARY_ZETA_MAX.
    """
    check_index(n, 2, RECURSION_MAX, "n")
    check_index(k, 1, ELEMENTARY_ZETA_MAX)
    sign = 1 if n % 2 else -1
    content, primitive = numerator_parts(n)
    value = content * primitive.evaluate(k)
    numer = math.prod(2 * k - 2 * i + 2 for i in range(1, n + 1))
    denom = 2 * math.factorial(2 * k + 1) * double_factorial_product(n - 1)
    return sign * value * Fraction(numer, denom)
