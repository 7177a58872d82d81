"""Even zeta values, Bernoulli numbers, and the partial-sum telescope.

All quantities here are homogeneous in pi: a value is an exact rational
times an even power of pi (PiMultiple).  Addition therefore requires equal
powers; a mismatch between nonzero values is always a bug and is rejected.

The classical Bernoulli recursion sum_{j=0}^{n} C(n+1, j) B_j = 0 with
B_0 = 1 serves as the independent oracle: it shares no code with the
operator recursion, and every Bernoulli value produced by the operator
route is checked against it in the verification suites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .rationals import check_index, double_factorial_product, is_exact
from .recursion import RECURSION_MAX, numerator_polynomial, zeta_numerator

__all__ = [
    "PiMultiple",
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
# (2-vCPU host, Python 3.11.7), 2.8-3.8 s (180 took 3.3-4.6 s).  The `verify`
# bernoulli suite runs it up to 175.
BERNOULLI_EVEN_MAX = 175

# Largest n of the classical oracle, by the same rule: bernoulli_classical(700)
# took 3.9-4.4 s cold (725 took 3.8-5.0 s, 750 4.0-5.4 s).  It may not go
# below 700, the B_{2k} of `bernoulli --k 350 --method classical`.
BERNOULLI_CLASSICAL_MAX = 700

# Largest k of elementary_zeta, bernoulli_from_zeta and the Newton partial
# sums, whose own cost is a factorial of about 2k (0.1 s at 2000).  Their n
# is bounded by RECURSION_MAX: newton_partial_sum(180, 2000) took 3.7-5.2 s,
# nearly all of it the recursion (k = 5000 took 4.4-5.7 s).
ELEMENTARY_ZETA_MAX = 2000


@dataclass(frozen=True)
class PiMultiple:
    """An exact value coeff * pi^power with an even, nonnegative power.

    A zero coefficient is normalized to power 0, and an exact zero acts as
    the neutral element of addition regardless of the other operand's
    power; any other power mismatch under addition is an error.
    """

    coeff: Fraction
    power: int

    def __init__(self, coeff, power: int = 0):
        if not is_exact(coeff):
            raise TypeError(f"coefficient {coeff!r} is not an int or a Fraction")
        coeff = Fraction(coeff)
        if power < 0 or power % 2:
            raise ValueError(f"pi power must be even and >= 0, got {power}")
        if coeff == 0:
            power = 0
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "power", power)

    def __add__(self, other: "PiMultiple") -> "PiMultiple":
        if not isinstance(other, PiMultiple):
            return NotImplemented
        if self.coeff == 0:
            return other
        if other.coeff == 0:
            return self
        if self.power != other.power:
            raise ValueError(
                f"cannot add pi^{self.power} and pi^{other.power} terms"
            )
        return PiMultiple(self.coeff + other.coeff, self.power)

    def __neg__(self) -> "PiMultiple":
        return PiMultiple(-self.coeff, self.power)

    def __sub__(self, other: "PiMultiple") -> "PiMultiple":
        return self + (-other)

    def __mul__(self, other) -> "PiMultiple":
        if isinstance(other, PiMultiple):
            return PiMultiple(self.coeff * other.coeff, self.power + other.power)
        if is_exact(other):
            return PiMultiple(self.coeff * other, self.power)
        return NotImplemented

    __rmul__ = __mul__

    def __str__(self) -> str:
        if self.power == 0:
            return str(self.coeff)
        return f"{self.coeff} * pi^{self.power}"

    def approx(self) -> float:
        """Floating approximation, for display only."""
        return float(self.coeff) * math.pi**self.power


def elementary_zeta(k: int) -> PiMultiple:
    """pi^(2k) / (2k+1)!, the inverse-square specialization of e_k, for k within
    0..ELEMENTARY_ZETA_MAX."""
    check_index(k, 0, ELEMENTARY_ZETA_MAX)
    return PiMultiple(Fraction(1, math.factorial(2 * k + 1)), 2 * k)


def zeta_even_rational(k: int) -> PiMultiple:
    """zeta(2k) as an exact rational multiple of pi^(2k).

    The coefficient is (numerator/2) / prod_{i=1}^{k} (2i+1)!! with the
    numerator from the operator recursion.  k is within 1..RECURSION_MAX,
    checked by zeta_numerator.
    """
    coeff = Fraction(zeta_numerator(k), 2 * double_factorial_product(k))
    return PiMultiple(coeff, 2 * k)


def bernoulli_from_zeta(k: int, coeff: Fraction) -> Fraction:
    """B_{2k} from coeff = zeta(2k)/pi^(2k), by whichever route it was computed:
    B_{2k} = (-1)^(k-1) * 2 * (2k)! * coeff / 2^(2k), for k within 1..ELEMENTARY_ZETA_MAX."""
    check_index(k, 1, ELEMENTARY_ZETA_MAX)
    sign = 1 if k % 2 else -1
    return sign * 2 * math.factorial(2 * k) * coeff / 2 ** (2 * k)


def bernoulli_even(k: int) -> Fraction:
    """B_{2k} for k within 1..BERNOULLI_EVEN_MAX, inverted from the even zeta
    value of the operator recursion."""
    check_index(k, 1, BERNOULLI_EVEN_MAX)
    return bernoulli_from_zeta(k, zeta_even_rational(k).coeff)


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


def newton_partial_sum(n: int, k: int) -> PiMultiple:
    """The first n terms of the Newton-Girard solve for zeta(2k), by definition:

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


def newton_partial_closed(n: int, k: int) -> PiMultiple:
    """The same partial sum in closed form:

        (-1)^(n-1) * (pi^(2k)/2) * P_n(k)
            * prod_{i=1}^{n} (2k-2i+2) / ( (2k+1)! * prod_{i=1}^{n-1} (2i+1)!! )

    with P_n the n-th recursion polynomial, for n within 2..RECURSION_MAX and k
    within 1..ELEMENTARY_ZETA_MAX.
    """
    check_index(n, 2, RECURSION_MAX, "n")
    check_index(k, 1, ELEMENTARY_ZETA_MAX)
    sign = 1 if n % 2 else -1
    value = numerator_polynomial(n).evaluate(k)
    numer = math.prod(2 * k - 2 * i + 2 for i in range(1, n + 1))
    denom = 2 * math.factorial(2 * k + 1) * double_factorial_product(n - 1)
    return PiMultiple(sign * value * Fraction(numer, denom), 2 * k)
