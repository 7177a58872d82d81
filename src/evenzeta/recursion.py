"""The operator recursion behind the even zeta values.

A family of step operators turns the constant polynomial 1 into a sequence
of integer-coefficient polynomials; evaluating the k-th polynomial at x = k
yields the positive integer that is the numerator of 2*zeta(2k)/pi^(2k)
over the double-factorial tower prod_{i<=k} (2i+1)!!.

The k-th step operator maps f to

    [ f(k) * prod_{i=1}^{k} (2x - 2k + 2i+1)  -  f(x) * prod_{i=1}^{k} (2i+1) ] / (2x - 2k)

and the numerator always vanishes at x = k, so the division is exact.

Index-set conventions: a set S of positions into the odd sequence (position
n holds 2n+1) names the product f_{S}(x) = prod_{n in S} (2x - 2k + R_n)
at a given offset k; shifting every member value by two is the position
shift n -> n+1.  That convention is what lets the same combinatorics run
over arbitrary sequences (see trees.generalized_transform).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .polynomials import ONE, Polynomial
from .rationals import double_factorial_odd
from .sequences import ODD_NUMBERS, SequenceSpec

__all__ = [
    "IndexSet",
    "ConsistencyError",
    "first_indices",
    "factor_product",
    "apply_step",
    "numerator_polynomial",
    "zeta_numerator",
    "translated_polynomial",
    "expand_step",
    "basis_coefficients",
    "expand_basis",
    "shifted_product_identity",
]


class ConsistencyError(RuntimeError):
    """An internal invariant failed (e.g. a value that must be a positive integer is not)."""


@dataclass(frozen=True)
class IndexSet:
    """A strictly increasing set of positions (>= 1) into a value sequence."""

    indices: tuple[int, ...]

    def __init__(self, indices: Iterable[int] = ()):
        idx = tuple(sorted(indices))
        if any(n < 1 for n in idx):
            raise ValueError(f"positions must be >= 1: {idx}")
        if len(set(idx)) != len(idx):
            raise ValueError(f"duplicate positions: {idx}")
        object.__setattr__(self, "indices", idx)

    def __iter__(self):
        return iter(self.indices)

    def __len__(self):
        return len(self.indices)

    def __contains__(self, n):
        return n in self.indices

    def __str__(self):
        return "{" + ",".join(str(n) for n in self.indices) + "}"

    def shifted(self) -> "IndexSet":
        """Position shift n -> n+1 (the value shift by two for the odd sequence)."""
        return IndexSet(n + 1 for n in self.indices)

    def values(self, seq: SequenceSpec = ODD_NUMBERS) -> tuple:
        return tuple(seq.value(n) for n in self.indices)

    def product(self, seq: SequenceSpec = ODD_NUMBERS):
        return seq.product(self.indices)


def first_indices(k: int) -> IndexSet:
    """Positions {1..k}, i.e. the odd values {3, 5, ..., 2k+1}; empty for k = 0."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return IndexSet(range(1, k + 1))


def factor_product(s: IndexSet, k: int, seq: SequenceSpec = ODD_NUMBERS) -> Polynomial:
    """prod_{n in s} (2x - 2k + R_n), the constant 1 for an empty set."""
    out = ONE
    for n in s:
        out = out * Polynomial((seq.value(n) - 2 * k, 2))
    return out


def apply_step(f: Polynomial, k: int) -> Polynomial:
    """Apply the k-th step operator to f (see module docstring for the formula)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    rising = factor_product(first_indices(k), k)
    numerator = f.evaluate(k) * rising - double_factorial_odd(k) * f
    return numerator.divide_linear_exact(k)


_cache_lock = threading.Lock()
_poly_cache: list[Polynomial] = [ONE, ONE]  # entries 0 (unused) and 1


def numerator_polynomial(k: int) -> Polynomial:
    """The k-th polynomial of the recursion (degree k-2 for k >= 2, cached)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    with _cache_lock:
        while len(_poly_cache) <= k:
            j = len(_poly_cache) - 1
            _poly_cache.append(apply_step(_poly_cache[j], j))
        return _poly_cache[k]


def zeta_numerator(k: int) -> int:
    """The positive integer value of the k-th polynomial at x = k."""
    value = numerator_polynomial(k).evaluate(k)
    if value.denominator != 1 or value <= 0:
        raise ConsistencyError(f"expected a positive integer at k={k}, got {value}")
    return value.numerator


def translated_polynomial(k: int, *, half_scale: bool = False) -> Polynomial:
    """The k-th polynomial shifted to x + k - 3/2, where all coefficients are positive.

    With half_scale the variable is additionally rescaled to x/2, the form
    in which the small cases are usually displayed.
    """
    a = Fraction(1, 2) if half_scale else Fraction(1)
    return numerator_polynomial(k).compose_affine(a, k - Fraction(3, 2))


def expand_step(s: IndexSet, k: int) -> list[tuple[int, IndexSet]]:
    """Expand the k-th step operator applied to factor_product(s, k-1).

    Requires s within positions {1..k-2}.  Returns (weight, low-set) terms,
    one per j in 0..k-1-|s|: the low set is the shift of s plus the j
    smallest unused positions in {1..k-1}, and the weight is the odd-value
    product over the shift of s plus the (k-1-|s|-j) greatest unused
    positions in {2..k}.  Assembling weight * factor_product(low, k) over
    all terms reproduces apply_step exactly.

    The two candidate pools {1..k-1} and {1..k} (resp. {2..k} and {1..k})
    give identical selections for every j in range, because position 1 is
    never among the greatest picks and position k never among the smallest;
    the smaller pools are used here.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    allowed = set(range(1, k - 1))
    if not set(s.indices) <= allowed:
        raise ValueError(f"set {s} not within positions 1..{k - 2}")
    shifted = set(s.shifted())
    low_pool = [n for n in range(1, k) if n not in shifted]
    high_pool = [n for n in range(2, k + 1) if n not in shifted]
    m = k - 1 - len(s)
    terms = []
    for j in range(m + 1):
        low = IndexSet(shifted | set(low_pool[:j]))
        high_count = m - j
        high = shifted | set(high_pool[len(high_pool) - high_count :] if high_count else [])
        weight = 1
        for n in high:
            weight *= 2 * n + 1
        terms.append((weight, low))
    return terms


def basis_coefficients(k: int) -> tuple[Fraction, ...]:
    """Coefficients (c_0..c_{k-2}) of the k-th polynomial in its nested-product basis.

    The basis element for index i is prod_{j=1}^{i} (2x - 2(k-1) + 2j+1),
    i.e. factor_product(first_indices(i), k-1).  Computed by the linear
    recurrence

        c_{i,k+1} = ( prod_{j=i+1}^{k-1} (2j+3) )
                    * sum_{n=0}^{i} (2n+1)!! * sum_{m=n}^{k-2} c_{m,k} * 2^(m-n) * m!/n!

    seeded with c_{0,2} = 1.  Observed to produce positive integers; kept
    as exact rationals so nothing relies on that observation.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    coeffs: list[Fraction] = [Fraction(1)]
    for cur in range(2, k):
        nxt: list[Fraction] = []
        for i in range(cur):
            prefactor = math.prod(2 * j + 3 for j in range(i + 1, cur))
            total = Fraction(0)
            for n in range(i + 1):
                inner = Fraction(0)
                for m in range(n, cur - 1):
                    inner += (
                        coeffs[m]
                        * 2 ** (m - n)
                        * Fraction(math.factorial(m), math.factorial(n))
                    )
                total += double_factorial_odd(n) * inner
            nxt.append(prefactor * total)
        coeffs = nxt
    return tuple(coeffs)


def expand_basis(coeffs: Iterable[Fraction], k: int) -> Polynomial:
    """Assemble nested-product basis coefficients back into a polynomial."""
    out = Polynomial()
    basis = ONE
    for i, c in enumerate(coeffs):
        if i > 0:
            basis = basis * Polynomial((2 * i + 1 - 2 * (k - 1), 2))
        out = out + c * basis
    return out


def shifted_product_identity(n: int) -> bool:
    """Coefficientwise check of prod_{i=1}^{n} (u + 2i+3) =
    sum_{i=0}^{n} 2^(n-i) * (n!/i!) * prod_{j=1}^{i} (u + 2j+1)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    lhs = ONE
    for i in range(1, n + 1):
        lhs = lhs * Polynomial((2 * i + 3, 1))
    rhs = Polynomial()
    partial = ONE
    for i in range(n + 1):
        if i > 0:
            partial = partial * Polynomial((2 * i + 1, 1))
        rhs = rhs + Fraction(2 ** (n - i) * math.factorial(n), math.factorial(i)) * partial
    return lhs == rhs
