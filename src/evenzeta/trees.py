"""The tree route: the sequence transform by first return.

The paper's tree sum runs over the plane trees on k vertices, each with
low and high sets of positions into a SequenceSpec of nonzero values
R_1, R_2, ....  The default is the odd numbers 3, 5, 7, ... (R_n = 2n+1),
on which the "shift by two" of a set of odd values is exactly the position
shift n -> n+1; that is how the shift generalizes to arbitrary sequences.
plane_trees replays one tree at a time, vertex by vertex; this module never
walks a tree and imports nothing from there.

Summed over a whole family, plane_trees' replay regroups by first
return.  The positions outside the low set (the holes) behave as a stack:
each step ages every hole by one and pushes a new one, then drops some of
the newest, and a history's weight is a constant times factors over the
(hole, time) pairs, which nest like parentheses.  Splitting each history
at its first return therefore gives the weighted Catalan convolution

    c_0 = 1,   c_d = (1/R_{d+1}) * sum_{m=0}^{d-1} c_m * c_{d-1-m},   T_k = c_{k-1} / R_1^k

for the transform T_k: O(k^2) operations in place of C_{k-1} trees
(Flajolet, "Combinatorial aspects of continued fractions", Discrete Math.
32 (1980): path weights that factor over nested steps give convolution
and continued-fraction forms).  With every R_n = 1 it is the Catalan
recurrence, so T_k counts the trees; for the odd sequence it is Euler's
identity (n + 1/2) zeta(2n) = sum_{j=1}^{n-1} zeta(2j) zeta(2n-2j).  The
weights over the odd numbers are cached here, and tree_polynomial, which
builds P_k from the same convolution with linear factors for the holes
left open, reads them through odd_weights.

This is still the tree route, the same sum over the same trees, only
regrouped.  It shares no code with the operator recursion or with the
classical Bernoulli recursion, so their agreement stays a check.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from typing import Sequence, Union

from .bounds import TRANSFORM_MAX
from .rationals import check_exact, check_index, check_int, check_type

Value = Union[int, Fraction]


class SequenceSpec(tuple):
    """The values R_1, R_2, ... of the tree sum, position n at index n-1.

    Every value is checked once, when the sequence is built: it must be a
    nonzero int or Fraction, so no float or bool enters the computation.
    """

    __slots__ = ()

    def __new__(cls, values):
        values = tuple(values)
        for n, v in enumerate(values, start=1):
            check_exact(v, f"R_{n}")
            if v == 0:
                raise ValueError(f"sequence value at position {n} is zero")
        return super().__new__(cls, values)

    def values_upto(self, n: int) -> tuple[Value, ...]:
        """The values at positions 1..n, none for n <= 0; a shorter sequence
        raises ValueError."""
        check_int(n, "n")
        if n > len(self):
            raise ValueError(
                f"sequence supplies only {len(self)} values; position {len(self) + 1} needed"
            )
        return self[: max(n, 0)]


# R_n = 2n+1 at positions 1..TRANSFORM_MAX, every position generalized_transform reads.
ODD_NUMBERS = SequenceSpec(range(3, 2 * TRANSFORM_MAX + 2, 2))


def _first_return_weights(
    values: Sequence[Value], c: list[tuple[int, int]] | None = None
) -> list[tuple[int, int]]:
    """c_0..c_{len(values)-1} of the first-return recurrence over R_1, R_2, ...

    c_0 = 1 and c_d = (1/R_{d+1}) * sum_{m<d} c_m * c_{d-1-m}; R_1 is not read.
    Each c_d is an int pair (numerator, denominator > 0) in lowest terms.
    The sum is symmetric in m and d-1-m, so it runs over half the terms, on
    one common denominator, and is reduced once per d (Fraction arithmetic
    would take a gcd per product and per sum).  Given c, the first weights
    over the same values, extends it in place and returns it.
    """
    c = [(1, 1)] if c is None else c
    for d in range(len(c), len(values)):
        num, den = 0, 1
        for m in range((d + 1) // 2):
            (a, p), (b, q) = c[m], c[d - 1 - m]
            pq = p * q
            shared = math.gcd(den, pq)
            twice = 2 if 2 * m + 1 < d else 1
            num = num * (pq // shared) + twice * a * b * (den // shared)
            den = den // shared * pq
        r = values[d]
        num, den = num * r.denominator, den * r.numerator
        if den < 0:
            num, den = -num, -den
        shared = math.gcd(num, den)
        c.append((num // shared, den // shared))
    return c


_cache_lock = threading.Lock()
# c_0, c_1, ... over ODD_NUMBERS, shared by generalized_transform's default
# sequence and tree_polynomial's family
_odd_weights: list[tuple[int, int]] = [(1, 1)]


def odd_weights(n: int) -> list[tuple[int, int]]:
    """The cache of c_0, c_1, ... over ODD_NUMBERS, grown to at least n
    entries under its lock; it is only appended to, so the caller reads it
    without the lock."""
    with _cache_lock:
        return _first_return_weights(ODD_NUMBERS.values_upto(n), _odd_weights)


def generalized_transform(k: int, seq: SequenceSpec = ODD_NUMBERS) -> Fraction:
    """The tree-sum transform of an arbitrary nonzero value sequence.

    Needs values at positions 1..k.  Returns

        sum over k-vertex trees of weight * product(low shifted)
        -----------------------------------------------------------
        prod_{j=1}^{k} (product of the values at positions 1..j)

    as c_{k-1} / R_1^k, the trees regrouped by first return (see the module
    docstring).  For the default odd sequence this equals
    2*zeta(2k)/pi^(2k), and the value times double_factorial_product(k) is
    the zeta numerator A_k.
    """
    check_index(k, 1, TRANSFORM_MAX)
    check_type(seq, SequenceSpec, "seq")
    if seq is ODD_NUMBERS:
        c = odd_weights(k)
    else:
        c = _first_return_weights(seq.values_upto(k))
    (num, den), r = c[k - 1], seq[0]
    return Fraction(num * r.denominator**k, den * r.numerator**k)
