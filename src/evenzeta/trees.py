"""The tree route: the sequence transform and the tree polynomial.

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
identity (n + 1/2) zeta(2n) = sum_{j=1}^{n-1} zeta(2j) zeta(2n-2j).  For
the polynomial, the holes still open at the end carry linear factors in
place of values, w_a = 2x - 2(k-1) + R_a.  In u = x - (k-1) they are
w_a = 2u + R_a, free of k, so one family G_0, G_1, ... serves every k:

    P_k(x) = S_k * G_{k-1}(x - (k-1)),   S_k = prod_{m=1}^{k-2} R_2...R_{m+1}

(see polynomial_via_trees).  On the odd numbers every c_d is positive
and so is every coefficient of every w_a, so each G_d has positive
coefficients, and so does P_k(x + k - 1): a weaker form of the paper's
positivity after the shift by k - 3/2, which the `positivity` suite
checks on the recursion route.

This is still the tree route, the same sum over the same trees, only
regrouped.  It shares no code with the operator recursion or with the
classical Bernoulli recursion, so their agreement stays a check.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from typing import Sequence, Union

from .bounds import TRANSFORM_MAX, TREE_SUM_MAX
from .polynomials import InexactDivisionError, Polynomial, split_content, taylor_shift
from .rationals import check_index, check_int, is_exact

Value = Union[int, Fraction]

__all__ = [
    "SequenceSpec",
    "ODD_NUMBERS",
    "polynomial_via_trees",
    "generalized_transform",
    "TRANSFORM_MAX",
    "TREE_SUM_MAX",
]


class SequenceSpec(tuple):
    """The values R_1, R_2, ... of the tree sum, position n at index n-1.

    Every value is checked once, when the sequence is built: it must be a
    nonzero int or Fraction, so no float or bool enters the computation.
    """

    __slots__ = ()

    def __new__(cls, values):
        values = tuple(values)
        for n, v in enumerate(values, start=1):
            if not is_exact(v):
                raise ValueError(
                    f"sequence value at position {n} is {v!r}; only int and Fraction are exact"
                )
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
# sequence and the polynomial family.
_odd_weights: list[tuple[int, int]] = [(1, 1)]
# G_d = gamma_d * g_d in u = x - (k-1) for d = 0, 1, ... (polynomial_via_trees):
# the content gamma_d > 0 as an int pair in lowest terms, and the primitive
# part g_d as ascending int coefficients.
_family: list[tuple[tuple[int, int], list[int]]] = [((1, 1), [1])]


def _grow_family(n: int) -> None:
    """Extend the cache to G_0..G_{n-1}; the caller holds _cache_lock.

    Horner in i keeps acc = alpha * a with a an int list.  Each step
    acc * w_i + beta * g_i, with beta = c_{d-1-i} * gamma_i, divides out
    the rational gcd of alpha and beta, so both multipliers are ints; the
    content of a is taken once, at the end of the step.
    """
    values = ODD_NUMBERS.values_upto(n - 1)
    c = _first_return_weights(values, _odd_weights)
    for d in range(len(_family), n):
        (alpha, alpha_den), a = c[d - 1], [1]  # acc = c_{d-1} * G_0
        for i in range(1, d):
            (beta, beta_den), ((gamma, gamma_den), g) = c[d - 1 - i], _family[i]
            beta, beta_den = beta * gamma, beta_den * gamma_den
            top, bottom = math.gcd(alpha, beta), math.lcm(alpha_den, beta_den)
            s = alpha // top * (bottom // alpha_den)
            t = beta // top * (bottom // beta_den)
            alpha, alpha_den = top, bottom
            # s * a * (R_i + 2u) + t * g_i, where a and g_i both have degree i-1
            sr, s2 = s * values[i - 1], 2 * s
            a = [sr * hi + s2 * lo + t * b for lo, hi, b in zip([0] + a, a + [0], g + [0])]
        content, a = split_content(a)
        alpha *= content
        shared = math.gcd(alpha, alpha_den)
        _family.append(((alpha // shared, alpha_den // shared), a))


def polynomial_via_trees(k: int) -> Polynomial:
    """The k-th recursion polynomial assembled as a tree sum.

    The holes left open by the first-return decomposition carry the linear
    factors w_a = 2x - 2(k-1) + R_a instead of values.  In u = x - (k-1)
    they are w_a = 2u + R_a, free of k, so one family serves every k:

        G_0 = 1,   G_d = sum_{i<d} c_{d-1-i} * G_i * prod_{j=i+1}^{d-1} w_j

    (by Horner in i, on content times primitive part), and P_k(x) is
    S_k * G_{k-1}(x - (k-1)) with S_k = prod_{m=1}^{k-2} R_2...R_{m+1}: the
    pair of S_k times G_{k-1}'s content and its shifted primitive part.
    """
    check_index(k, 2, TREE_SUM_MAX)
    with _cache_lock:
        _grow_family(k)
        (gamma, gamma_den), g = _family[k - 1]
    scale = 1
    running = 1
    for r in ODD_NUMBERS[1 : k - 1]:
        running *= r
        scale *= running
    # the content of P_k: an int, since the integer shift keeps g_{k-1} primitive
    content, rest = divmod(scale * gamma, gamma_den)
    if rest:
        raise InexactDivisionError(f"P_{k} has a non-integer content")
    return Polynomial.from_parts(content, taylor_shift(g, 1, 1 - k))


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
    if not isinstance(seq, SequenceSpec):
        raise TypeError(f"seq is a {type(seq).__name__}, not a SequenceSpec")
    values = seq.values_upto(k)
    if seq is ODD_NUMBERS:
        with _cache_lock:
            c = _first_return_weights(values, _odd_weights)
    else:
        c = _first_return_weights(values)
    (num, den), r = c[k - 1], values[0]
    return Fraction(num * r.denominator**k, den * r.numerator**k)
