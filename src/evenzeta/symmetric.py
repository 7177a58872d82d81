"""Exact symmetric-function checks on finitely many variables.

Everything here works over a concrete tuple of rational variables, so the
classical identities relating elementary symmetric functions, power sums and
the symmetric group can be verified exactly.  They are polynomial identities
and therefore hold for every finite truncation; no analysis is involved.

cycle_index_elementary is the sum over the symmetric group
e_k = (1/k!) sum_sigma sgn(sigma) prod p_{cycle lengths of sigma}, grouped
by cycle type (the cycle-index formula, Macdonald, Symmetric Functions and
Hall Polynomials, I.2); the tests keep the walk over all k! permutations as
the reference it is checked against.  newton_girard_check(vars, k) returns
the two sides (lhs, rhs) of the k-th Newton-Girard identity.  Each runs on
integers over one denominator and makes its Fractions once, at the end.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

from .bounds import (
    CYCLE_INDEX_MAX, CYCLE_INDEX_VARIABLES_MAX, INVERSE_SQUARES_MAX, NEWTON_GIRARD_MAX,
    VARIABLES_MAX,
)
from .rationals import check_exact, check_index, check_type


class VariableSet(tuple):
    """A finite tuple of rational variable values z_1..z_N, stored as Fractions.

    Every value must be an int or a Fraction, checked once when the set is built.
    """

    __slots__ = ()

    def __new__(cls, values):
        values = tuple(values)
        for v in values:
            check_exact(v, "variable")
        if not values:
            raise ValueError("a variable set needs at least one variable")
        return super().__new__(cls, map(Fraction, values))

    @classmethod
    def inverse_squares(cls, n: int) -> "VariableSet":
        """The specialization z_m = 1/m^2 truncated to m <= n, for n within
        1..INVERSE_SQUARES_MAX."""
        check_index(n, 1, INVERSE_SQUARES_MAX, "n")
        return cls(Fraction(1, m * m) for m in range(1, n + 1))


def _elementary_row(vars: VariableSet, k: int) -> list[int]:
    """[E_0, ..., E_k] with e_j = E_j / E_0, by the stable product recurrence
    on prod(b + a t) over the variables z = a/b; E_0 = prod b."""
    row = [1] + [0] * k
    for z in vars:
        a, b = z.numerator, z.denominator
        for j in range(k, 0, -1):
            row[j] = b * row[j] + a * row[j - 1]
        row[0] *= b
    return row


def elementary_symmetric(vars: VariableSet, k: int) -> Fraction:
    """e_k over the variables, by the stable product recurrence on prod(1 + z_i t),
    for k within 0..N, the variable count, and N within 1..VARIABLES_MAX.
    """
    check_type(vars, VariableSet, "vars")
    check_index(k, 0, len(vars))
    check_index(len(vars), 1, VARIABLES_MAX, "N")
    row = _elementary_row(vars, k)
    return Fraction(row[k], row[0])


def _power_sums(vars: VariableSet, exponents: range) -> tuple[int, list[int]]:
    """(D, [P_i for i in exponents]) with p_i = P_i / D^i, D the lcm of the
    denominators.  Each z = a/b starts as (b, [a^i]); neighbours merge pairwise,
    level by level, over the lcm of their denominators, so operands grow together."""
    level = [(z.denominator, [z.numerator**i for i in exponents]) for z in vars]
    while len(level) > 1:
        merged = []
        for (d1, s1), (d2, s2) in zip(level[::2], level[1::2]):
            d = math.lcm(d1, d2)
            m1, m2 = d // d1, d // d2
            w1, w2, row = m1**exponents.start, m2**exponents.start, []
            for x, y in zip(s1, s2):  # exponents.step is 1
                row.append(x * w1 + y * w2)
                w1, w2 = w1 * m1, w2 * m2
            merged.append((d, row))
        level = merged + level[2 * len(merged):]
    return level[0]


def power_sum(vars: VariableSet, k: int) -> Fraction:
    """p_k = sum z_i^k for k within 1..max(N, CYCLE_INDEX_MAX), N the variable
    count: every p_k that the Newton-Girard and cycle-index sums read.  N is
    within 1..VARIABLES_MAX."""
    check_type(vars, VariableSet, "vars")
    check_index(k, 1, max(len(vars), CYCLE_INDEX_MAX))
    check_index(len(vars), 1, VARIABLES_MAX, "N")
    den, (total,) = _power_sums(vars, range(k, k + 1))
    return Fraction(total, den**k)


def _partitions(n: int, largest: int):
    # descending partitions of n into parts of at most largest
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def cycle_index_elementary(vars: VariableSet, k: int) -> Fraction:
    """e_k recovered as (1/k!) sum over S_k of sgn(sigma) * prod p_{cycle length}.

    The sum runs over cycle types: the k! / (prod_j j^{m_j} m_j!) permutations
    with m_j cycles of length j share the sign (-1)^(k - number of cycles).
    k is within 1..CYCLE_INDEX_MAX and N, the variable count, within
    1..CYCLE_INDEX_VARIABLES_MAX; elementary_symmetric gives e_k without the sum.
    """
    check_type(vars, VariableSet, "vars")
    check_index(k, 1, CYCLE_INDEX_MAX)
    check_index(len(vars), 1, CYCLE_INDEX_VARIABLES_MAX, "N")
    den, sums = _power_sums(vars, range(k + 1))
    total = 0
    for parts in _partitions(k, k):
        mult = math.factorial(k)
        for j, m in Counter(parts).items():
            mult //= j**m * math.factorial(m)
        total += (-1) ** (k - len(parts)) * mult * math.prod(sums[p] for p in parts)
    return Fraction(total, math.factorial(k) * den**k)


def newton_girard_check(vars: VariableSet, k: int) -> tuple[Fraction, Fraction]:
    """The two sides (lhs, rhs) of the k-th Newton-Girard identity, exactly:

        (-1)^(k-1) p_k = k e_k - sum_{i<k} (-1)^(i-1) e_{k-i} p_i

    The identity holds when lhs == rhs.  Both sides are ints over D^k and
    E_0 D^k, from the rows E_0..E_k and P_0..P_k.  k is within
    1..min(N, NEWTON_GIRARD_MAX), and N, the variable count, within
    1..NEWTON_GIRARD_MAX.
    """
    check_type(vars, VariableSet, "vars")
    check_index(k, 1, min(len(vars), NEWTON_GIRARD_MAX))
    check_index(len(vars), 1, NEWTON_GIRARD_MAX, "N")
    e = _elementary_row(vars, k)
    den, p = _power_sums(vars, range(k + 1))
    # rhs times E_0 D^k, by Horner in D: k E_k D^k + sum (-1)^i E_{k-i} P_i D^(k-i)
    rhs = k * e[k]
    for i in range(1, k):
        term = e[k - i] * p[i]
        rhs = rhs * den + (term if i % 2 == 0 else -term)
    return Fraction(p[k] if k % 2 else -p[k], den**k), Fraction(rhs * den, e[0] * den**k)
