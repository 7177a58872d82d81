"""Brute-force symmetric-function checks on finitely many variables.

Everything here works over a concrete tuple of rational variables, so the
classical identities relating elementary symmetric functions, power sums and
the symmetric group can be verified exactly.  They are polynomial identities
and therefore hold for every finite truncation; no analysis is involved.

cycle_index_elementary is the sum over the symmetric group
e_k = (1/k!) sum_sigma sgn(sigma) prod p_{cycle lengths of sigma}, grouped
by cycle type (the cycle-index formula, Macdonald, Symmetric Functions and
Hall Polynomials, I.2); the tests keep the walk over all k! permutations as
the reference it is checked against.  newton_girard_check(vars, k) returns
the two sides (lhs, rhs) of the k-th Newton-Girard identity.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .rationals import check_index, is_exact

__all__ = [
    "VariableSet",
    "elementary_symmetric",
    "power_sum",
    "cycle_index_elementary",
    "newton_girard_check",
    "CYCLE_INDEX_MAX",
    "CYCLE_INDEX_VARIABLES_MAX",
    "INVERSE_SQUARES_MAX",
    "NEWTON_GIRARD_MAX",
    "VARIABLES_MAX",
]

CYCLE_INDEX_MAX = 8  # factorial enumeration guard
# Largest n of VariableSet.inverse_squares: n = 700000 takes 3.4-4.3 s in a
# fresh process (2-vCPU host, Python 3.11.7), 10**6 5.1 s.
INVERSE_SQUARES_MAX = 700_000
# Largest k of newton_girard_check, by the same rule: k = 170 on
# inverse_squares(170) took 3.2-3.5 s, 171 3.1-3.7 s, 180 4.1-4.6 s.  Its
# cost is O(N k) operations on numbers that grow with k, and with N too: it
# also bounds N, the variable count (k = 170 on inverse_squares(N): N = 170
# 3.0 s, 180 3.6 s, 200 4.3 s, 240 7.7 s).
NEWTON_GIRARD_MAX = 170
# Largest N of elementary_symmetric and power_sum, whose k runs up to N:
# k = N on inverse_squares(N) took 2.2-2.3 s and 2.3-2.5 s at N = 350, 3.4 s
# for power_sum at 380, 3.6 s and 4.4 s at 400, 7.8 s and 10.5 s at 500.
VARIABLES_MAX = 350
# Largest N of cycle_index_elementary: k = 8 on inverse_squares(N) took
# 3.4-3.7 s at N = 4000, 4.5 s at 4500 and 5.5 s at 5000.
# INVERSE_SQUARES_MAX stays above every N bound: each is measured on
# inverse_squares(N), and its own value is set by the cost of building the set.
CYCLE_INDEX_VARIABLES_MAX = 4000


class VariableSet(tuple):
    """A finite tuple of rational variable values z_1..z_N, stored as Fractions.

    Every value must be an int or a Fraction, checked once when the set is built.
    """

    __slots__ = ()

    def __new__(cls, values):
        values = tuple(values)
        for v in values:
            if not is_exact(v):
                raise TypeError(f"variable {v!r} is not an int or a Fraction")
        if not values:
            raise ValueError("a variable set needs at least one variable")
        return super().__new__(cls, map(Fraction, values))

    @classmethod
    def inverse_squares(cls, n: int) -> "VariableSet":
        """The specialization z_m = 1/m^2 truncated to m <= n, for n within
        1..INVERSE_SQUARES_MAX."""
        check_index(n, 1, INVERSE_SQUARES_MAX, "n")
        return cls(Fraction(1, m * m) for m in range(1, n + 1))


def _elementary_row(vars: VariableSet, k: int) -> list[Fraction]:
    """[e_0, ..., e_k] by the stable product recurrence on prod(1 + z_i t)."""
    row = [Fraction(0)] * (k + 1)
    row[0] = Fraction(1)
    for z in vars:
        for j in range(k, 0, -1):
            row[j] += z * row[j - 1]
    return row


def elementary_symmetric(vars: VariableSet, k: int) -> Fraction:
    """e_k over the variables, by the stable product recurrence on prod(1 + z_i t),
    for k within 0..N, the variable count, and N within 1..VARIABLES_MAX.
    """
    check_index(k, 0, len(vars))
    check_index(len(vars), 1, VARIABLES_MAX, "N")
    return _elementary_row(vars, k)[k]


def _power_sum_row(vars: VariableSet, k: int) -> list[Fraction]:
    """[p_0, ..., p_k] on integers: with every z = a_z/D over one common
    denominator D, p_i = (sum_z a_z^i) / D^i, one Fraction per i."""
    den = math.lcm(*(z.denominator for z in vars))
    sums = [len(vars)] + [0] * k
    for z in vars:
        a = z.numerator * (den // z.denominator)
        power = 1
        for i in range(1, k + 1):
            power *= a
            sums[i] += power
    return [Fraction(s, den**i) for i, s in enumerate(sums)]


def power_sum(vars: VariableSet, k: int) -> Fraction:
    """p_k = sum z_i^k for k within 1..max(N, CYCLE_INDEX_MAX), N the variable
    count: every p_k that the Newton-Girard and cycle-index sums read.  N is
    within 1..VARIABLES_MAX."""
    check_index(k, 1, max(len(vars), CYCLE_INDEX_MAX))
    check_index(len(vars), 1, VARIABLES_MAX, "N")
    return _power_sum(vars, k)


def _power_sum(vars: VariableSet, k: int) -> Fraction:
    return sum((z**k for z in vars), Fraction(0))


def _partitions(n: int, largest: int | None = None):
    # descending partitions of n
    if largest is None:
        largest = n
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
    check_index(k, 1, CYCLE_INDEX_MAX)
    check_index(len(vars), 1, CYCLE_INDEX_VARIABLES_MAX, "N")
    psums = {j: _power_sum(vars, j) for j in range(1, k + 1)}
    total = Fraction(0)
    for parts in _partitions(k):
        mult = math.factorial(k)
        counts: dict[int, int] = {}
        for p in parts:
            counts[p] = counts.get(p, 0) + 1
        for j, m in counts.items():
            mult //= j**m * math.factorial(m)
        sign = -1 if (k - len(parts)) % 2 else 1
        term = Fraction(sign * mult)
        for p in parts:
            term *= psums[p]
        total += term
    return total / math.factorial(k)


def newton_girard_check(vars: VariableSet, k: int) -> tuple[Fraction, Fraction]:
    """The two sides (lhs, rhs) of the k-th Newton-Girard identity, exactly:

        (-1)^(k-1) p_k = k e_k - sum_{i<k} (-1)^(i-1) e_{k-i} p_i

    The identity holds when lhs == rhs.  One row e_0..e_k and one pass for
    p_1..p_k on integers over a common denominator, O(N k) operations.  k is
    within 1..min(N, NEWTON_GIRARD_MAX), and N, the variable count, within
    1..NEWTON_GIRARD_MAX.
    """
    check_index(k, 1, min(len(vars), NEWTON_GIRARD_MAX))
    check_index(len(vars), 1, NEWTON_GIRARD_MAX, "N")
    e = _elementary_row(vars, k)
    p = _power_sum_row(vars, k)
    lhs = p[k] * (-1 if k % 2 == 0 else 1)
    rhs = k * e[k]
    for i in range(1, k):
        term = e[k - i] * p[i]
        rhs -= term if i % 2 else -term
    return lhs, rhs
