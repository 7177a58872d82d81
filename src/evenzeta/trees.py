"""Plane trees, their low/high/weight data, and the sequence transform.

A plane tree on k vertices is encoded by its attachment-level sequence
(l_2, ..., l_k): grow the tree one vertex at a time, always attaching the
new vertex so that it becomes the last vertex of the preorder traversal,
and record its level.  Validity means l_2 = 1 and 1 <= l_{t+1} <= l_t + 1,
and the valid sequences for k vertices are counted by the Catalan number
C_{k-1}.  Deleting the last preorder vertex truncates the sequence by one,
which turns the deletion recursion for the low/high sets into a
left-to-right replay.

Replay step, in index-set form (positions into the value sequence): let s1
be the shifted low set of the k-1 vertex tree and i the level of the new
k-th vertex.  Then

    low  = s1 + enough smallest positions of {1..k-2} - s1 to reach k-1-i members
    high = s1 + the i-1 greatest positions of {2..k-1} - s1
    weight *= product of the values over high

For the default odd sequence, summing weight * (value product over the
shifted low set) over all k-vertex trees yields the zeta numerator;
keeping the low sets as polynomial factors instead reproduces the k-th
recursion polynomial term by term.

The future of the replay depends only on the current low set (its size
fixes the level of the last vertex), so whole families are aggregated by
folding weights per low set one vertex at a time (the generating-tree /
transfer-matrix method) instead of walking the C_{k-1} trees one by one.

Each tree's term, its weight times the product over its shifted low set,
is a product of (k-1)(k-2)/2 values, and the transform's denominator is
a product of k(k+1)/2.  Scaling every value by d therefore scales the transform by
d^-(2k-1), so a rational sequence is folded as the integers d*R_n (d the
least common multiple of the denominators) and divided back once at the
end: the fold never builds a Fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .polynomials import Polynomial
from .recursion import IndexSet, factor_product
from .sequences import ODD_NUMBERS, SequenceSpec, Value

ENUMERATION_MAX = 16  # Catalan growth guard for tree streams
TREE_SUM_MAX = 15  # guard for whole-family aggregations

__all__ = [
    "PlaneTree",
    "TreeData",
    "catalan",
    "enumerate_trees",
    "tree_data",
    "polynomial_via_trees",
    "generalized_transform",
    "ENUMERATION_MAX",
    "TREE_SUM_MAX",
]


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


@dataclass(frozen=True)
class PlaneTree:
    """A plane tree encoded by its attachment-level sequence (empty for k=1)."""

    levels: tuple[int, ...]

    def __init__(self, levels=()):
        levels = tuple(levels)
        for t, lv in enumerate(levels):
            upper = levels[t - 1] + 1 if t > 0 else 1
            if not 1 <= lv <= upper:
                raise ValueError(
                    f"invalid level sequence {levels}: entry {t} is {lv}, allowed 1..{upper}"
                )
        object.__setattr__(self, "levels", levels)

    @property
    def vertex_count(self) -> int:
        return len(self.levels) + 1

    def __str__(self):
        return ",".join(str(lv) for lv in self.levels) or "."


@dataclass(frozen=True)
class TreeData:
    """Low/high sets and the accumulated weight of one plane tree."""

    low: IndexSet
    high: IndexSet
    weight: Value


def enumerate_trees(k: int) -> Iterator[PlaneTree]:
    """All plane trees on k vertices, lazily, in lexicographic level order."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > ENUMERATION_MAX:
        raise ValueError(
            f"k={k} would enumerate {catalan(k - 1)} trees, "
            f"beyond the bound {ENUMERATION_MAX}"
        )

    def rec(prefix: list[int]) -> Iterator[PlaneTree]:
        if len(prefix) == k - 1:
            yield PlaneTree(prefix)
            return
        for lv in range(1, prefix[-1] + 2):
            prefix.append(lv)
            yield from rec(prefix)
            prefix.pop()

    if k == 1:
        yield PlaneTree(())
    else:
        yield from rec([1])


def tree_data(tree: PlaneTree, seq: SequenceSpec = ODD_NUMBERS) -> TreeData:
    """Replay the attachment history of one tree (reference implementation).

    The state fold aggregates the same recursion over whole families; this
    per-tree version is what it is validated against.
    """
    low: set[int] = set()
    high: set[int] = set()
    weight: Value = 1
    levels = tree.levels
    for t in range(3, tree.vertex_count + 1):
        i = levels[t - 2]
        s1 = {n + 1 for n in low}
        low_pool = [n for n in range(1, t - 1) if n not in s1]
        high_pool = [n for n in range(2, t) if n not in s1]
        need = (t - 1 - i) - len(s1)
        high = s1 | set(high_pool[len(high_pool) - (i - 1) :] if i > 1 else [])
        low = s1 | set(low_pool[:need])
        weight = weight * seq.product(high)
    return TreeData(low=IndexSet(low), high=IndexSet(high), weight=weight)


def _low_weight_table(k: int, values: list) -> dict:
    """Map each low mask reachable on k vertices to the summed weight of its trees.

    Sets of positions are bitmasks (bit n-1 marks position n) and values[n-1]
    is the value at position n.  The replay of tree_data is folded by state:
    states maps a low mask to the summed weight of the trees reaching it,
    and grows by one vertex per step, so step t holds at most 2^(t-2)
    states rather than C_{t-1} trees.

    With s1 the shifted low mask of a tree on t-1 vertices, the positions
    of {1..t-1} outside s1 are free.  A new vertex at level i puts the i-1
    greatest free positions into high (with s1) and all but the i greatest
    into low (with s1), and multiplies the weight by the values over the
    high mask.  The low set then has t-1-i members, so its size fixes the
    level of the last vertex and the mask alone is the state: its free
    positions number one more than that level, and bound the next one.
    """
    states: dict = {0: 1}  # the one tree on 2 vertices
    for t in range(3, k + 1):
        nxt: dict = {}
        for low, wt in states.items():
            s1 = low << 1
            free = [n for n in range(t - 1) if not s1 >> n & 1]
            for n in range(1, t - 1):
                if s1 >> n & 1:
                    wt = wt * values[n]
            highs = [wt]  # highs[j]: weight with the j greatest free positions high
            for n in reversed(free[1:]):
                highs.append(highs[-1] * values[n])
            mask = s1
            for i in range(len(free), 0, -1):
                nxt[mask] = nxt.get(mask, 0) + highs[i - 1]
                mask |= 1 << free[len(free) - i]
        states = nxt
    return states


def _check_sum_bound(k: int, lo: int = 2) -> None:
    if not lo <= k <= TREE_SUM_MAX:
        count = f" (k={k} means {catalan(k - 1)} trees)" if k >= 1 else ""
        raise ValueError(f"k={k} outside {lo}..{TREE_SUM_MAX}{count}")


def polynomial_via_trees(k: int) -> Polynomial:
    """The k-th recursion polynomial assembled as a tree sum.

    Sums weight * factor_product(low, k-1) over all k-vertex trees, after
    folding the trees by low set so each distinct factor is expanded once.
    """
    _check_sum_bound(k)
    table = _low_weight_table(k, ODD_NUMBERS.values_upto(k))
    out = Polynomial()
    for mask in sorted(table):
        out = out + table[mask] * factor_product(IndexSet.from_mask(mask), k - 1)
    return out


def generalized_transform(k: int, seq: SequenceSpec = ODD_NUMBERS) -> Fraction:
    """The tree-sum transform of an arbitrary nonzero value sequence.

    Needs values at positions 1..k.  Returns

        sum over k-vertex trees of weight * product(low shifted)
        -----------------------------------------------------------
        prod_{j=1}^{k} (product of the values at positions 1..j)

    For the default odd sequence this equals 2*zeta(2k)/pi^(2k), and the
    value times double_factorial_product(k) is the zeta numerator A_k.

    Every numerator term has degree (k-1)(k-2)/2 in the values and the
    denominator has degree k(k+1)/2, so the transform of d*R is d^-(2k-1)
    times that of R.  The fold runs on the integers d*R_1..d*R_k, with d
    the least common multiple of their denominators (1 for an integer
    sequence), and the one factor d^(2k-1) restores the transform of R as
    a reduced Fraction.
    """
    _check_sum_bound(k, 1)
    values = seq.values_upto(k)  # validates presence and nonzero-ness
    scale = math.lcm(*(v.denominator for v in values))
    values = [v.numerator * (scale // v.denominator) for v in values]
    numerator = 0
    for mask, wt in _low_weight_table(k, values).items():
        for n in range(mask.bit_length()):
            if mask >> n & 1:
                wt *= values[n + 1]  # bit n is position n+1, shifted to n+2
        numerator += wt
    denominator = 1
    running = 1
    for v in values:
        running *= v
        denominator *= running
    return Fraction(numerator * scale ** (2 * k - 1), denominator)
