"""Plane trees one by one: their low/high/weight data by replay.

A plane tree on k vertices is encoded by its attachment-level sequence
(l_2, ..., l_k): grow the tree one vertex at a time, always attaching the
new vertex so that it becomes the last vertex of the preorder traversal,
and record its level.  Validity means l_2 = 1 and 1 <= l_{t+1} <= l_t + 1,
and the valid sequences for k vertices are counted by the Catalan number
C_{k-1}.  Deleting the last preorder vertex truncates the sequence by one,
which turns the deletion recursion for the low/high sets into a
left-to-right replay.

Replay step, on sets of positions into the value sequence: let s1 be the
shifted low set of the k-1 vertex tree and i the level of the new k-th
vertex.  Then

    low  = s1 + enough smallest positions of {1..k-2} - s1 to reach k-1-i members
    high = s1 + the i-1 greatest positions of {2..k-1} - s1
    weight *= product of the values over high

The positions index a trees.SequenceSpec of nonzero values R_1, R_2, ...,
by default the odd numbers.  For them, summing weight * (value product over
the shifted low set) over all k-vertex trees yields the zeta numerator;
keeping the low sets as polynomial factors instead reproduces the k-th
recursion polynomial term by term: one replay step (_replay_step), summed
over its picks with the low positions as factors, is one operator step.

This per-tree replay is the reference that the tree route's first-return
convolution (trees.generalized_transform, tree_polynomial.polynomial_via_trees)
is checked against.  It reads the route's values and bound from trees, and
neither tree module calls anything here.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

from .bounds import ENUMERATION_MAX, TRANSFORM_MAX
from .rationals import check_index, check_int, check_type
from .trees import ODD_NUMBERS, SequenceSpec, Value


def catalan(n: int) -> int:
    """C_n, the number of plane trees on n+1 vertices, for n within
    0..TRANSFORM_MAX-1 (the all-ones transform counts the same trees)."""
    check_index(n, 0, TRANSFORM_MAX - 1, "n")
    return math.comb(2 * n, n) // (n + 1)


class PlaneTree(tuple):
    """A plane tree as the tuple of its attachment levels (empty for k=1), checked when built."""

    __slots__ = ()

    def __new__(cls, levels=()):
        levels = tuple(levels)
        for t, lv in enumerate(levels):
            check_int(lv, f"levels[{t}]")
            upper = levels[t - 1] + 1 if t > 0 else 1
            if not 1 <= lv <= upper:
                raise ValueError(
                    f"invalid level sequence {levels}: entry {t} is {lv}, allowed 1..{upper}"
                )
        return super().__new__(cls, levels)

    @property
    def levels(self) -> tuple[int, ...]:
        return tuple(self)

    @property
    def vertex_count(self) -> int:
        return len(self) + 1

    def __str__(self):
        return ",".join(map(str, self)) or "."


class TreeData(NamedTuple):
    """Low/high positions (sorted) and the accumulated weight of one plane tree."""

    low: tuple[int, ...]
    high: tuple[int, ...]
    weight: Value


def enumerate_trees(k: int) -> Iterator[PlaneTree]:
    """All plane trees on k vertices, lazily, in lexicographic level order, for k
    within 1..ENUMERATION_MAX (checked when the first tree is drawn)."""
    check_index(k, 1, ENUMERATION_MAX)

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


def _replay_step(s1: set[int], k: int, j: int) -> tuple[set[int], set[int]]:
    """The low and high sets of one replay step, for the k-th step operator.

    s1 is the shifted low set.  low is s1 plus the j smallest positions of
    {1..k-1} outside s1; high is s1 plus the k-1-|s1|-j greatest positions
    of {2..k} outside s1.  The pools {1..k} would give the same picks for
    every j in 0..k-1-|s1|: position 1 is never among the greatest and
    position k never among the smallest.
    """
    low_pool = [n for n in range(1, k) if n not in s1]
    high_pool = [n for n in range(2, k + 1) if n not in s1]
    high_count = k - 1 - len(s1) - j
    low = s1 | set(low_pool[:j])
    high = s1 | set(high_pool[len(high_pool) - high_count :] if high_count else [])
    return low, high


def tree_data(tree: PlaneTree, seq: SequenceSpec = ODD_NUMBERS) -> TreeData:
    """Replay the attachment history of one tree (reference implementation).

    A k-vertex tree needs values at positions 1..k-1, and k is within
    1..TRANSFORM_MAX, the positions the transform reads.  The first-return
    recurrence sums the same replay over whole families; this per-tree
    version is what it is validated against.
    """
    check_type(tree, PlaneTree, "tree")
    check_type(seq, SequenceSpec, "seq")
    check_index(tree.vertex_count, 1, TRANSFORM_MAX, "vertex_count")
    values = seq.values_upto(tree.vertex_count - 1)
    low: set[int] = set()
    high: set[int] = set()
    weight: Value = 1
    for t in range(3, tree.vertex_count + 1):
        s1 = {n + 1 for n in low}
        # vertex t at level i is step t-1 of the operator, with i-1 high picks
        low, high = _replay_step(s1, t - 1, t - 1 - tree[t - 2] - len(s1))
        weight = weight * math.prod(values[n - 1] for n in high)
    return TreeData(low=tuple(sorted(low)), high=tuple(sorted(high)), weight=weight)
