"""Reference values and output checkers, computed apart from evenzeta.

Nothing here imports the package under test.  The Bernoulli numbers come
from the integer tangent-number algorithm (Brent & Harvey, "Fast
computation of Bernoulli, Tangent and Secant numbers", arXiv:1108.0286),
which the program does not use; every other reference value is derived
from them.  The per-tree replay re-implements the paper's low/high/weight
rule on plain Python sets so that transforms of arbitrary rational
sequences can be checked at small k.

Each checker raises Mismatch with a short description of the first
disagreement and returns None otherwise.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Sequence


class Mismatch(Exception):
    """An output of the program disagrees with the reference."""


def tangent_numbers(n: int) -> list[int]:
    """Tangent numbers T_1..T_n (list index i holds T_i; index 0 unused)."""
    t = [0] * (n + 1)
    if n >= 1:
        t[1] = 1
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t


def bernoulli_even(n: int) -> list[Fraction]:
    """B_2, B_4, ..., B_2n as a list whose index k holds B_2k (index 0 unused).

    B_2k = (-1)^(k-1) * 2k * T_k / (4^k * (4^k - 1)).
    """
    t = tangent_numbers(n)
    out = [Fraction(1)]
    for k in range(1, n + 1):
        sign = 1 if k % 2 else -1
        out.append(Fraction(sign * 2 * k * t[k], 4**k * (4**k - 1)))
    return out


class Reference:
    """A_k, the double-factorial tower and 2*zeta(2k)/pi^(2k) for k <= kmax."""

    def __init__(self, kmax: int):
        self.kmax = kmax
        self.b2k = bernoulli_even(kmax)
        self.tower = [1]  # prod_{i<=k} (2i+1)!!
        odd = 1
        for i in range(1, kmax + 1):
            odd *= 2 * i + 1
            self.tower.append(self.tower[-1] * odd)
        self.a = [0]
        for k in range(1, kmax + 1):
            ratio = self.zeta_ratio(k)
            value = ratio * self.tower[k]
            if value.denominator != 1:
                raise ArithmeticError(f"reference A_{k} is not an integer")
            self.a.append(value.numerator)

    def zeta_ratio(self, k: int) -> Fraction:
        """2*zeta(2k)/pi^(2k) = (-1)^(k+1) * B_2k * 2^(2k) / (2k)!."""
        sign = 1 if k % 2 else -1
        return sign * self.b2k[k] * 2 ** (2 * k) / math.factorial(2 * k)

    def _need(self, k: int) -> None:
        if not 1 <= k <= self.kmax:
            raise Mismatch(f"k={k} is beyond the reference range 1..{self.kmax}")


def _as_fractions(coeffs) -> list[Fraction]:
    return [Fraction(c) for c in coeffs]


def _horner(coeffs: Sequence[Fraction], x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def check_numerators(ref: Reference, values: Sequence[int], first: int = 1) -> None:
    """values[i] must equal A_{first+i}, exactly and as an int."""
    for i, got in enumerate(values):
        k = first + i
        ref._need(k)
        if type(got) is not int or got != ref.a[k]:
            raise Mismatch(f"A_{k} differs from the reference value")


def check_polynomial(ref: Reference, k: int, coeffs) -> None:
    """P_k has degree k-2, leading coefficient 2^(k-2) A_{k-1}, and P_k(k) = A_k."""
    ref._need(k)
    cs = _as_fractions(coeffs)
    if k < 2:
        if cs != [1]:
            raise Mismatch(f"P_{k}: expected the constant 1, got {cs}")
        return
    if len(cs) != k - 1:
        raise Mismatch(f"P_{k}: degree {len(cs) - 1}, expected {k - 2}")
    if cs[-1] != 2 ** (k - 2) * ref.a[k - 1]:
        raise Mismatch(f"P_{k}: leading coefficient {cs[-1]} is not 2^{k - 2} A_{k - 1}")
    if _horner(cs, k) != ref.a[k]:
        raise Mismatch(f"P_{k}({k}) is not A_{k}")


def check_translated(ref: Reference, k: int, coeffs) -> None:
    """The half-scale translated form q(x) = P_k(x/2 + k - 3/2).

    Its coefficients are all positive, its degree is k-2, and q(3) = P_k(k) = A_k.
    """
    ref._need(k)
    cs = _as_fractions(coeffs)
    if len(cs) != max(k - 1, 1):
        raise Mismatch(f"translated P_{k}: degree {len(cs) - 1}, expected {max(k - 2, 0)}")
    bad = [str(c) for c in cs if c <= 0]
    if bad:
        raise Mismatch(f"translated P_{k}: nonpositive coefficients {bad[:3]}")
    if _horner(cs, 3) != ref.a[k]:
        raise Mismatch(f"translated P_{k} at x=3 is not A_{k}")


def check_odd_transform(ref: Reference, k: int, value) -> None:
    """The odd-sequence transform equals 2*zeta(2k)/pi^(2k)."""
    ref._need(k)
    if Fraction(value) != ref.zeta_ratio(k):
        raise Mismatch(f"odd transform at k={k}: got {value}, expected {ref.zeta_ratio(k)}")


def check_equal(what: str, got, expected) -> None:
    if got != expected:
        raise Mismatch(f"{what} differs from the expected value")


def check_scaling(k: int, value, scaled, c: Fraction) -> None:
    """Scaling every sequence value by c scales the transform by c^-(2k-1)."""
    expected = Fraction(value) * Fraction(c) ** -(2 * k - 1)
    if Fraction(scaled) != expected:
        raise Mismatch(f"transform at k={k} does not scale by c^-{2 * k - 1} for c={c}")


def level_sequences(k: int) -> Iterator[tuple[int, ...]]:
    """Plane trees on k vertices as attachment levels (l_2..l_k), l_2 = 1, l_{t+1} <= l_t + 1."""
    if k == 1:
        yield ()
        return
    stack = [(1,)]
    while stack:
        levels = stack.pop()
        if len(levels) == k - 1:
            yield levels
            continue
        for lv in range(levels[-1] + 1, 0, -1):
            stack.append(levels + (lv,))


def replay_tree(levels: tuple[int, ...], values: Sequence[Fraction]) -> tuple[frozenset, Fraction]:
    """Replay one tree's growth with the paper's rule; return (low set, weight).

    Adding vertex t at level i: s1 is the previous low set shifted by one
    position; the new low set is s1 plus the smallest free positions of
    {1..t-2} up to t-1-i members; the high set is s1 plus the i-1 largest
    free positions of {2..t-1}; the weight gains the values over the high set.
    """
    low: frozenset = frozenset()
    weight = Fraction(1)
    for t in range(3, len(levels) + 2):
        i = levels[t - 2]
        s1 = {n + 1 for n in low}
        free_low = sorted(n for n in range(1, t - 1) if n not in s1)
        free_high = sorted((n for n in range(2, t) if n not in s1), reverse=True)
        new_low = s1 | set(free_low[: t - 1 - i - len(s1)])
        high = s1 | set(free_high[: i - 1])
        for n in high:
            weight *= values[n - 1]
        low = frozenset(new_low)
    return low, weight


def replay_transform(k: int, values: Sequence[Fraction]) -> Fraction:
    """The sequence transform summed tree by tree (values[n-1] is R_n).

    sum over trees of weight * prod_{n in low} R_{n+1}, divided by
    prod_{j=1}^{k} prod_{i=1}^{j} R_i.
    """
    numerator = Fraction(0)
    for levels in level_sequences(k):
        low, weight = replay_tree(levels, values)
        term = weight
        for n in low:
            term *= values[n]
        numerator += term
    denominator = Fraction(1)
    running = Fraction(1)
    for j in range(k):
        running *= values[j]
        denominator *= running
    return numerator / denominator


def check_verify_record(record: dict, suites: Sequence[str]) -> None:
    """`verify --suite all --format json`: status ok, passed, every suite present and passed."""
    if record.get("status") != "ok":
        raise Mismatch(f"verify status {record.get('status')!r}")
    result = record.get("result", {})
    if result.get("passed") is not True:
        raise Mismatch("verify reported passed != true")
    reports = result.get("suites", [])
    names = [r.get("suite") for r in reports]
    if sorted(names) != sorted(suites):
        raise Mismatch(f"verify ran suites {names}, expected {list(suites)}")
    failed = [r.get("suite") for r in reports if r.get("passed") is not True]
    if failed:
        raise Mismatch(f"verify suites failed: {failed}")
