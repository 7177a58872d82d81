"""Brute-force symmetric-function checks on finitely many variables.

Everything here works over a concrete tuple of rational variables, so the
classical identities relating elementary symmetric functions, power sums and
the symmetric group can be verified exactly.  They are polynomial identities
and therefore hold for every finite truncation; no analysis is involved.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .rationals import is_exact

__all__ = [
    "VariableSet",
    "Permutation",
    "symmetric_group",
    "elementary_symmetric",
    "power_sum",
    "cycle_index_elementary",
    "newton_girard_check",
    "NewtonGirardResult",
    "CYCLE_INDEX_MAX",
]

CYCLE_INDEX_MAX = 8  # factorial enumeration guard


@dataclass(frozen=True)
class VariableSet:
    """A finite tuple of rational variable values z_1..z_N (ints or Fractions)."""

    values: tuple[Fraction, ...]

    def __init__(self, values):
        vals = tuple(values)
        for v in vals:
            if not is_exact(v):
                raise TypeError(f"variable {v!r} is not an int or a Fraction")
        vals = tuple(Fraction(v) for v in vals)
        if not vals:
            raise ValueError("a variable set needs at least one variable")
        object.__setattr__(self, "values", vals)

    @classmethod
    def inverse_squares(cls, n: int) -> "VariableSet":
        """The specialization z_m = 1/m^2 truncated to m <= n."""
        return cls(Fraction(1, m * m) for m in range(1, n + 1))

    @property
    def size(self) -> int:
        return len(self.values)


class Permutation:
    """A bijection on {1..k} with derived cycles and signature."""

    __slots__ = ("image",)

    def __init__(self, image: Sequence[int]):
        image = tuple(image)
        k = len(image)
        if sorted(image) != list(range(1, k + 1)):
            raise ValueError(f"not a bijection on 1..{k}: {image}")
        object.__setattr__(self, "image", image)

    def __call__(self, i: int) -> int:
        return self.image[i - 1]

    def __len__(self) -> int:
        return len(self.image)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.image == other.image

    def __hash__(self):
        return hash(self.image)

    def __repr__(self):
        return f"Permutation({list(self.image)!r})"

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition self after other."""
        if len(self) != len(other):
            raise ValueError("size mismatch")
        return Permutation(tuple(self(other(i)) for i in range(1, len(self) + 1)))

    @property
    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Cycle decomposition; each cycle starts at its least element."""
        seen = [False] * len(self.image)
        out = []
        for start in range(1, len(self.image) + 1):
            if seen[start - 1]:
                continue
            cyc = [start]
            seen[start - 1] = True
            j = self(start)
            while j != start:
                cyc.append(j)
                seen[j - 1] = True
                j = self(j)
            out.append(tuple(cyc))
        return tuple(out)

    @property
    def sign(self) -> int:
        """prod over cycles of (-1)^(len-1), i.e. the permutation parity."""
        s = 1
        for cyc in self.cycles:
            if (len(cyc) - 1) % 2:
                s = -s
        return s


def symmetric_group(k: int) -> Iterator[Permutation]:
    """All k! permutations of {1..k}, in lexicographic image order."""
    for image in itertools.permutations(range(1, k + 1)):
        yield Permutation(image)


def elementary_symmetric(vars: VariableSet, k: int) -> Fraction:
    """e_k over the variables, by the stable product recurrence on prod(1 + z_i t).

    k larger than the variable count is an error.
    """
    n = vars.size
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > n:
        raise ValueError(f"e_{k} needs at least {k} variables, got {n}")
    row = [Fraction(0)] * (k + 1)
    row[0] = Fraction(1)
    for z in vars.values:
        for j in range(k, 0, -1):
            row[j] += z * row[j - 1]
    return row[k]


def power_sum(vars: VariableSet, k: int) -> Fraction:
    """p_k = sum z_i^k for k >= 1."""
    if k < 1:
        raise ValueError("power sums are defined for k >= 1")
    return sum((z**k for z in vars.values), Fraction(0))


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


def cycle_index_elementary(
    vars: VariableSet, k: int, *, mode: str = "cycle-types"
) -> Fraction:
    """e_k recovered as (1/k!) sum over S_k of sgn(sigma) * prod p_{cycle length}.

    mode "cycle-types" groups the sum by cycle type with the multiplicity
    k! / (prod_j j^{m_j} m_j!); mode "permutations" walks all k! elements.
    Both must agree; the second exists to cross-check the counting.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > CYCLE_INDEX_MAX:
        raise ValueError(
            f"k={k} exceeds the enumeration bound {CYCLE_INDEX_MAX}; "
            "use elementary_symmetric"
        )
    psums = {j: power_sum(vars, j) for j in range(1, k + 1)}
    if mode == "permutations":
        total = Fraction(0)
        for sigma in symmetric_group(k):
            term = Fraction(sigma.sign)
            for cyc in sigma.cycles:
                term *= psums[len(cyc)]
            total += term
        return total / math.factorial(k)
    if mode != "cycle-types":
        raise ValueError(f"unknown mode {mode!r}")
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


@dataclass(frozen=True)
class NewtonGirardResult:
    """Outcome of one Newton-Girard identity check, with both sides as witness."""

    k: int
    lhs: Fraction
    rhs: Fraction

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs

    def __bool__(self) -> bool:
        return self.passed


def newton_girard_check(vars: VariableSet, k: int) -> NewtonGirardResult:
    """Check (-1)^(k-1) p_k = k e_k - sum_{i<k} (-1)^(i-1) e_{k-i} p_i exactly."""
    if not 1 <= k <= vars.size:
        raise ValueError(f"need 1 <= k <= {vars.size}, got {k}")
    lhs = power_sum(vars, k) * (-1 if k % 2 == 0 else 1)
    rhs = k * elementary_symmetric(vars, k)
    for i in range(1, k):
        term = elementary_symmetric(vars, k - i) * power_sum(vars, i)
        rhs -= term if i % 2 else -term
    return NewtonGirardResult(k=k, lhs=lhs, rhs=rhs)
