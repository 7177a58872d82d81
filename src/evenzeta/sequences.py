"""Value sequences for the tree route.

The tree replay works on positions n = 1, 2, 3, ... into an abstract
sequence of nonzero values; a SequenceSpec supplies the value at each
position.  The default sequence is the odd numbers 3, 5, 7, ... (value 2n+1
at position n), and the "shift by two" operation on a set of odd values is
then exactly the position shift n -> n+1, which is how the shift
generalizes to arbitrary sequences.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence, Union

from .rationals import check_int, is_exact, parse_rational

Value = Union[int, Fraction]

__all__ = ["SequenceSpec", "ODD_NUMBERS"]


class SequenceSpec:
    """Supplies the value R_n for each position n >= 1.

    Backed either by a callable n -> value or by a finite list of values
    (position n at list index n-1).  Every accessed value must be a nonzero
    int or Fraction; floats and bools are rejected, so no inexact value
    enters the computation.
    """

    __slots__ = ("_fn", "_values")

    def __init__(self, source: Union[Callable[[int], Value], Sequence[Value]]):
        if callable(source):
            self._fn = source
            self._values = None
        else:
            self._fn = None
            self._values = tuple(source)

    @classmethod
    def from_file(cls, path: str) -> "SequenceSpec":
        """Load values from a text file, one canonical rational per line.

        Line n supplies the value at position n.  Blank or malformed lines
        and zero values are rejected with the offending line number.
        """
        values: list[Fraction] = []
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.strip()
                if not text:
                    raise ValueError(f"{path}:{lineno}: blank line in sequence file")
                try:
                    value = parse_rational(text)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from exc
                if value == 0:
                    raise ValueError(f"{path}:{lineno}: sequence value must be nonzero")
                values.append(value)
        if not values:
            raise ValueError(f"{path}: empty sequence file")
        return cls(values)

    def value(self, n: int) -> Value:
        check_int(n, "position")
        if n < 1:
            raise ValueError(f"sequence positions start at 1, got {n}")
        if self._values is not None:
            if n > len(self._values):
                raise ValueError(
                    f"sequence supplies only {len(self._values)} values; position {n} needed"
                )
            v = self._values[n - 1]
        else:
            v = self._fn(n)
        if not is_exact(v):
            raise ValueError(
                f"sequence value at position {n} is {v!r}; only int and Fraction are exact"
            )
        if v == 0:
            raise ValueError(f"sequence value at position {n} is zero")
        return v

    def values_upto(self, n: int) -> list[Value]:
        """Values at positions 1..n as a list (list index n-1 holds position n)."""
        return [self.value(i) for i in range(1, n + 1)]

    def product(self, positions) -> Value:
        """Product of the values at the given positions (1 for an empty set)."""
        out: Value = 1
        for n in positions:
            out = out * self.value(n)
        return out


ODD_NUMBERS = SequenceSpec(lambda n: 2 * n + 1)
