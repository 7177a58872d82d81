"""Dense univariate polynomials with exact rational coefficients.

A Polynomial is the unique pair (content, primitive), the routes' own form:
a positive int or reduced Fraction, and the ascending int coefficients
(index i for x^i) with gcd 1, a nonzero last entry and every sign.  ZERO is
(0, ()), of degree None rather than a numeric sentinel.  .coeffs is built
when read: an integral coefficient as an ``int``, any other as a reduced
``Fraction``.  A float, bool or string as a coefficient, a content or an
evaluation point raises rationals.check_exact's TypeError.  Values are
immutable, so they are safe to share between threads and to use as dict keys;
== and the hash are the pair's, so a constant equals no scalar.
str() gives the text form, "65 + 60*x + 40*x^2", through
text.polynomial_text, which no route calls: text loads the first time a
value is printed.

There is no arithmetic: the routes add, multiply and divide by (x - c) on
int lists inside their own loops.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .rationals import check_exact, check_int

Scalar = Union[int, Fraction]


def _scalar(q: Scalar) -> Scalar:
    """An integral value as an int, any other as the Fraction itself."""
    return q.numerator if q.denominator == 1 else q


class Polynomial:
    __slots__ = ("content", "primitive")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = list(coeffs)
        for c in cs:
            check_exact(c, "coefficient")
        while cs and cs[-1] == 0:
            cs.pop()
        den = math.lcm(*(c.denominator for c in cs))
        content, primitive = split_content([c.numerator * (den // c.denominator) for c in cs])
        object.__setattr__(self, "content", _scalar(Fraction(content, den)))
        object.__setattr__(self, "primitive", tuple(primitive))

    @classmethod
    def from_parts(cls, content: Scalar, primitive: Iterable[int]) -> "Polynomial":
        """content * primitive from a route's own pair, checked as the module
        docstring states; positivity rests on the content's check."""
        primitive = tuple(primitive)
        check_exact(content, "content")
        if not content > 0:
            raise ValueError(f"content {content!r} is not a positive int or Fraction")
        ints = all(type(a) is int for a in primitive)
        if not (ints and primitive and primitive[-1] and math.gcd(*primitive) == 1):
            raise ValueError(f"primitive part {primitive!r} is not ints of gcd 1, nonzero last")
        self = object.__new__(cls)
        object.__setattr__(self, "content", _scalar(content))
        object.__setattr__(self, "primitive", primitive)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):  # loading builds the value again through a checking constructor
        return (Polynomial.from_parts, (self.content, self.primitive)) if self else (Polynomial, ())

    # -- basic structure ----------------------------------------------------

    @property
    def coeffs(self) -> tuple[Scalar, ...]:
        """The ascending coefficients, trailing zeros trimmed."""
        return tuple(_scalar(self.content * a) for a in self.primitive)

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial."""
        return len(self.primitive) - 1 if self.primitive else None

    def __bool__(self) -> bool:
        return bool(self.primitive)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.primitive == other.primitive and self.content == other.content
        return NotImplemented

    def __hash__(self):
        return hash((self.content, self.primitive))

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"

    def evaluate(self, x0: Scalar) -> Scalar:
        """Exact value at x0: the content times Horner's rule on the primitive part."""
        check_exact(x0, "x0")
        acc = 0
        for a in reversed(self.primitive):
            acc = acc * x0 + a
        return self.content * acc

    # -- canonical text / JSON forms -----------------------------------------

    def __str__(self) -> str:
        from .text import polynomial_text

        return polynomial_text(self.coefficient_strings())

    def coefficient_strings(self) -> list[str]:
        """Ascending coefficients as canonical rational strings (JSON form)."""
        return [str(c) for c in self.coeffs]


def taylor_shift(coeffs: Sequence[int], a: int, b: int, d: int = 1) -> list[int]:
    """The ascending int coefficients of D^n * p((A*x + B)/D), for p with the
    ascending int coefficients coeffs, n = len(coeffs) - 1 and D >= 1:

        D^n * p((A*x + B)/D) = sum_i c_i * D^(n-i) * (A*x + B)^i,

    by n synthetic-division passes by B over one list, the descending
    c_i * D^(n-i), then A^i on the i-th ascending entry.  The zero
    polynomial, no coefficients, gives none.
    """
    check_int(a, "a")
    check_int(b, "b")
    check_int(d, "d")
    if d < 1:
        raise ValueError(f"d={d} is not positive")
    for i, c in enumerate(coeffs):
        if type(c) is not int:  # names the entry only for a value check_int may refuse
            check_int(c, f"coeffs[{i}]")
    s = [c * d**i for i, c in enumerate(reversed(coeffs))]  # descending: c_i * D^(n-i)
    for stop in range(len(s) - 1, 0, -1):  # s(y + B), one synthetic pass per degree
        for t in range(1, stop + 1):
            s[t] += b * s[t - 1]
    return [c * a**i for i, c in enumerate(reversed(s))]  # y = A*x


def split_content(coeffs: Sequence[int]) -> tuple[int, list[int]]:
    """(c, p) with coeffs = c * p entrywise: the content c >= 0, the gcd of
    the ints, and the primitive part p, whose gcd is 1.  Signs stay in p;
    for no nonzero entry c is 0 and p is the entries themselves."""
    content = math.gcd(*coeffs)
    if content > 1:
        return content, [a // content for a in coeffs]
    return content, list(coeffs)


ZERO = Polynomial()
