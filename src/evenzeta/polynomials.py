"""Dense univariate polynomials with exact rational coefficients.

Coefficients are stored ascending (index i holds the coefficient of x^i)
with trailing zeros trimmed; the zero polynomial is the empty tuple and its
degree is None rather than a numeric sentinel.  Coefficients are exact:
an integral one is stored as an ``int`` (integer polynomials run on integer
arithmetic), any other as a reduced ``Fraction``, and a float, bool or string
raises TypeError.  Values are immutable, so they are safe to share between
threads and to use as dict keys.

There is no polynomial division: the routes divide by (x - c) inside their
own integer loops, and raise InexactDivisionError for a nonzero remainder,
an internal consistency violation rather than something to truncate.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .rationals import is_exact

Scalar = Union[int, Fraction]

__all__ = [
    "Polynomial",
    "InexactDivisionError",
    "polynomial_text",
    "split_content",
    "taylor_shift",
    "ONE",
    "ZERO",
]


class InexactDivisionError(ArithmeticError):
    """Raised when an exact division leaves a nonzero remainder."""


class Polynomial:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = []
        for c in coeffs:
            if type(c) is not int:
                if not is_exact(c):
                    raise TypeError(f"coefficient {c!r} is not an int or a Fraction")
                if c.denominator == 1:
                    c = c.numerator
            cs.append(c)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- basic structure ----------------------------------------------------

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def coefficient(self, i: int) -> Scalar:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        if is_exact(other):  # a bool is not a constant polynomial
            return self == Polynomial((other,))
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(-c for c in self.coeffs)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if not self.coeffs or not other.coeffs:
                return ZERO
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Polynomial(out)
        if is_exact(other):  # a bool is not a scalar
            return Polynomial(c * other for c in self.coeffs)
        return NotImplemented

    __rmul__ = __mul__

    def evaluate(self, x0: Scalar) -> Scalar:
        """Exact value at x0, by Horner's rule."""
        if not is_exact(x0):
            raise TypeError(f"evaluation point {x0!r} is not an int or a Fraction")
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x0 + c
        return acc

    # -- canonical text / JSON forms -----------------------------------------

    def __str__(self) -> str:
        return polynomial_text(self.coefficient_strings())

    def coefficient_strings(self) -> list[str]:
        """Ascending coefficients as canonical rational strings (JSON form)."""
        return [str(c) for c in self.coeffs]


def taylor_shift(coeffs: Sequence[int], a: int, b: int, d: int = 1) -> list[int]:
    """The ascending int coefficients of D^n * p((A*x + B)/D), for p with the
    ascending int coefficients coeffs, n = len(coeffs) - 1 and D >= 1:

        D^n * p((A*x + B)/D) = sum_i c_i * D^(n-i) * (A*x + B)^i,

    by Horner's rule on int lists.  The zero polynomial, no coefficients,
    gives none.
    """
    acc: list[int] = []
    scale = 1  # D^(n-i)
    for c in reversed(coeffs):
        # acc * (A*x + B) + c_i * D^(n-i)
        acc = [a * lo + b * hi for lo, hi in zip([0] + acc, acc + [0])]
        acc[0] += c * scale
        scale *= d
    return acc


def split_content(coeffs: Sequence[int]) -> tuple[int, list[int]]:
    """(c, p) with coeffs = c * p entrywise: the content c >= 0, the gcd of
    the ints, and the primitive part p, whose gcd is 1.  Signs stay in p;
    for no nonzero entry c is 0 and p is the entries themselves."""
    content = math.gcd(*coeffs)
    if content > 1:
        return content, [a // content for a in coeffs]
    return content, list(coeffs)


def polynomial_text(strings: list[str]) -> str:
    """The text form, e.g. "65 + 60*x + 40*x^2", from the ascending coefficient strings."""
    parts: list[str] = []
    for i, text in enumerate(strings):
        if text == "0":
            continue
        negative = text.startswith("-")
        mag = text[1:] if negative else text
        if i == 0:
            body = mag
        elif mag == "1":
            body = "x" if i == 1 else f"x^{i}"
        else:
            body = f"{mag}*x" if i == 1 else f"{mag}*x^{i}"
        if not parts:
            parts.append(f"-{body}" if negative else body)
        else:
            parts.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(parts) or "0"


ZERO = Polynomial()
ONE = Polynomial((1,))
