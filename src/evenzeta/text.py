"""The package's text forms: strict rational parsing, the polynomial text
form and a lift of Python's int-to-str limit.

The routes compute on ints and Fractions and read or write no text, so no
route imports this module: the CLI and its verification suites import it,
and ``Polynomial.__str__`` the first time a value is printed.  It imports no
other evenzeta module.
"""

from __future__ import annotations

import re
import sys
from contextlib import contextmanager
from fractions import Fraction

# ASCII digits only: \d and int() also take full-width and other Unicode digits
_RATIONAL_RE = re.compile(r"^([+-]?[0-9]+)(?:/([0-9]+))?$")


def parse_rational(text: str) -> Fraction:
    """Parse canonical rational text: an integer or "num/den" in base 10."""
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise ValueError(f"not a rational literal: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(num, den)


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


@contextmanager
def no_int_str_limit():
    """Lift Python's int-to-str digit limit (3.11 has one) in the block; restore the caller's."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
