"""Exact scalar arithmetic used everywhere else in the package.

Python's built-in ``int`` is the arbitrary-precision integer type and
``fractions.Fraction`` is the rational type: always reduced, denominator
positive, zero stored as 0/1.  ``str(Fraction)`` already produces the
canonical text form ("num/den", denominator omitted when 1), so this module
only adds the package's refusals and the odd double factorials of the zeta
denominators.  Text in and out, parsing included, is in text.py.

Every wrong-typed argument is refused here with a TypeError naming it
(check_exact, check_int, check_type; check_index adds the bound, with
ValueError), and ConsistencyError, the library's one exception class,
reports a broken internal invariant.

No floating-point value appears anywhere on the computation path.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from functools import lru_cache

from .bounds import DOUBLE_FACTORIAL_PRODUCT_MAX

__all__ = [
    "ConsistencyError",
    "double_factorial_odd",
    "double_factorial_product",
    "DOUBLE_FACTORIAL_PRODUCT_MAX",
]


class ConsistencyError(RuntimeError):
    """An internal invariant failed (e.g. a value that must be a positive integer is not)."""


def check_exact(value, name: str) -> None:
    """Refuse a value that is not an int or a Fraction; a bool is not one."""
    if not isinstance(value, (int, Fraction)) or isinstance(value, bool):
        raise TypeError(f"{name}={value!r} is not an int or a Fraction")


def check_type(value, cls: type, name: str) -> None:
    """Refuse an argument that is not a cls."""
    if not isinstance(value, cls):
        raise TypeError(f"{name} is a {type(value).__name__}, not a {cls.__name__}")


def check_int(k, name: str = "k") -> None:
    """Refuse an index that is not an int; a bool is not an index."""
    if not isinstance(k, int) or isinstance(k, bool):
        raise TypeError(f"{name}={k!r} is not an int")


def check_index(k, lo: int, hi: int, name: str = "k") -> None:
    """Refuse an index that is not an int (check_int) or lies outside lo..hi.

    Every bounded function calls this before any work.  The message states
    the bound only: a count derived from an unbounded k is unbounded too.
    """
    check_int(k, name)
    if not lo <= k <= hi:
        raise ValueError(f"{name}={k} outside {lo}..{hi}")


@lru_cache(maxsize=None)
def double_factorial_odd(i: int) -> int:
    """(2i+1)!! = 3 * 5 * ... * (2i+1), the empty product 1 for i = 0, for i
    within 0..DOUBLE_FACTORIAL_PRODUCT_MAX."""
    check_index(i, 0, DOUBLE_FACTORIAL_PRODUCT_MAX, "i")
    return math.prod(range(3, 2 * i + 2, 2))


_tower_lock = threading.Lock()
# prod_{i=1}^{j} (2i+1)!! at index j, grown one factor per level
_tower: list[int] = [1]


def double_factorial_product(k: int) -> int:
    """prod_{i=1}^{k} (2i+1)!!, the denominator tower of the even zeta values,
    for k within 0..DOUBLE_FACTORIAL_PRODUCT_MAX."""
    check_index(k, 0, DOUBLE_FACTORIAL_PRODUCT_MAX)
    with _tower_lock:
        while len(_tower) <= k:
            _tower.append(_tower[-1] * double_factorial_odd(len(_tower)))
        return _tower[k]
