"""The k-th polynomial of the recursion in its nested-product basis.

basis_coefficients caches its row c_0..c_{k-2} as the pair (content,
primitive) of sum_i c_i t^i in a formal variable t, and expand_basis sums
the nested products in x by Horner's rule, with no shift.  The rows grow
under this module's own lock, by a linear recurrence backed by the
shifted-product lemma (the verify suite lemma-2ni checks it).

The module shares no code with the operator step (recursion._entry) and
imports only rationals and polynomials, so the verify suite coeffs, which
compares expand_basis(basis_coefficients(k), k) with numerator_polynomial(k),
compares two independent computations of P_k.
"""

from __future__ import annotations

import threading
from typing import Sequence

from .bounds import BASIS_COEFFICIENTS_MAX
from .polynomials import ZERO, Polynomial, split_content
from .rationals import check_index, check_int, check_type, double_factorial_odd

_cache_lock = threading.Lock()
# basis_coefficients(j) as its pair (content, primitive) at j = 2, 3, ... (0, 1 unused)
_basis: list[tuple[int, tuple[int, ...]]] = [(1, (1,))] * 3


def basis_coefficients(k: int) -> Polynomial:
    """Coefficients (c_0..c_{k-2}) of the k-th polynomial in its nested-product
    basis as sum_i c_i * t^i in a formal variable t, the pair (content,
    primitive); .coeffs gives the c_i.  expand_basis maps t^i to the basis
    element prod_{j=1}^{i} (2x - 2(k-1) + 2j+1).  Computed by the recurrence

        c_{i,k+1} = ( prod_{j=i+1}^{k-1} (2j+3) ) * sum_{n=0}^{i} (2n+1)!! * S_n,
        S_n = sum_{m=n}^{k-2} c_{m,k} * 2^(m-n) * m!/n! = c_{n,k} + 2(n+1) * S_{n+1},

    seeded with c_{0,2} = 1.  Each cached row grows the next from a copy of
    its primitive part in three passes (S backward, prefix sums forward,
    suffix products backward) and splits off the content: the recurrence is
    linear.  The c_i are positive ints; k is within 2..BASIS_COEFFICIENTS_MAX.
    """
    check_index(k, 2, BASIS_COEFFICIENTS_MAX)
    with _cache_lock:
        while len(_basis) <= k:
            cur = len(_basis) - 1
            content, row = _basis[cur]
            s = [*row, 0]  # S_{cur-1} = 0: the sum over m in n..cur-2 is empty
            for n in range(cur - 2, -1, -1):
                s[n] += 2 * (n + 1) * s[n + 1]
            total = 0
            for n in range(cur):
                total += double_factorial_odd(n) * s[n]
                s[n] = total
            suffix = 1
            for i in range(cur - 1, -1, -1):
                s[i] *= suffix
                suffix *= 2 * i + 3
            divisor, s = split_content(s)
            _basis.append((content * divisor, tuple(s)))
        return Polynomial.from_parts(*_basis[k])


def _nested_sum(coeffs: Sequence[int], b: int) -> list[int]:
    """Ascending int coefficients in x of sum_i c_i * prod_{j=1}^{i} (2x + 2j+b),
    by Horner's rule: c_0 + (2x + 2+b) * (c_1 + (2x + 4+b) * (c_2 + ...))."""
    acc: list[int] = []
    for i in range(len(coeffs) - 1, -1, -1):
        acc = [2 * lo + (2 * i + 2 + b) * hi for lo, hi in zip([0] + acc, acc + [0])]
        acc[0] += coeffs[i]
    return acc


def expand_basis(basis: Polynomial, k: int) -> Polynomial:
    """Map t^i of basis (basis_coefficients' form) to the i-th nested product
    prod_{j=1}^{i} (2x + 2j+3 - 2k), summed in x on basis.primitive; the
    contents multiply once.  k is any int, and basis a Polynomial of at most
    BASIS_COEFFICIENTS_MAX - 1 coefficients, both checked before any work."""
    check_int(k)
    check_type(basis, Polynomial, "basis")
    check_index(len(basis.primitive), 0, BASIS_COEFFICIENTS_MAX - 1, "len(basis.primitive)")
    if not basis:
        return ZERO
    content, primitive = split_content(_nested_sum(basis.primitive, 3 - 2 * k))
    return Polynomial.from_parts(basis.content * content, primitive)
