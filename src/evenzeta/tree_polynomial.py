"""The tree polynomial: P_k(x) as the tree sum with linear factors.

The first-return convolution of trees.py sums the tree family to the
transform.  For the polynomial, the holes still open at the end carry
linear factors in place of values, w_a = 2x - 2(k-1) + R_a.  In
u = x - (k-1) they are w_a = 2u + R_a, free of k, so one family
G_0, G_1, ... serves every k:

    P_k(x) = S_k * G_{k-1}(x - (k-1)),   S_k = prod_{m=1}^{k-2} R_2...R_{m+1}

(see polynomial_via_trees).  On the odd numbers every c_d is positive
and so is every coefficient of every w_a, so each G_d has positive
coefficients, and so does P_k(x + k - 1): a weaker form of the paper's
positivity after the shift by k - 3/2, which the `positivity` suite
checks on the recursion route.

The weights c_d come from trees' cache of them over the odd numbers, the
one that generalized_transform's default sequence reads.  Like trees.py,
this module shares no code with the operator recursion, so the `trees`
suite's comparison of the two polynomials stays a check.
"""

from __future__ import annotations

import math
import threading

from .bounds import TREE_SUM_MAX
from .polynomials import Polynomial, split_content, taylor_shift
from .rationals import ConsistencyError, check_index
from .trees import ODD_NUMBERS, odd_weights

_cache_lock = threading.Lock()
# G_d = gamma_d * g_d in u = x - (k-1) for d = 0, 1, ... (polynomial_via_trees):
# the content gamma_d > 0 as an int pair in lowest terms, and the primitive
# part g_d as ascending int coefficients.
_family: list[tuple[tuple[int, int], list[int]]] = [((1, 1), [1])]


def _grow_family(n: int) -> None:
    """Extend the cache to G_0..G_{n-1}; the caller holds _cache_lock.

    Horner in i keeps acc = alpha * a with a an int list.  Each step
    acc * w_i + beta * g_i, with beta = c_{d-1-i} * gamma_i, divides out
    the rational gcd of alpha and beta, so both multipliers are ints; the
    content of a is taken once, at the end of the step.
    """
    c = odd_weights(n - 1)
    for d in range(len(_family), n):
        (alpha, alpha_den), a = c[d - 1], [1]  # acc = c_{d-1} * G_0
        for i in range(1, d):
            (beta, beta_den), ((gamma, gamma_den), g) = c[d - 1 - i], _family[i]
            beta, beta_den = beta * gamma, beta_den * gamma_den
            top, bottom = math.gcd(alpha, beta), math.lcm(alpha_den, beta_den)
            s = alpha // top * (bottom // alpha_den)
            t = beta // top * (bottom // beta_den)
            alpha, alpha_den = top, bottom
            # s * a * (R_i + 2u) + t * g_i, where a and g_i both have degree i-1
            sr, s2 = s * ODD_NUMBERS[i - 1], 2 * s
            a = [sr * hi + s2 * lo + t * b for lo, hi, b in zip([0] + a, a + [0], g + [0])]
        content, a = split_content(a)
        alpha *= content
        shared = math.gcd(alpha, alpha_den)
        _family.append(((alpha // shared, alpha_den // shared), a))


def polynomial_via_trees(k: int) -> Polynomial:
    """The k-th recursion polynomial assembled as a tree sum.

    The holes left open by the first-return decomposition carry the linear
    factors w_a = 2x - 2(k-1) + R_a instead of values.  In u = x - (k-1)
    they are w_a = 2u + R_a, free of k, so one family serves every k:

        G_0 = 1,   G_d = sum_{i<d} c_{d-1-i} * G_i * prod_{j=i+1}^{d-1} w_j

    (by Horner in i, on content times primitive part), and P_k(x) is
    S_k * G_{k-1}(x - (k-1)) with S_k = prod_{m=1}^{k-2} R_2...R_{m+1}: the
    pair of S_k times G_{k-1}'s content and its shifted primitive part.
    """
    check_index(k, 2, TREE_SUM_MAX)
    with _cache_lock:
        _grow_family(k)
        (gamma, gamma_den), g = _family[k - 1]
    scale = 1
    running = 1
    for r in ODD_NUMBERS[1 : k - 1]:
        running *= r
        scale *= running
    # the content of P_k: an int, since the integer shift keeps g_{k-1} primitive
    content, rest = divmod(scale * gamma, gamma_den)
    if rest:
        raise ConsistencyError(f"P_{k} has a non-integer content")
    return Polynomial.from_parts(content, taylor_shift(g, 1, 1 - k))
