"""Named verification suites backing the CLI `verify` subcommand.

Each suite yields one (name, got, expected) triple per check, and run_suite
alone turns them into the records the CLI prints: {"name": ..., "passed":
...}, plus a "witness" with str() of both sides when got != expected.
run_suite returns one report per suite, {"suite", "max_k", "passed",
"checks"}.  Randomized suites draw from a fixed seed so output is identical
across runs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Optional

from . import recursion, symmetric, trees, zeta
from .rationals import check_int

__all__ = ["SUITES", "ALL_MAX_K", "run_suite", "suite_names"]

_SEED = 0x5EED

_Checks = Iterator[tuple]  # of (name, got, expected)


def _check(name: str, got, expected) -> dict:
    """A check record; a failure carries both sides as its witness."""
    if got == expected:
        return {"name": name, "passed": True}
    witness = {"got": str(got), "expected": str(expected)}
    return {"name": name, "passed": False, "witness": witness}


def _trials(seed: int, label: str, sides: Callable, squares: tuple, max_k: int) -> _Checks:
    """50 random variable sets, each checked at k = 1..min(size, max_k), then
    the inverse squares 1, 1/4, ..., 1/N^2 at k, for squares = (N, k).

    sides(vars, k) returns the two values that must agree; a trial is
    reported at its first failing k and stops there.
    """
    rng = random.Random(seed)
    for trial in range(50):
        size = rng.randint(1, 8)
        vars = symmetric.VariableSet(
            Fraction(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(size)
        )
        for k in range(1, min(size, max_k) + 1):
            got, expected = sides(vars, k)
            if got != expected:
                yield f"{label} trial {trial} k={k}", got, expected
                break
        else:
            yield f"{label} trial {trial}", True, True
    n, k = squares
    inverse_squares = symmetric.VariableSet.inverse_squares(n)
    yield f"{label} inverse squares N={n} k={k}", *sides(inverse_squares, k)


def _cycle_index_sides(vars: symmetric.VariableSet, k: int) -> tuple:
    return (
        symmetric.cycle_index_elementary(vars, k),
        symmetric.elementary_symmetric(vars, k),
    )


# each looks its sides up when it runs, so a patched or traced function is the one checked
def _suite_newton_girard(max_k: int) -> _Checks:
    return _trials(_SEED, "newton-girard", symmetric.newton_girard_check, (12, 5), max_k)


def _suite_cycle_index(max_k: int) -> _Checks:
    return _trials(_SEED + 1, "cycle-index", _cycle_index_sides, (4, 4), max_k)


def _suite_trees(max_k: int) -> _Checks:
    for k in range(2, max_k + 1):
        # with every value 1 each tree weighs 1, so the transform counts the trees
        count = trees.generalized_transform(k, trees.SequenceSpec([1] * k))
        yield f"tree count k={k}", count, trees.catalan(k - 1)
        poly = trees.polynomial_via_trees(k)
        yield f"polynomial via trees k={k}", poly, recursion.numerator_polynomial(k)
        transform = trees.generalized_transform(k)
        yield f"numerator via trees k={k}", transform, 2 * zeta.zeta_even_rational(k)


def _suite_coeffs(max_k: int) -> _Checks:
    for k in range(2, max_k + 1):
        expanded = recursion.expand_basis(recursion.basis_coefficients(k), k)
        yield f"basis expansion k={k}", expanded, recursion.numerator_polynomial(k)


def _suite_bernoulli(max_k: int) -> _Checks:
    for k in range(1, max_k + 1):
        yield f"bernoulli k={k}", zeta.bernoulli_even(k), zeta.bernoulli_classical(2 * k)


def _suite_fn(max_k: int) -> _Checks:
    for n in range(2, 9):
        for k in range(max(1, n - 1), max_k + 1):
            partial_sum = zeta.newton_partial_sum(n, k)
            yield f"partial sum n={n} k={k}", partial_sum, zeta.newton_partial_closed(n, k)
    for n in range(2, 9):
        closed = (1 if n % 2 else -1) * zeta.newton_partial_sum(n, n)
        yield f"partial sum closes to zeta(2n) n={n}", closed, zeta.zeta_even_rational(n)


def _suite_positivity(max_k: int) -> _Checks:
    for k in range(1, max_k + 1):
        coeffs = recursion.translated_polynomial(k).coeffs
        yield f"translated positivity k={k}", ", ".join(str(c) for c in coeffs if c <= 0), ""


def _suite_leading(max_k: int) -> _Checks:
    for k in range(2, max_k + 1):
        content, primitive = recursion.numerator_parts(k)
        yield f"degree k={k}", primitive.degree, k - 2
        leading = recursion.zeta_numerator(k - 1) * 2 ** (k - 2)
        yield f"leading coefficient k={k}", content * primitive.coeffs[-1], leading


def _suite_lemma_2ni(max_k: int) -> _Checks:
    for n in range(0, max_k + 1):
        yield f"shifted product identity n={n}", recursion.shifted_product_identity(n), True


class _Suite(NamedTuple):
    run: Callable[[int], _Checks]
    default_max_k: int
    hard_max_k: int


# Each hard bound keeps `verify --suite NAME --max-k BOUND --format json`
# within about 4.5 s end to end in a fresh process (2-vCPU host, Python
# 3.11.7; the host's speed drifted by up to 1.5x between runs): trees 150
# 3.6-4.2 s (160 took 4.7-5.2 s, most of it in scaling each route's P_k by
# its content), coeffs 110 2.6-2.9 s (115 took 3.2-3.7 s, 130 5.7-7.0 s,
# most of it expand_basis), bernoulli 240
# 3.6-4.3 s (250 took 4.3-4.4 s), fn 800 3.6-3.9 s, positivity 180
# 3.1-3.8 s (185 took 3.6-4.1 s), leading 0.40-0.56 s at
# recursion.RECURSION_MAX, the largest k it can read (it checks the cached
# content and primitive part, not a built P_k), lemma-2ni 2.1-2.8 s at
# recursion.BASIS_COEFFICIENTS_MAX, the largest n that
# shifted_product_identity takes.  Each suite checks every k up to its
# bound.  newton-girard and cycle-index keep 8: their random variable sets
# have at most 8 variables, and symmetric.CYCLE_INDEX_MAX is 8.  "all" runs
# every suite at the smaller of its max_k and the suite's bound, and has a
# bound of its own: ALL_MAX_K 100 took 2.8-3.1 s (110 took 3.3-3.7 s).
ALL_MAX_K = 100
SUITES: dict[str, _Suite] = {
    "newton-girard": _Suite(_suite_newton_girard, 8, 8),
    "cycle-index": _Suite(_suite_cycle_index, 8, 8),
    "trees": _Suite(_suite_trees, 10, 150),
    "coeffs": _Suite(_suite_coeffs, 12, 110),
    "bernoulli": _Suite(_suite_bernoulli, 20, 240),
    "fn": _Suite(_suite_fn, 10, 800),
    "positivity": _Suite(_suite_positivity, 15, 180),
    "leading": _Suite(_suite_leading, 12, recursion.RECURSION_MAX),
    "lemma-2ni": _Suite(_suite_lemma_2ni, 6, recursion.BASIS_COEFFICIENTS_MAX),
}


def suite_names() -> list[str]:
    return ["all"] + list(SUITES)


def run_suite(name: str, max_k: Optional[int] = None) -> list[dict]:
    """Run one named suite, or every suite when name is "all"; one report per suite.

    max_k overrides a suite's default bound; it must stay within the
    documented hard bound.  With "all", max_k must stay within ALL_MAX_K and
    applies to each suite capped at the suite's own hard bound.  A max_k
    that is not an int, a bool included, raises TypeError.
    """
    if max_k is not None:
        check_int(max_k, "max_k")
    if name == "all":
        if max_k is not None and not 1 <= max_k <= ALL_MAX_K:
            raise ValueError(
                f"suite 'all' accepts max_k between 1 and {ALL_MAX_K}, got {max_k}"
            )
        reports = []
        for key in SUITES:
            capped = None if max_k is None else min(max_k, SUITES[key].hard_max_k)
            reports.extend(run_suite(key, capped))
        return reports
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {suite_names()}")
    suite = SUITES[name]
    k = suite.default_max_k if max_k is None else max_k
    if not 1 <= k <= suite.hard_max_k:
        raise ValueError(
            f"suite {name!r} accepts max_k between 1 and {suite.hard_max_k}, got {k}"
        )
    checks = [_check(*sides) for sides in suite.run(k)]
    passed = all(check["passed"] for check in checks)
    return [{"suite": name, "max_k": k, "passed": passed, "checks": checks}]
