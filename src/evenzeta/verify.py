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
from typing import Callable, Iterator, Optional

import evenzeta as ez

# only so that every route compiles when verify loads: evenbench/run.py imports verify
# before it forks, so no timed child compiles one.  The suites read each name as ez.<name>
from . import basis, plane_trees, recursion, symmetric, tree_polynomial, trees, zeta
from .bounds import ALL_MAX_K, ALL_MIN_MAX_K, SUITE_BOUNDS
from .rationals import check_int
from .text import no_int_str_limit

__all__ = ["SUITES", "ALL_MIN_MAX_K", "ALL_MAX_K", "run_suite", "suite_names"]

_SEED = 0x5EED

_Checks = Iterator[tuple]  # of (name, got, expected)


def _check(name: str, got, expected) -> dict:
    """A check record; a failure carries both sides as its witness."""
    if got == expected:
        return {"name": name, "passed": True}
    with no_int_str_limit():  # run_suite may run outside the CLI, under the default limit
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
        vars = ez.VariableSet(
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
    inverse_squares = ez.VariableSet.inverse_squares(n)
    yield f"{label} inverse squares N={n} k={k}", *sides(inverse_squares, k)


def _cycle_index_sides(vars: ez.VariableSet, k: int) -> tuple:
    return (
        ez.cycle_index_elementary(vars, k),
        ez.elementary_symmetric(vars, k),
    )


# each reads its sides from ez when it runs, so a patched or traced function is the one checked
def _suite_newton_girard(max_k: int) -> _Checks:
    return _trials(_SEED, "newton-girard", ez.newton_girard_check, (12, 5), max_k)


def _suite_cycle_index(max_k: int) -> _Checks:
    return _trials(_SEED + 1, "cycle-index", _cycle_index_sides, (4, 4), max_k)


def _suite_trees(max_k: int) -> _Checks:
    for k in range(2, max_k + 1):
        # with every value 1 each tree weighs 1, so the transform counts the trees
        count = ez.generalized_transform(k, ez.SequenceSpec([1] * k))
        yield f"tree count k={k}", count, ez.catalan(k - 1)
        poly = ez.polynomial_via_trees(k)
        yield f"polynomial via trees k={k}", poly, ez.numerator_polynomial(k)
        transform = ez.generalized_transform(k)
        yield f"numerator via trees k={k}", transform, 2 * ez.zeta_even_rational(k)


def _suite_coeffs(max_k: int) -> _Checks:
    for k in range(2, max_k + 1):
        expanded = ez.expand_basis(ez.basis_coefficients(k), k)
        yield f"basis expansion k={k}", expanded, ez.numerator_polynomial(k)


def _suite_bernoulli(max_k: int) -> _Checks:
    for k in range(1, max_k + 1):
        yield f"bernoulli k={k}", ez.bernoulli_even(k), ez.bernoulli_classical(2 * k)


def _suite_fn(max_k: int) -> _Checks:
    for n in range(2, 9):
        for k in range(max(1, n - 1), max_k + 1):
            partial_sum = ez.newton_partial_sum(n, k)
            yield f"partial sum n={n} k={k}", partial_sum, ez.newton_partial_closed(n, k)
    for n in range(2, 9):
        closed = (1 if n % 2 else -1) * ez.newton_partial_sum(n, n)
        yield f"partial sum closes to zeta(2n) n={n}", closed, ez.zeta_even_rational(n)


def _suite_positivity(max_k: int) -> _Checks:
    for k in range(1, max_k + 1):
        primitive = ez.translated_polynomial(k).primitive
        yield f"translated positivity k={k}", ", ".join(str(a) for a in primitive if a <= 0), ""


def _suite_leading(max_k: int) -> _Checks:
    for k in range(2, max_k + 1):
        poly = ez.numerator_polynomial(k)
        yield f"degree k={k}", poly.degree, k - 2
        leading = ez.zeta_numerator(k - 1) * 2 ** (k - 2)
        yield f"leading coefficient k={k}", poly.content * poly.primitive[-1], leading


def _suite_lemma_2ni(max_k: int) -> _Checks:
    # prod_{i=1}^{n} (u + 2i+3) = sum_{i=0}^{n} 2^(n-i) * n!/i! * B_i, B_i = prod_{j=1}^{i}
    # (u + 2j+1), behind the basis recurrence, as int lists in u grown one step
    # per n: lhs and B by one linear factor each, rhs to 2n * rhs + B_n
    lhs = b = rhs = [1]
    for n in range(max_k + 1):
        if n:
            lhs = [lo + (2 * n + 3) * hi for lo, hi in zip([0] + lhs, lhs + [0])]
            b = [lo + (2 * n + 1) * hi for lo, hi in zip([0] + b, b + [0])]
            rhs = [2 * n * r + c for r, c in zip(rhs + [0], b)]
        yield f"shifted product identity n={n}", lhs, rhs


# each suite's checks and default max_k, in the run order of bounds.SUITE_BOUNDS,
# which alone holds each suite's (min_max_k, hard_max_k)
SUITES: dict[str, tuple[Callable[[int], _Checks], int]] = {
    "newton-girard": (_suite_newton_girard, 8),
    "cycle-index": (_suite_cycle_index, 8),
    "trees": (_suite_trees, 10),
    "coeffs": (_suite_coeffs, 12),
    "bernoulli": (_suite_bernoulli, 20),
    "fn": (_suite_fn, 10),
    "positivity": (_suite_positivity, 15),
    "leading": (_suite_leading, 12),
    "lemma-2ni": (_suite_lemma_2ni, 6),
}


def suite_names() -> list[str]:
    return ["all"] + list(SUITES)


def run_suite(name: str, max_k: Optional[int] = None) -> list[dict]:
    """Run one named suite, or every suite when name is "all"; one report per suite.

    max_k overrides a suite's default bound; it must stay within the
    suite's min_max_k..hard_max_k, so that no suite reports an empty pass.
    With "all", max_k must stay within ALL_MIN_MAX_K..ALL_MAX_K and applies
    to each suite capped at the suite's own hard bound.  A max_k
    that is not an int, a bool included, raises TypeError.
    """
    if max_k is not None:
        check_int(max_k, "max_k")
    if name == "all":
        if max_k is not None and not ALL_MIN_MAX_K <= max_k <= ALL_MAX_K:
            raise ValueError(
                f"suite 'all' accepts max_k between {ALL_MIN_MAX_K} and {ALL_MAX_K}, got {max_k}"
            )
        reports = []
        # one call per suite: evenbench's tracer records a verify.suite.<name> span per call
        for key, (_, high) in SUITE_BOUNDS.items():
            reports.extend(run_suite(key, None if max_k is None else min(max_k, high)))
        return reports
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {suite_names()}")
    run, default_max_k = SUITES[name]
    low, high = SUITE_BOUNDS[name]  # the first k the suite checks: a smaller max_k checks nothing
    k = default_max_k if max_k is None else max_k
    if not low <= k <= high:
        raise ValueError(f"suite {name!r} accepts max_k between {low} and {high}, got {k}")
    checks = [_check(*sides) for sides in run(k)]
    passed = all(check["passed"] for check in checks)
    return [{"suite": name, "max_k": k, "passed": passed, "checks": checks}]
