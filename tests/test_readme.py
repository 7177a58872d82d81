import builtins
import importlib
import re
from pathlib import Path

import evenzeta
from evenzeta.bounds import (
    AK_MAX,
    ALL_MAX_K,
    ALL_MIN_MAX_K,
    BASIS_COEFFICIENTS_MAX,
    BERNOULLI_APPROX_MAX,
    BERNOULLI_CLASSICAL_MAX,
    BERNOULLI_EVEN_MAX,
    BERNOULLI_MAX,
    CYCLE_INDEX_VARIABLES_MAX,
    DOUBLE_FACTORIAL_PRODUCT_MAX,
    ELEMENTARY_ZETA_MAX,
    ENUMERATION_MAX,
    INVERSE_SQUARES_MAX,
    NEWTON_GIRARD_MAX,
    PK_MAX,
    RECURSION_MAX,
    SEQUENCE_DIGITS_MAX,
    SUITE_BOUNDS,
    TRANSFORM_MAX,
    TREE_SUM_MAX,
    TREES_LIST_MAX,
    VARIABLES_MAX,
    ZETA_EVEN_MAX,
)

README = Path(__file__).resolve().parents[1] / "README.md"

# the constants each row of README's bounds table states, by the row's first cell
ROW_BOUNDS = {
    "`ak --max N`": [AK_MAX],
    "`pk --k K`": [PK_MAX],
    "`zeta-even --k K`": [ZETA_EVEN_MAX],
    "`bernoulli --method recursion`": [BERNOULLI_MAX["recursion"]],
    "`bernoulli --method classical`": [BERNOULLI_MAX["classical"]],
    "`bernoulli --approx`": [BERNOULLI_APPROX_MAX],
    "`bernoulli --method tree`, `transform`": [BERNOULLI_MAX["tree"], TRANSFORM_MAX],
    "`transform --sequence FILE`, on the digits of each numerator and denominator": [
        SEQUENCE_DIGITS_MAX
    ],
    "`trees --k K`": [TRANSFORM_MAX],
    "`trees --k K --list`": [TREES_LIST_MAX],
    **{
        f"`verify --suite {name} --max-k N`": [high]
        for name, (_, high) in SUITE_BOUNDS.items()
        if name not in ("newton-girard", "cycle-index")
    },
    "`verify --suite newton-girard` or `cycle-index`": [
        SUITE_BOUNDS["newton-girard"][1],
        SUITE_BOUNDS["cycle-index"][1],
    ],
    "`verify --suite all --max-k N`": [ALL_MAX_K],
    "`polynomial_via_trees(k)`": [TREE_SUM_MAX],
    "`tree_data(tree, seq)`, on the tree's vertex count": [TRANSFORM_MAX],
    "`enumerate_trees(k)`, drained": [ENUMERATION_MAX],
    "`catalan(n)`": [TRANSFORM_MAX - 1],
    "`double_factorial_product(k)`, `double_factorial_odd(i)`": [DOUBLE_FACTORIAL_PRODUCT_MAX],
    "`numerator_polynomial(k)`, `zeta_numerator(k)`, "
    "`zeta_even_rational(k)`, `translated_polynomial(k)`, "
    "the Newton partial sums' `n`": [
        RECURSION_MAX
    ],
    "`basis_coefficients(k)`": [BASIS_COEFFICIENTS_MAX],
    "`elementary_zeta(k)`, `bernoulli_from_zeta(k, c)`, the Newton partial sums' `k`": [
        ELEMENTARY_ZETA_MAX
    ],
    "`bernoulli_even(k)`": [BERNOULLI_EVEN_MAX],
    "`bernoulli_classical(n)`": [BERNOULLI_CLASSICAL_MAX],
    "`VariableSet.inverse_squares(n)`": [INVERSE_SQUARES_MAX],
    "`newton_girard_check(vars, k)`": [NEWTON_GIRARD_MAX],
    "`elementary_symmetric(vars, k)`, `power_sum(vars, k)`, on `N`": [VARIABLES_MAX],
    "`cycle_index_elementary(vars, k)`, on `N`": [CYCLE_INDEX_VARIABLES_MAX],
}


def bounds_table() -> dict[str, str]:
    """README's bounds table: each row's bound cell by its first cell."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| command or function | bound | time at the bound |") + 2
    rows = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        first, bound = (cell.strip() for cell in line.strip("|").split(" | ")[:2])
        rows[first] = bound
    return rows


def test_readme_bounds_table_matches_constants():
    rows = bounds_table()
    assert sorted(rows) == sorted(ROW_BOUNDS)
    for first, constants in ROW_BOUNDS.items():
        bound = int(re.match(r"\d+", rows[first]).group())
        assert constants == [bound] * len(constants), first
    # a verify row states its lower bound as ", from N" where it is past 1
    lows = {name: low for name, (low, _) in SUITE_BOUNDS.items()}
    lows["all"] = ALL_MIN_MAX_K
    for name, low in lows.items():
        first = f"`verify --suite {name} --max-k N`"
        if first in rows:
            stated = re.search(r", from (\d+)$", rows[first])
            assert (int(stated.group(1)) if stated else 1) == low, name


def library_examples() -> list[list[str]]:
    """The [code, comment] pairs of the `code  # comment` lines in README's Library block."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library\n\n```python\n", 1)[1].split("```", 1)[0]
    return [line.split("  # ", 1) for line in block.splitlines() if "  # " in line]


def test_readme_library_comments_state_the_values():
    examples = library_examples()
    assert len(examples) == 7
    for code, comment in examples:
        value = eval(code, {"ez": evenzeta})
        assert comment.startswith((str(value), repr(value))), (code, comment)


def inline_code() -> list[str]:
    """README's inline code spans, the fenced blocks left out."""
    prose = re.sub(r"^ *```.*?^ *```", "", README.read_text(encoding="utf-8"), flags=re.M | re.S)
    return re.findall(r"`([^`]+)`", prose)


def resolves(name: str) -> bool:
    """Whether a name README writes resolves: ez.<name> in the package,
    evenzeta.<module>[.<name>] as a package attribute or in its module, and
    <Name>Error in the package or in builtins."""
    if name.startswith("ez."):
        return hasattr(evenzeta, name[3:])
    if not name.startswith("evenzeta."):
        return hasattr(builtins, name) or hasattr(evenzeta, name)
    module, _, attribute = name[9:].partition(".")
    if not attribute and hasattr(evenzeta, module):
        return True
    try:
        found = importlib.import_module(f"evenzeta.{module}")
    except ModuleNotFoundError:
        return False
    return not attribute or hasattr(found, attribute)


def test_readme_names_only_names_that_exist():
    # a name that the code no longer has, such as a removed exception class,
    # is a stale sentence in README
    pattern = r"\bez\.\w+|\bevenzeta(?:\.\w+){1,2}|\b[A-Z]\w*Error\b"
    names = {name for span in inline_code() for name in re.findall(pattern, span)}
    assert {"ez.zeta_numerator", "evenzeta.cli", "ValueError"} <= names
    assert [name for name in sorted(names) if not resolves(name)] == []


def test_readme_library_paragraph_names_every_library_module():
    # the paragraph that says which modules the package publishes names
    # them all: a module left out of it, or a stale one, is a wrong list
    text = " ".join(README.read_text(encoding="utf-8").split())
    sentence = re.search(r"Every name in the `__all__` of (.+?) is importable from `evenzeta`", text)
    assert set(re.findall(r"`(\w+)`", sentence.group(1))) == set(evenzeta._MODULES)
