import re
from pathlib import Path

from evenzeta.cli import (
    AK_MAX,
    BERNOULLI_APPROX_MAX,
    BERNOULLI_MAX,
    PK_MAX,
    TREES_LIST_MAX,
    ZETA_EVEN_MAX,
)
from evenzeta.rationals import DOUBLE_FACTORIAL_PRODUCT_MAX
from evenzeta.recursion import BASIS_COEFFICIENTS_MAX, RECURSION_MAX
from evenzeta.symmetric import (
    CYCLE_INDEX_VARIABLES_MAX,
    INVERSE_SQUARES_MAX,
    NEWTON_GIRARD_MAX,
    VARIABLES_MAX,
)
from evenzeta.trees import ENUMERATION_MAX, TRANSFORM_MAX, TREE_SUM_MAX
from evenzeta.verify import ALL_MAX_K, SUITES
from evenzeta.zeta import BERNOULLI_CLASSICAL_MAX, BERNOULLI_EVEN_MAX, ELEMENTARY_ZETA_MAX

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
    "`trees --k K`": [ENUMERATION_MAX],
    "`trees --k K --list`": [TREES_LIST_MAX],
    **{
        f"`verify --suite {name} --max-k N`": [suite.hard_max_k]
        for name, suite in SUITES.items()
        if name not in ("newton-girard", "cycle-index")
    },
    "`verify --suite newton-girard` or `cycle-index`": [
        SUITES["newton-girard"].hard_max_k,
        SUITES["cycle-index"].hard_max_k,
    ],
    "`verify --suite all --max-k N`": [ALL_MAX_K],
    "`polynomial_via_trees(k)`": [TREE_SUM_MAX],
    "`tree_data(tree, seq)`, on the tree's vertex count": [TRANSFORM_MAX],
    "`catalan(n)`": [TRANSFORM_MAX - 1],
    "`double_factorial_product(k)`, `double_factorial_odd(i)`": [DOUBLE_FACTORIAL_PRODUCT_MAX],
    "`numerator_parts(k)`, `numerator_polynomial(k)`, `zeta_numerator(k)`, "
    "`zeta_even_rational(k)`, `translated_polynomial(k)`, "
    "the Newton partial sums' `n`": [
        RECURSION_MAX
    ],
    "`basis_coefficients(k)`, `shifted_product_identity(n)`": [BASIS_COEFFICIENTS_MAX],
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


def bounds_table() -> dict[str, int]:
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| command or function | bound | time at the bound |") + 2
    rows = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        first, bound = (cell.strip() for cell in line.strip("|").split(" | ")[:2])
        rows[first] = int(re.match(r"\d+", bound).group())
    return rows


def test_readme_bounds_table_matches_constants():
    rows = bounds_table()
    assert sorted(rows) == sorted(ROW_BOUNDS)
    for first, constants in ROW_BOUNDS.items():
        assert constants == [rows[first]] * len(constants), first
