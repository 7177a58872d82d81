"""evenzeta: exact Bernoulli numbers and even zeta values, three independent ways.

An operator recursion over exact rational polynomials, a weighted sum over
plane trees, and the classical Bernoulli recursion all produce the same
numbers; the package computes each route exactly and cross-checks them.
"""

from .polynomials import InexactDivisionError, Polynomial
from .rationals import double_factorial_odd, double_factorial_product, parse_rational
from .recursion import (
    ConsistencyError,
    apply_step,
    basis_coefficients,
    expand_basis,
    factor_product,
    numerator_polynomial,
    shifted_product_identity,
    translated_polynomial,
    zeta_numerator,
)
from .symmetric import (
    VariableSet,
    cycle_index_elementary,
    elementary_symmetric,
    newton_girard_check,
    power_sum,
)
from .trees import (
    ODD_NUMBERS,
    PlaneTree,
    SequenceSpec,
    TreeData,
    catalan,
    enumerate_trees,
    expand_step,
    generalized_transform,
    polynomial_via_trees,
    tree_data,
)
from .zeta import (
    bernoulli_classical,
    bernoulli_even,
    elementary_zeta,
    newton_partial_closed,
    newton_partial_sum,
    zeta_even_rational,
)

__version__ = "0.1.0"
