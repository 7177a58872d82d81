"""evenzeta: exact Bernoulli numbers and even zeta values, three independent ways.

An operator recursion over exact rational polynomials, a weighted sum over
plane trees, and the classical Bernoulli recursion all produce the same
numbers; the package computes each route exactly and cross-checks them.

Every name in a library module's __all__ is importable from the package,
and _MODULES below maps each library module to those names.  `import
evenzeta` loads none of the modules: the first read of a name loads its own
module, with that module's imports, and binds every name of that module, so
a later read is a plain attribute.  A process that reads only the
recursion's names loads bounds, rationals, polynomials and recursion; a
tree-route name loads trees in place of recursion, and a name of the text
forms (text) loads text alone.  __all__ and dir() read the table and load
nothing.  A name outside the table raises AttributeError at once and loads
nothing: a dunder such as the __wrapped__ that inspect.unwrap probes, a
dotted name, or a submodule outside the table such as verify until it is
imported, so hasattr(evenzeta, "verify") loads nothing.  Every bound sits in
bounds, which rationals and so every route loads, and which publishes
nothing.  The CLI and its verification suites (cli, verify) are not loaded
here; importing evenzeta.cli loads bounds, text and the recursion route,
and each command loads the routes it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each library module's __all__, which a test holds equal to the module's own.
_MODULES = {
    "rationals": (
        "is_exact", "double_factorial_odd", "double_factorial_product",
        "DOUBLE_FACTORIAL_PRODUCT_MAX",
    ),
    "polynomials": ("Polynomial", "InexactDivisionError", "split_content", "taylor_shift", "ZERO"),
    "recursion": (
        "ConsistencyError", "numerator_polynomial", "zeta_numerator", "translated_polynomial",
        "RECURSION_MAX",
    ),
    "trees": (
        "SequenceSpec", "ODD_NUMBERS", "polynomial_via_trees", "generalized_transform",
        "TRANSFORM_MAX", "TREE_SUM_MAX",
    ),
    "zeta": (
        "elementary_zeta", "zeta_even_rational", "bernoulli_even", "bernoulli_from_zeta",
        "bernoulli_classical", "newton_partial_sum", "newton_partial_closed",
        "BERNOULLI_EVEN_MAX", "BERNOULLI_CLASSICAL_MAX", "ELEMENTARY_ZETA_MAX",
    ),
    "plane_trees": (
        "PlaneTree", "TreeData", "catalan", "enumerate_trees", "tree_data", "ENUMERATION_MAX",
    ),
    "basis": ("basis_coefficients", "expand_basis", "BASIS_COEFFICIENTS_MAX"),
    "symmetric": (
        "VariableSet", "elementary_symmetric", "power_sum", "cycle_index_elementary",
        "newton_girard_check", "CYCLE_INDEX_MAX", "CYCLE_INDEX_VARIABLES_MAX",
        "INVERSE_SQUARES_MAX", "NEWTON_GIRARD_MAX", "VARIABLES_MAX",
    ),
    "text": ("parse_rational", "polynomial_text"),
}
_OWNERS = {name: short for short, names in _MODULES.items() for name in names}
__all__ = list(_OWNERS)


def __getattr__(name):
    if name in _MODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _OWNERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{_OWNERS[name]}")
    globals().update((public, getattr(module, public)) for public in module.__all__)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__})
