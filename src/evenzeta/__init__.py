"""evenzeta: exact Bernoulli numbers and even zeta values, three independent ways.

An operator recursion over exact rational polynomials, a weighted sum over
plane trees, and the classical Bernoulli recursion all produce the same
numbers; the package computes each route exactly and cross-checks them.

_MODULES below maps each library module to its public names and is the only
list of them: every name is importable from the package, and the package
sets each module's __all__ from its row when it attaches the module.  `import
evenzeta` loads none of the modules: the first read of a name loads its own
module, with that module's imports.  The package binds a module's names as
soon as the import system attaches that module to it, whoever imported it,
so a later read is a plain attribute; after `import evenzeta.verify`, which
loads every module, every name is.  A process that reads only the
recursion's names loads bounds, rationals, polynomials and recursion; the
transform's names load bounds, rationals and trees, the tree polynomial
adds polynomials and tree_polynomial to those, and a name of the text
forms (text) loads text alone.  __all__ and dir() read the table and load
nothing.  A name outside the table raises AttributeError at once and loads
nothing: a dunder such as the __wrapped__ that inspect.unwrap probes, a
dotted name, or a submodule outside the table such as verify until it is
imported, so hasattr(evenzeta, "verify") loads nothing.  Every bound sits in
bounds, which rationals and so every route loads, and which publishes
nothing.  The CLI and its verification suites (cli, verify) are not loaded
here; importing evenzeta.cli loads bounds and text, and each command and
each suite reads the names of the routes it runs from the package.
"""

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

# Each library module's public names: its __all__, set when the module is attached.
_MODULES = {
    "rationals": (
        "ConsistencyError", "double_factorial_odd", "double_factorial_product",
        "DOUBLE_FACTORIAL_PRODUCT_MAX",
    ),
    "polynomials": ("Polynomial", "split_content", "taylor_shift", "ZERO"),
    "recursion": (
        "numerator_polynomial", "zeta_numerator", "translated_polynomial", "RECURSION_MAX",
    ),
    "trees": ("SequenceSpec", "ODD_NUMBERS", "generalized_transform", "TRANSFORM_MAX"),
    "tree_polynomial": ("polynomial_via_trees", "TREE_SUM_MAX"),
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


class _Package(ModuleType):
    """The package, which sets a library module's __all__ from its table row
    and binds those names as the import system attaches that module to it."""

    def __setattr__(self, name, value):
        super().__setattr__(name, value)
        if name in _MODULES:
            value.__all__ = list(_MODULES[name])
            vars(self).update((public, getattr(value, public)) for public in _MODULES[name])


sys.modules[__name__].__class__ = _Package


def __getattr__(name):
    if name in _MODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _OWNERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import_module(f"{__name__}.{_OWNERS[name]}")
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__})
