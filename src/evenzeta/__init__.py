"""evenzeta: exact Bernoulli numbers and even zeta values, three independent ways.

An operator recursion over exact rational polynomials, a weighted sum over
plane trees, and the classical Bernoulli recursion all produce the same
numbers; the package computes each route exactly and cross-checks them.

Every name in a module's __all__ is importable from the package, but
`import evenzeta` loads none of the modules: each loads when one of the
package's names is first read.  A miss searches rationals, polynomials,
recursion, trees, zeta, plane_trees and symmetric in that order, each
module after the ones it imports, and binds every name of each module it
loads, so a later read is a plain attribute.  A process that reads only the
recursion's names loads rationals, polynomials and recursion; one that
reads only the tree route's adds trees, and the per-tree replay
(plane_trees) loads only for its own names.  A dunder name other than
__all__ loads nothing: the package does not have it.  Reading __all__ or
dir() loads all seven.  The CLI and its verification suites (cli, verify)
are not loaded here; importing evenzeta.cli loads every module, since its
parser reads the bounds of plane_trees, trees, zeta and verify.
"""

from importlib import import_module

__version__ = "0.1.0"

# The search order of __getattr__: plane_trees after the routes, as it only
# checks the tree route, and symmetric last, as no route uses it.
_MODULES = ("rationals", "polynomials", "recursion", "trees", "zeta", "plane_trees", "symmetric")


def __getattr__(name):
    # a probe such as inspect.unwrap's hasattr(evenzeta, "__wrapped__")
    if name.startswith("__") and name.endswith("__") and name != "__all__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    if name in _MODULES:
        return import_module(f"{__name__}.{name}")
    for short in _MODULES:
        module = import_module(f"{__name__}.{short}")
        globals().update((public, getattr(module, public)) for public in module.__all__)
        if name in module.__all__:
            return globals()[name]
    if name == "__all__":  # the seven lists, now that every module is loaded
        global __all__
        __all__ = [public for short in _MODULES for public in globals()[short].__all__]
        return __all__
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
