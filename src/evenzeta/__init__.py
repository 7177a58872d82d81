"""evenzeta: exact Bernoulli numbers and even zeta values, three independent ways.

An operator recursion over exact rational polynomials, a weighted sum over
plane trees, and the classical Bernoulli recursion all produce the same
numbers; the package computes each route exactly and cross-checks them.

Every name in a module's __all__ is importable from the package, but
`import evenzeta` loads none of the modules: each loads when one of the
package's names is first read.  A miss searches rationals, polynomials,
recursion, trees, zeta, plane_trees, basis and symmetric in that order,
each module after the ones it imports, and binds every name of each module
it loads, so a later read is a plain attribute.  A process that reads only
the recursion's names loads rationals, polynomials and recursion; one that
reads only the tree route's adds trees.  The per-tree replay (plane_trees)
and the nested-product basis (basis) load only for their own names, so a
basis name loads every module but symmetric.  A dunder name other than
__all__ loads nothing: the package does not have it, and neither does it
have a submodule outside the search until that submodule is imported, so
hasattr(evenzeta, "verify") loads nothing either.  Reading __all__ or
dir() loads all eight.  Every bound sits in bounds, which rationals and so
every module loads, and which publishes nothing, so the search leaves it
out.  The CLI and its verification suites (cli, verify) are not loaded
here; importing evenzeta.cli loads bounds and the recursion route, and
each command loads the routes it runs.
"""

from importlib import import_module
from importlib.util import find_spec

__version__ = "0.1.0"

# The search order of __getattr__: plane_trees and basis after the routes, as
# each only checks one, and symmetric last, as no route uses it.
_MODULES = (
    "rationals", "polynomials", "recursion", "trees", "zeta", "plane_trees", "basis", "symmetric"
)


def __getattr__(name):
    if name in _MODULES:
        return import_module(f"{__name__}.{name}")
    # a probe such as inspect.unwrap's hasattr(evenzeta, "__wrapped__"), or the
    # one `from evenzeta import verify` makes for a submodule not yet imported
    dunder = name.startswith("__") and name.endswith("__") and name != "__all__"
    if dunder or name.isidentifier() and find_spec(f"{__name__}.{name}") is not None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for short in _MODULES:
        module = import_module(f"{__name__}.{short}")
        globals().update((public, getattr(module, public)) for public in module.__all__)
        if name in module.__all__:
            return globals()[name]
    if name == "__all__":  # the eight lists, now that every module is loaded
        global __all__
        __all__ = [public for short in _MODULES for public in globals()[short].__all__]
        return __all__
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
