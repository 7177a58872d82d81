"""evenzeta: exact Bernoulli numbers and even zeta values, three independent ways.

An operator recursion over exact rational polynomials, a weighted sum over
plane trees, and the classical Bernoulli recursion all produce the same
numbers; the package computes each route exactly and cross-checks them.

Every name in a module's __all__ is importable from the package; the CLI
and its verification suites (cli, verify) are not imported here.
"""

from .polynomials import *
from .rationals import *
from .recursion import *
from .symmetric import *
from .trees import *
from .zeta import *

__all__ = (
    polynomials.__all__
    + rationals.__all__
    + recursion.__all__
    + symmetric.__all__
    + trees.__all__
    + zeta.__all__
)

__version__ = "0.1.0"
