"""Exact order-theoretic computation on commutative monoids.

The package decides the canonical quasi-order and its equivalence on
finite, lattice-generated, and open-cone carriers, reduces carriers to
partially ordered difference groups, tests localizability of biadditive
operations, enumerates extremal positive functionals, and applies these
to automatic commutativity/associativity checks, lattice-ordered ring
conditions, and sums-of-squares membership for rational functions.
"""

__version__ = "0.1.0"

from .core import (  # noqa: F401
    InputError,
    InternalCheckError,
    ResourceBudgetError,
)
