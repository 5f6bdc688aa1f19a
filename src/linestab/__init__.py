"""Combinatorial stabiliser machinery for complex line arrangements.

Exact-integer computation of the graph stabiliser group, transition
corrections between orderings, loop-linking values and fundamental group
presentations attached to the incidence combinatorics of a line arrangement.
"""

from linestab.exactalg import (
    AbelianGroup,
    IntMatrix,
    SmithDecomposition,
    hermite,
    lattice_kernel,
    lattice_members,
    quotient_group,
    smith,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup",
    "IntMatrix",
    "SmithDecomposition",
    "hermite",
    "lattice_kernel",
    "lattice_members",
    "quotient_group",
    "smith",
    "__version__",
]
