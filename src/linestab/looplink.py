"""The tensor linking group of the full graph and loop-linking values.

An element of the tensor linking group is a homomorphism from meridian
homology to the cycle space of the full graph, flattened row-major
(meridian coordinate major, cycle minor).  Each group generator, a dual
vertex u tensored with an edge e, imposes one integer linear form on
those coordinates, pi_u (x) zeta_e (graphhomology.add_tensor at
meridian-major strides).  The group itself is the kernel lattice of all
the forms.

Loop-linking values pair a kernel basis row against inclusion data,
written in the same coordinates by graphhomology.chains_to_hom: their
dot product is the trace of the row composed with the inclusion matrix.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .combinatorics import DecoratedGraph, GraphKind, ValidationError
from .exactalg import IntMatrix, lattice_kernel
from .graphhomology import (
    CycleBasis, MeridianHomology, add_tensor, chains_to_hom, cycle_basis, meridian_homology,
)
from .inclusion import InclusionMatrix
from .stabiliser import gs_generator_terms

__all__ = [
    "LoopLinkingNumber",
    "TensorLinkingGroup",
    "lln",
    "tlg",
    "tlg_generator_positions",
    "verify_lemma_gs_tlg",
]


@dataclass(frozen=True)
class TensorLinkingGroup:
    graph: DecoratedGraph
    basis: CycleBasis
    mh: MeridianHomology
    generators: tuple[tuple[int, int], ...]
    lattice: IntMatrix

    @property
    def ambient_rank(self) -> int:
        return self.lattice.cols

    @property
    def rank(self) -> int:
        return self.lattice.rows


@dataclass(frozen=True)
class LoopLinkingNumber:
    """One integer per kernel basis row, in lattice row order."""

    values: tuple[int, ...]

    @property
    def is_zero(self) -> bool:
        return not any(self.values)


def tlg_generator_positions(g: DecoratedGraph) -> list[tuple[int, int]]:
    """(vertex, edge) pairs generating the constraint module.

    Per edge between a point and a line: one generator for every line
    through the point, then one for every point on the line.  On the full
    graph these are the point's and the line's neighbours, ascending.
    """
    _require_full(g)
    out = []
    # Lines are numbered before points, so every edge is (line, point).
    for e, (line, point) in enumerate(g.edges):
        out.extend((other, e) for other in g.neighbours[point])
        out.extend((other, e) for other in g.neighbours[line])
    return out


def tlg(g: DecoratedGraph) -> TensorLinkingGroup:
    """Kernel lattice of the generator forms on hom(MH, H1)."""
    _require_full(g)
    basis = cycle_basis(g)
    mh = meridian_homology(g)
    k = basis.rank
    width = mh.group.coord_count * k
    gens = tlg_generator_positions(g)

    def form(u: int, e: int):
        row = defaultdict(int)
        add_tensor(row, 1, basis.edge_cycles[e], mh.projections[u], 1, k)
        return row

    lattice = lattice_kernel(IntMatrix._from_rows((form(u, e) for u, e in gens), width))
    return TensorLinkingGroup(g, basis, mh, tuple(gens), lattice)


def lln(t: TensorLinkingGroup, m: InclusionMatrix) -> LoopLinkingNumber:
    """Trace pairing of every lattice basis row with the inclusion data."""
    if m.ordering.graph != t.graph:
        raise ValidationError("inclusion data belongs to a different graph")
    x = chains_to_hom(m.matrix, t.mh, 1, t.basis.rank)
    values = tuple(sum(a * x[j] for j, a in row.items()) for row in t.lattice.entries)
    return LoopLinkingNumber(values)


def verify_lemma_gs_tlg(g: DecoratedGraph) -> bool:
    """Whether every stabiliser generator, read as a vertex-by-edge
    matrix, lies in the lattice spanned by the constraint generators.
    Those are unit vectors, so each term must sit at a constraint position."""
    _require_full(g)
    support = set(tlg_generator_positions(g))
    return all((u, e) in support for terms in gs_generator_terms(g) for e, u, _ in terms)


def _require_full(g: DecoratedGraph) -> None:
    if g.kind is not GraphKind.FULL:
        raise ValidationError("the tensor linking group lives on the full graph")
