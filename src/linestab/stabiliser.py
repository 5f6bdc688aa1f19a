"""The graph stabiliser and the ordering-transition correction.

The stabiliser of a decorated graph is the quotient of hom(H1, MH) by
the images of a finite set of relation generators.  Each generator is a
short list of (edge, vertex, coefficient) terms, an element of
hom(C1, C0) with at most two nonzero entries.  Pushing a term into
hom(H1, MH) adds c * zeta_e (x) pi_u: the edge's column of the cycle
decomposition map tensored with the vertex's meridian projection
(graphhomology.add_tensor), flattened cycle-major, and so is inclusion
data (graphhomology.chains_to_hom).  Classes in the quotient are what the
comparison workflow trades in.

The transition between two orderings is a sum over inverted neighbour
pairs.  At each vertex v, every pair x before y in the first ordering
that the second reverses contributes the image of the dual of edge
(v, y) tensored with x, signed by the edge's canonical orientation: one
more term of the same kernel.  Any shortest adjacent-swap word from one
ordering to the other exchanges each such pair exactly once, earlier
neighbour on the left, so this is the vector that walking such a word
accumulates.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Sequence

from .combinatorics import DecoratedGraph, ValidationError
from .exactalg import AbelianGroup, IntMatrix, quotient_group
from .graphhomology import (
    CycleBasis, MeridianHomology, add_tensor, chains_to_hom, cycle_basis, meridian_homology,
)
from .orderings import GraphOrdering

__all__ = [
    "StabiliserClass",
    "StabiliserGroup",
    "gs_generator_terms",
    "gs_generators",
    "lift_to_chains",
    "reduce_to_class",
    "stabiliser",
    "stabiliser_relations",
    "transition",
]


@dataclass(frozen=True)
class StabiliserClass:
    """An element of a stabiliser group in canonical coordinates."""

    group: AbelianGroup = field(repr=False)
    coords: tuple[int, ...] = ()

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    def __add__(self, other: "StabiliserClass") -> "StabiliserClass":
        self._check(other)
        return self._of([x + y for x, y in zip(self.coords, other.coords)])

    def __sub__(self, other: "StabiliserClass") -> "StabiliserClass":
        self._check(other)
        return self._of([x - y for x, y in zip(self.coords, other.coords)])

    def __neg__(self) -> "StabiliserClass":
        return self._of([-x for x in self.coords])

    def _of(self, coords: list[int]) -> "StabiliserClass":
        return StabiliserClass(self.group, self.group.canonical_coords(coords))

    def _check(self, other: "StabiliserClass") -> None:
        if self.group is not other.group:
            raise ValidationError("classes live in different stabiliser groups")


@dataclass(frozen=True)
class StabiliserGroup:
    graph: DecoratedGraph
    basis: CycleBasis
    mh: MeridianHomology
    relations: IntMatrix
    group: AbelianGroup

    @property
    def ambient_rank(self) -> int:
        return self.relations.cols

    def zero(self) -> StabiliserClass:
        return StabiliserClass(self.group, (0,) * self.group.coord_count)


def gs_generator_terms(g: DecoratedGraph) -> list[tuple[tuple[int, int, int], ...]]:
    """Relation generators as their nonzero (edge, vertex, coeff) terms.

    Every edge contributes the two generators picking out its own
    endpoints.  Every vertex contributes one generator per unordered pair
    of distinct incident edges: the first edge's dual tensored with the
    second edge's far endpoint, plus the mirrored term signed by both
    canonical orientations.
    """
    out = [((e, u, 1),) for e, edge in enumerate(g.edges) for u in edge]
    for v in range(g.vertex_count):
        ns = g.neighbours[v]
        for i, y in enumerate(ns):
            for z in ns[i + 1:]:
                sign = g.delta(v, y) * g.delta(v, z)
                out.append(((g.edge_position(v, y), z, 1), (g.edge_position(v, z), y, sign)))
    return out


def gs_generators(g: DecoratedGraph) -> IntMatrix:
    """The generators of gs_generator_terms() as sparse rows in edge x
    vertex coordinates, flattened edge-major (position = edge *
    vertex_count + vertex)."""
    nv = g.vertex_count
    rows = (((e * nv + u, c) for e, u, c in terms) for terms in gs_generator_terms(g))
    return IntMatrix.from_entries(rows, g.edge_count * nv)


def _push_to_hom(basis: CycleBasis, mh: MeridianHomology) -> IntMatrix:
    """Relation generators in flattened hom(H1, MH) coordinates; MH is
    free (graphhomology's docstring), so they are all the relations."""
    t = mh.group.coord_count
    out = []
    for terms in gs_generator_terms(basis.graph):
        img = defaultdict(int)
        for e, u, c in terms:
            add_tensor(img, c, basis.edge_cycles[e], mh.projections[u], t, 1)
        out.append(img)
    return IntMatrix._from_rows(out, basis.rank * t)


def stabiliser_relations(
    g: DecoratedGraph, root: int = 0
) -> tuple[CycleBasis, MeridianHomology, IntMatrix]:
    """The cycle basis, meridian homology and relation rows in flattened
    hom(H1, MH) coordinates that stabiliser() takes the quotient of."""
    basis = cycle_basis(g, root)
    mh = meridian_homology(g)
    return basis, mh, _push_to_hom(basis, mh)


def stabiliser(g: DecoratedGraph, root: int = 0) -> StabiliserGroup:
    """Quotient of hom(H1, MH) by the images of the relation generators."""
    basis, mh, relations = stabiliser_relations(g, root)
    group = quotient_group(relations.cols, relations)
    return StabiliserGroup(g, basis, mh, relations, group)


def reduce_to_class(s: StabiliserGroup, m: IntMatrix) -> StabiliserClass:
    """Class of a cycle-by-vertex matrix: push it into flattened
    hom(H1, MH) coordinates like the relations, reduce in the quotient."""
    t = s.mh.group.coord_count
    return StabiliserClass(s.group, s.group.reduce(chains_to_hom(m, s.mh, t, 1)))


def lift_to_chains(s: StabiliserGroup, flat: Sequence[int]) -> IntMatrix:
    """A cycle-by-vertex matrix projecting back onto the given flattened
    hom coordinates.  Useful for realising ambient vectors as synthetic
    inclusion data."""
    t = s.mh.group.coord_count
    if len(flat) != s.ambient_rank:
        raise ValidationError(
            "expected %d flattened coordinates, got %d" % (s.ambient_rank, len(flat))
        )
    rows = [s.mh.group.lift(flat[i * t:(i + 1) * t]) for i in range(s.basis.rank)]
    return IntMatrix(rows, cols=s.graph.vertex_count)


def transition(s: StabiliserGroup, a: GraphOrdering, b: GraphOrdering) -> StabiliserClass:
    """Correction class comparing invariants computed in orderings a and b.

    At each vertex v, every pair x before y in a that b reverses adds
    delta(v, y) * zeta_(v, y) (x) pi_x; the sum is then reduced.
    """
    if a.graph != s.graph or b.graph != s.graph:
        raise ValidationError("orderings belong to a different graph")
    g = s.graph
    t = s.mh.group.coord_count
    total = [0] * s.ambient_rank
    for v in range(g.vertex_count):
        rank = {w: q for q, w in enumerate(b.order[v])}
        row = a.order[v]
        for i, x in enumerate(row):
            for y in row[i + 1:]:
                if rank[y] < rank[x]:
                    cycles = s.basis.edge_cycles[g.edge_position(v, y)]
                    add_tensor(total, g.delta(v, y), cycles, s.mh.projections[x], t, 1)
    return StabiliserClass(s.group, s.group.reduce(total))
