"""Neighbour orderings of decorated graphs.

A graph ordering fixes, at every vertex, a linear order of its neighbour
set.  Only the induced circular order matters downstream, so orderings are
compared up to rotation at each vertex.  The canonical ordering lists
neighbours by increasing vertex index and is the default whenever no
ordering file is supplied.

Two orderings of the same graph differ, at each vertex, by the neighbour
pairs one lists in the other's reverse order; the ordering transition
(stabiliser.transition) is a sum over exactly those pairs.
``decompose_adjacent`` factors a position permutation in 0-based one-line
notation (``sigma[p] = q``: the neighbour at position p moves to position
q) into adjacent swaps, reported as 1-based positions and applied left to
right; any such shortest word exchanges each inverted pair exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .combinatorics import DecoratedGraph, GraphKind, ValidationError, load_json

__all__ = [
    "GraphOrdering",
    "canonical_ordering",
    "circular_equal",
    "decompose_adjacent",
    "ordering_from_doc",
    "parse_ordering",
    "restrict_ordering",
]


@dataclass(frozen=True)
class GraphOrdering:
    """A linearisation of every neighbour set of a decorated graph.

    ``order[v]`` lists the neighbours of vertex v in position order, so
    the neighbour at (1-based) position k is ``order[v][k - 1]``.
    """

    graph: DecoratedGraph
    order: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.order) != self.graph.vertex_count:
            raise ValidationError(
                "ordering covers %d vertices, graph has %d"
                % (len(self.order), self.graph.vertex_count)
            )
        for v, row in enumerate(self.order):
            if sorted(row) != list(self.graph.neighbours[v]):
                raise ValidationError(
                    "ordering at %s is not a permutation of its neighbours"
                    % self.graph.labels[v]
                )

    def position(self, v: int, w: int) -> int:
        """1-based position of neighbour w at vertex v."""
        return self.order[v].index(w) + 1


def canonical_ordering(g: DecoratedGraph) -> GraphOrdering:
    """The default ordering: neighbours by increasing vertex index."""
    return GraphOrdering(g, g.neighbours)


def parse_ordering(text: str | bytes, g: DecoratedGraph) -> GraphOrdering:
    """Parse an ordering file against a graph.

    The format is ``{"order": {"<vertex>": ["<neighbour>", ...], ...}}``
    with vertices named by label.  Vertices not mentioned keep the
    canonical order.
    """
    return ordering_from_doc(load_json(text), g)


def ordering_from_doc(raw, g: DecoratedGraph) -> GraphOrdering:
    """The ordering described by an already decoded ordering document."""
    if not isinstance(raw, dict) or not isinstance(raw.get("order", None), dict):
        raise ValueError('ordering file must be an object with an "order" mapping')
    rows = list(g.neighbours)
    for label, names in raw["order"].items():
        v = g.vertex_by_label(label)
        if not isinstance(names, list) or not all(isinstance(w, str) for w in names):
            raise ValueError("ordering at %s must be a list of labels" % label)
        rows[v] = tuple(g.vertex_by_label(w) for w in names)
    return GraphOrdering(g, tuple(rows))


def circular_equal(a: GraphOrdering, b: GraphOrdering) -> bool:
    """Whether the two orderings induce the same circular order everywhere."""
    _same_graph(a, b)
    for ra, rb in zip(a.order, b.order):
        if len(ra) != len(rb):
            return False
        if not _is_rotation(ra, rb):
            return False
    return True


def _is_rotation(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    if len(a) <= 1:
        return a == b
    m = len(a)
    shift = b.index(a[0])
    return all(a[i] == b[(shift + i) % m] for i in range(m))


def restrict_ordering(full: GraphOrdering, reduced: DecoratedGraph) -> GraphOrdering:
    """Push an ordering of the full graph down to the reduced graph.

    Heavy points keep their neighbour order.  At a line vertex, each
    double point is replaced by the other line through it, in place; the
    double-point vertices themselves disappear.
    """
    g_full = full.graph
    if g_full.kind is not GraphKind.FULL:
        raise ValidationError("restrict_ordering expects an ordering of the full graph")
    if reduced.kind is not GraphKind.REDUCED:
        raise ValidationError("restriction target must be the reduced graph")
    comb = reduced.combinatorics
    if g_full.combinatorics != comb:
        raise ValidationError("orderings belong to a different combinatorics")

    rows = []
    for v in range(reduced.vertex_count):
        src = g_full.vertex_by_label(reduced.labels[v])
        row = []
        for u in full.order[src]:
            if reduced.is_line(v) and not g_full.is_line(u):
                point = g_full.point_ids[u - comb.n_lines]
                if len(comb.points[point]) == 2:
                    row.append(next(w for w in comb.points[point] if w != v))
                    continue
            row.append(reduced.vertex_by_label(g_full.labels[u]))
        rows.append(tuple(row))
    return GraphOrdering(reduced, tuple(rows))


def decompose_adjacent(sigma: Sequence[int]) -> tuple[int, ...]:
    """Factor a one-line permutation into adjacent transpositions.

    Returns 1-based swap positions k (exchange positions k and k+1),
    produced by bubble sort and hence deterministic.  Applying the swaps
    left to right to a tuple ordered by ``sigma``'s source realises the
    permutation.
    """
    arr = list(sigma)
    if sorted(arr) != list(range(len(arr))):
        raise ValidationError("not a permutation in one-line notation: %r" % (sigma,))
    word = []
    swapped = True
    while swapped:
        swapped = False
        for p in range(len(arr) - 1):
            if arr[p] > arr[p + 1]:
                arr[p], arr[p + 1] = arr[p + 1], arr[p]
                word.append(p + 1)
                swapped = True
    return tuple(word)


def _same_graph(a: GraphOrdering, b: GraphOrdering) -> None:
    if a.graph != b.graph:
        raise ValidationError("orderings belong to different graphs")
