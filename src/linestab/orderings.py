"""Neighbour orderings of decorated graphs.

A graph ordering fixes, at every vertex, a linear order of its neighbour
set.  The canonical ordering lists neighbours by increasing vertex index
and is the default whenever no ordering file is supplied.

Two orderings of the same graph differ, at each vertex, by the neighbour
pairs one lists in the other's reverse order; the ordering transition
(stabiliser.transition) is a sum over exactly those pairs.  Rotating one
vertex's list, which keeps its cyclic order, gives the zero class
(tests/test_stabiliser.py::test_rotation_kernel_every_vertex).

``decompose_adjacent`` factors a position permutation in 0-based one-line
notation (``sigma[p] = q``: the neighbour at position p moves to position
q) into adjacent swaps, reported as 1-based positions and applied left to
right; any such shortest word exchanges each inverted pair exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .combinatorics import DecoratedGraph, ValidationError, load_json

__all__ = [
    "GraphOrdering",
    "canonical_ordering",
    "decompose_adjacent",
    "ordering_from_doc",
    "parse_ordering",
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
