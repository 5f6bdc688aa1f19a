"""Inclusion-matrix ingestion and invariant comparison.

Inclusion matrices arrive as data files: one row per cycle of the pinned
basis, one column per vertex, together with the ordering the values were
computed in.  The basis tag in the file must name the pinned spanning
tree ("bfs-root0"); refusing other tags keeps coordinates from different
conventions out of the same comparison.

Comparing two matrices subtracts their classes and the ordering
transition between them.  A zero difference certifies agreement of the
invariant; a nonzero one certifies the input data are distinguished by
it.  Nothing stronger is claimed either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .combinatorics import DecoratedGraph, ValidationError, load_json
from .exactalg import IntMatrix
from .orderings import GraphOrdering, canonical_ordering, ordering_from_doc
from .stabiliser import StabiliserClass, StabiliserGroup, reduce_to_class, transition

__all__ = [
    "BASIS_TAG",
    "ComparisonReport",
    "InclusionMatrix",
    "Verdict",
    "compare",
    "invariant",
    "parse_inclusion",
]

BASIS_TAG = "bfs-root0"


@dataclass(frozen=True)
class InclusionMatrix:
    matrix: IntMatrix
    ordering: GraphOrdering
    basis_tag: str


class Verdict(Enum):
    EQUAL = "Equal"
    DISTINCT = "Distinct"


@dataclass(frozen=True)
class ComparisonReport:
    class_a: StabiliserClass
    class_b: StabiliserClass
    transition: StabiliserClass
    difference: StabiliserClass
    verdict: Verdict


def parse_inclusion(text: str | bytes, g: DecoratedGraph) -> InclusionMatrix:
    """Parse an inclusion-matrix file against the graph it belongs to."""
    raw = load_json(text)
    if not isinstance(raw, dict):
        raise ValueError("inclusion file must be a JSON object")
    for key in ("cycles", "matrix", "basis"):
        if key not in raw:
            raise ValueError("inclusion file lacks %r" % key)
    if raw["basis"] != BASIS_TAG:
        raise ValidationError(
            "basis tag %r does not match the pinned %r" % (raw["basis"], BASIS_TAG)
        )
    if "graph" in raw and raw["graph"] != g.kind.value:
        raise ValidationError(
            "inclusion file is for the %s graph, got the %s graph"
            % (raw["graph"], g.kind.value)
        )
    rank = g.cycle_rank
    if type(raw["cycles"]) is not int or raw["cycles"] != rank:
        raise ValidationError(
            "file declares %r cycles, graph has %d" % (raw["cycles"], rank)
        )
    matrix = raw["matrix"]
    if not isinstance(matrix, list) or len(matrix) != rank:
        raise ValidationError("matrix must have one row per cycle")
    entries = []
    for row in matrix:
        if not isinstance(row, list) or len(row) != g.vertex_count:
            raise ValidationError("matrix rows must have one entry per vertex")
        # JSON integers are exactly the int instances; True and 1.0 are not.
        if not all(type(x) is int for x in row):
            raise ValidationError("matrix entries must be integers")
        entries.append({j: x for j, x in enumerate(row) if x})
    if "ordering" in raw:
        ordering = ordering_from_doc(raw["ordering"], g)
    else:
        ordering = canonical_ordering(g)
    m = IntMatrix.__new__(IntMatrix)._set(tuple(entries), g.vertex_count)
    return InclusionMatrix(m, ordering, BASIS_TAG)


def invariant(s: StabiliserGroup, m: InclusionMatrix) -> StabiliserClass:
    """The class of the inclusion data in the stabiliser group."""
    if m.ordering.graph != s.graph:
        raise ValidationError("inclusion data belongs to a different graph")
    if s.basis.root != 0:
        raise ValidationError(
            "the stabiliser's basis is rooted at %d, not at the pinned %r"
            % (s.basis.root, BASIS_TAG)
        )
    return reduce_to_class(s, m.matrix)


def compare(s: StabiliserGroup, a: InclusionMatrix, b: InclusionMatrix) -> ComparisonReport:
    """Invariant difference of b against a, corrected by the ordering
    transition from a's ordering to b's."""
    class_a = invariant(s, a)
    class_b = invariant(s, b)
    correction = transition(s, a.ordering, b.ordering)
    difference = class_b - class_a - correction
    verdict = Verdict.EQUAL if difference.is_zero else Verdict.DISTINCT
    return ComparisonReport(class_a, class_b, correction, difference, verdict)
