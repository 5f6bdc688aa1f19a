"""Symbolic presentation of the fundamental group of the boundary manifold.

Generators are one meridian per vertex and one loop per non-tree edge of
the pinned cycle basis.  Words are tuples of signed 1-based letters:
letter v+1 is the meridian of vertex v, letter V+j+1 the loop of the
j-th non-tree edge, and negation is inversion.  No simplification is
performed; the words are emitted exactly as built.

Relators come in two families.  Each vertex contributes its meridian
raised to the Euler number, followed by the neighbour meridians in
ordering position, each conjugated by the connecting loop when the edge
leaves the spanning tree.  Each edge contributes the commutator of its
endpoint meridians, the far one conjugated the same way.  Conjugation is
x^y = y^-1 x y throughout.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .combinatorics import DecoratedGraph, GraphKind, ValidationError
from .exactalg import AbelianGroup, IntMatrix, quotient_group
from .graphhomology import CycleBasis
from .orderings import GraphOrdering

__all__ = ["GroupPresentation", "abelianise", "pi1_presentation", "presentation_text"]


@dataclass(frozen=True)
class GroupPresentation:
    graph: DecoratedGraph
    basis: CycleBasis
    relators: tuple[tuple[int, ...], ...]

    @property
    def generator_count(self) -> int:
        return self.graph.vertex_count + self.basis.rank

    @property
    def generator_names(self) -> tuple[str, ...]:
        labels = self.graph.labels
        loops = tuple(
            "g_%s_%s" % (labels[v], labels[w]) for v, w in self.basis.non_tree_edges
        )
        return tuple("m_" + lab for lab in labels) + loops


def _inverse(word: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-x for x in reversed(word))


def _conjugate(word: tuple[int, ...], by: tuple[int, ...]) -> tuple[int, ...]:
    if not by:
        return word
    return _inverse(by) + word + by


def pi1_presentation(
    g: DecoratedGraph, basis: CycleBasis, ordering: GraphOrdering
) -> GroupPresentation:
    if g.kind is not GraphKind.REDUCED:
        raise ValidationError("the presentation is built from the reduced graph")
    if basis.graph != g or ordering.graph != g:
        raise ValidationError("cycle basis and ordering must belong to the graph")
    nv = g.vertex_count
    loop_of = {e: nv + j + 1 for j, e in enumerate(basis.non_tree_edges)}

    def connector(v: int, w: int) -> tuple[int, ...]:
        """u(v, w): the loop letter of a non-tree edge, oriented out of v."""
        letter = loop_of.get((min(v, w), max(v, w)))
        if letter is None:
            return ()
        return (letter,) if g.delta(v, w) > 0 else (-letter,)

    relators = []
    for v in range(nv):
        eps = g.euler[v]
        word = (v + 1,) * eps if eps >= 0 else (-(v + 1),) * (-eps)
        for w in ordering.order[v]:
            word += _conjugate((w + 1,), connector(v, w))
        relators.append(word)
    for v, w in g.edges:
        far = _conjugate((w + 1,), connector(v, w))
        relators.append((v + 1,) + far + (-(v + 1),) + _inverse(far))
    return GroupPresentation(g, basis, tuple(relators))


def abelianise(p: GroupPresentation) -> AbelianGroup:
    """Quotient of the free abelian group on the generators by the
    exponent sums of the relators."""
    rows = []
    for word in p.relators:
        row = defaultdict(int)
        for letter in word:
            row[abs(letter) - 1] += 1 if letter > 0 else -1
        rows.append(row)
    return quotient_group(p.generator_count, IntMatrix._from_rows(rows, p.generator_count))


def presentation_text(p: GroupPresentation) -> str:
    names = p.generator_names

    def render(word: tuple[int, ...]) -> str:
        if not word:
            return "1"
        return " ".join(
            names[x - 1] if x > 0 else names[-x - 1] + "^-1" for x in word
        )

    lines = ["generators: " + " ".join(names), "relators:"]
    lines += ["  " + render(word) for word in p.relators]
    return "\n".join(lines)
