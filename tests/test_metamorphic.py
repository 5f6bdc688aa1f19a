"""Metamorphic properties: relabelling the lines, reordering the points and
moving the cycle-basis root change coordinates, never group types.

On MacLane and the quadruplet, on both graphs, none of the three may change
the stabiliser group or the meridian homology; on the full graph, the
first two may not change the rank of the tensor-linking kernel either (it
takes no root).
"""

import random

import pytest

from conftest import reduced_graph
from linestab import datasets
from linestab.combinatorics import GraphKind, LineCombinatorics, build_graph
from linestab.graphhomology import meridian_homology
from linestab.looplink import tlg
from linestab.stabiliser import stabiliser


def graph(c, kind):
    return reduced_graph(c) if kind is GraphKind.REDUCED else build_graph(c, kind)


def relabel_lines(c, rng):
    perm = list(range(c.n_lines))
    rng.shuffle(perm)
    return LineCombinatorics(c.n_lines, tuple(tuple(sorted(perm[i] for i in p)) for p in c.points))


def shuffle_points(c, rng):
    points = list(c.points)
    rng.shuffle(points)
    return LineCombinatorics(c.n_lines, tuple(points))


def types(g, root=0):
    """Group types that must not depend on labels, point order or root."""
    return (
        str(stabiliser(g, root).group),
        str(meridian_homology(g).group),
        tlg(g).rank if g.kind is GraphKind.FULL else None,
    )


@pytest.mark.parametrize("kind", list(GraphKind), ids=lambda k: k.value)
@pytest.mark.parametrize("name", ["maclane", "quadruplet"])
def test_group_types_are_metamorphic_invariants(name, kind):
    rng = random.Random("%s/%s" % (name, kind.value))
    c = getattr(datasets, name)()
    g = graph(c, kind)
    expected = types(g)
    assert types(graph(relabel_lines(c, rng), kind)) == expected
    assert types(graph(shuffle_points(c, rng), kind)) == expected
    root = rng.randrange(1, g.vertex_count)
    assert str(stabiliser(g, root).group) == expected[0]
