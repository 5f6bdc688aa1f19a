"""Metamorphic properties: relabelling the lines, reordering the points and
moving the cycle-basis root change coordinates, never group types.

On MacLane and the quadruplet, on both graphs, none of the three may change
the stabiliser group or the meridian homology; on the full graph, the
first two may not change the rank of the tensor-linking kernel either (it
takes no root).

The equation oracle must return the same combinatorics, up to the induced
relabelling, when a line is scaled by a unit, the lines are permuted, or
every line goes through one projective change of coordinates.
"""

import itertools
import math
import random

import pytest

from conftest import reduced_graph
from linestab import datasets
from linestab.combinatorics import (
    GraphKind,
    LineCombinatorics,
    build_graph,
    intersect_equations,
)
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


# ----------------------------------------------------------------------------
# equation oracle
# ----------------------------------------------------------------------------


def rational_lines(rng, n):
    """n distinct rational lines with coefficients in -2..2.

    Each line is its primitive integer vector with first nonzero entry
    positive, so no two are proportional; small entries make many meet in
    threes or more.
    """
    triples = [
        t
        for t in itertools.product(range(-2, 3), repeat=3)
        if math.gcd(*t) == 1 and next(c for c in t if c) > 0
    ]
    return [[[c] for c in t] for t in rng.sample(triples, n)]


def equations(name):
    if name.startswith("rational"):
        return rational_lines(random.Random(name), 10), [0, 1]
    return getattr(datasets, name + "_equations")()


def change_coordinates(m, line):
    """The line m · line, each entry a polynomial in w."""
    out = []
    for row in m:
        poly = [0] * max(len(v) for v in line)
        for a, v in zip(row, line):
            for i, x in enumerate(v):
                poly[i] += a * x
        out.append(poly)
    return out


def relabelled(c, perm):
    """c with line perm[q] renamed q."""
    name = {old: q for q, old in enumerate(perm)}
    points = (tuple(sorted(name[line] for line in p)) for p in c.points)
    return LineCombinatorics(c.n_lines, tuple(sorted(points)))


def det3(m):
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


@pytest.mark.parametrize(
    "name", ["maclane", "quadruplet", "rational-0", "rational-1", "rational-2"]
)
def test_oracle_is_metamorphic(name):
    rng = random.Random("oracle/" + name)
    lines, minpoly = equations(name)
    c = intersect_equations(lines, minpoly)
    assert any(len(p) > 2 for p in c.points)
    n = len(lines)

    def with_line(k, new):
        return lines[:k] + [new] + lines[k + 1:]

    for k in range(n):
        m = rng.choice([-3, -2, -1, 2, 3, 7])
        scaled = [[m * x for x in v] for v in lines[k]]
        assert intersect_equations(with_line(k, scaled), minpoly) == c
        if minpoly != [0, 1]:  # w is a unit in both bundled fields
            times_w = [[0] + v for v in lines[k]]
            assert intersect_equations(with_line(k, times_w), minpoly) == c

    perm = rng.sample(range(n), n)
    assert intersect_equations([lines[q] for q in perm], minpoly) == relabelled(c, perm)

    m = [[0] * 3] * 3
    while not det3(m):
        m = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
    moved = [change_coordinates(m, line) for line in lines]
    assert intersect_equations(moved, minpoly) == c
