"""Tests for graph orderings, restriction and permutation decomposition."""

import itertools
import json

import pytest

from linestab import datasets
from linestab.combinatorics import GraphKind, ValidationError, build_graph, parse_combinatorics
from linestab.orderings import (
    GraphOrdering,
    canonical_ordering,
    circular_equal,
    decompose_adjacent,
    parse_ordering,
    restrict_ordering,
)

FANO = json.dumps({
    "n_lines": 7,
    "points": [[0, 1, 2], [0, 3, 4], [0, 5, 6], [1, 3, 5],
               [1, 4, 6], [2, 3, 6], [2, 4, 5]],
})


def k4():
    return build_graph(datasets.generic(4), GraphKind.REDUCED)


def rotate(row, r):
    return row[r:] + row[:r]


def swap_at(ordering, v, k):
    """New ordering with 1-based positions k, k+1 swapped at vertex v."""
    rows = list(ordering.order)
    row = list(rows[v])
    row[k - 1], row[k] = row[k], row[k - 1]
    rows[v] = tuple(row)
    return GraphOrdering(ordering.graph, tuple(rows))


def test_canonical_is_sorted():
    g = k4()
    o = canonical_ordering(g)
    assert o.order == g.neighbours
    assert o.position(0, 1) == 1


def test_circular_equal_rotation():
    g = k4()
    a = canonical_ordering(g)
    rows = list(a.order)
    rows[2] = rotate(rows[2], 1)
    assert circular_equal(a, GraphOrdering(g, tuple(rows)))


def test_circular_equal_detects_transposition():
    g = k4()  # every vertex has multiplicity 3
    a = canonical_ordering(g)
    assert circular_equal(a, a)
    assert not circular_equal(a, swap_at(a, 1, 1))


def test_circular_equal_rejects_other_graph():
    a = canonical_ordering(k4())
    b = canonical_ordering(build_graph(datasets.maclane(), GraphKind.REDUCED))
    with pytest.raises(ValidationError):
        circular_equal(a, b)


def test_ordering_validates_rows():
    g = k4()
    with pytest.raises(ValidationError, match="not a permutation"):
        GraphOrdering(g, ((1, 2, 2), (0, 2, 3), (0, 1, 3), (0, 1, 2)))


def test_parse_ordering_defaults_and_overrides():
    g = k4()
    o = parse_ordering('{"order": {"L1": ["L3", "L0", "L2"]}}', g)
    assert o.order[1] == (3, 0, 2)
    assert o.order[0] == g.neighbours[0]
    with pytest.raises(ValidationError):
        parse_ordering('{"order": {"L9": []}}', g)
    with pytest.raises(ValueError):
        parse_ordering('{"orders": {}}', g)


# ----------------------------------------------------------------------------
# restriction
# ----------------------------------------------------------------------------


def test_restrict_replaces_double_points_in_place():
    c = datasets.quadruplet()
    full = build_graph(c, GraphKind.FULL)
    red = build_graph(c, GraphKind.REDUCED)
    o = restrict_ordering(canonical_ordering(full), red)
    # L0 meets four heavy points and the double point {0,3}
    row = o.order[0]
    assert len(row) == 5
    assert 3 in row
    double = next(j for j, p in enumerate(c.points) if p == (0, 3))
    pos = full.neighbours[0].index(full.vertex_by_label("P%d" % double))
    assert row[pos] == 3
    assert sorted(row) == list(red.neighbours[0])


def test_restrict_keeps_heavy_point_rows():
    c = datasets.quadruplet()
    full = build_graph(c, GraphKind.FULL)
    red = build_graph(c, GraphKind.REDUCED)
    o = restrict_ordering(canonical_ordering(full), red)
    for v in range(11, red.vertex_count):
        src = full.vertex_by_label(red.labels[v])
        assert o.order[v] == full.neighbours[src]


def test_restrict_identity_without_double_points():
    c = parse_combinatorics(FANO)
    full = build_graph(c, GraphKind.FULL)
    red = build_graph(c, GraphKind.REDUCED)
    o = restrict_ordering(canonical_ordering(full), red)
    assert o.order == canonical_ordering(red).order


def test_restrict_rejects_wrong_kinds():
    c = datasets.quadruplet()
    red = build_graph(c, GraphKind.REDUCED)
    with pytest.raises(ValidationError):
        restrict_ordering(canonical_ordering(red), red)
    other = build_graph(datasets.maclane(), GraphKind.REDUCED)
    full = build_graph(c, GraphKind.FULL)
    with pytest.raises(ValidationError):
        restrict_ordering(canonical_ordering(full), other)


# ----------------------------------------------------------------------------
# permutations
# ----------------------------------------------------------------------------


def test_decompose_golden():
    assert decompose_adjacent([]) == ()
    assert decompose_adjacent([0, 1, 2]) == ()
    assert decompose_adjacent([1, 0]) == (1,)
    assert decompose_adjacent([1, 2, 0]) == (2, 1)


def test_decompose_rejects_non_permutation():
    with pytest.raises(ValidationError):
        decompose_adjacent([0, 0, 1])


def test_decompose_exhaustive_small():
    for m in range(1, 6):
        for sigma in itertools.permutations(range(m)):
            word = decompose_adjacent(sigma)
            row = list(range(m))
            for k in word:
                row[k - 1], row[k] = row[k], row[k - 1]
            # entry starting at position p must land at position sigma[p]
            assert all(row[sigma[p]] == p for p in range(m))


def test_rotation_orbit_sizes():
    """At a vertex of multiplicity m there are m rotations and (m-1)! classes."""
    c = datasets.quadruplet()
    g = build_graph(c, GraphKind.REDUCED)
    quad = next(j for j, p in enumerate(c.points) if len(p) == 4)
    v = g.vertex_by_label("P%d" % quad)
    m = len(g.neighbours[v])
    assert m == 4
    base = canonical_ordering(g)
    classes = []
    for perm in itertools.permutations(g.neighbours[v]):
        rows = list(base.order)
        rows[v] = perm
        o = GraphOrdering(g, tuple(rows))
        if not any(circular_equal(o, rep) for rep in classes):
            classes.append(o)
    assert len(classes) == 6  # (4-1)!
    rows = list(base.order)
    rotations = {rotate(rows[v], r) for r in range(m)}
    assert len(rotations) == m
