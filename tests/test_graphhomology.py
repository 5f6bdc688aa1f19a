"""Tests for cycle bases, the boundary map and meridian homology."""

import dataclasses

import pytest
import sympy

from linestab import datasets
from linestab.combinatorics import GraphKind, ValidationError, build_graph
from linestab.exactalg import IntMatrix, hermite
from linestab.graphhomology import (
    cycle_basis,
    meridian_homology,
    verify_h1e,
)
from linestab.stabiliser import stabiliser


def boundary_matrix(g):
    """Edge boundaries as rows: -1 at the low vertex, +1 at the high one."""
    rows = []
    for v, w in g.edges:
        row = [0] * g.vertex_count
        row[v], row[w] = -1, 1
        rows.append(tuple(row))
    return IntMatrix(tuple(rows), cols=g.vertex_count)


def reduced(c):
    return build_graph(c, GraphKind.REDUCED)


def test_cycle_ranks():
    assert cycle_basis(reduced(datasets.generic(4))).rank == 3
    assert cycle_basis(reduced(datasets.maclane())).rank == 13
    assert cycle_basis(reduced(datasets.quadruplet())).rank == 30


def test_rank_formula():
    for c in (datasets.generic(4), datasets.maclane(), datasets.quadruplet()):
        for kind in GraphKind:
            g = build_graph(c, kind)
            assert cycle_basis(g).rank == g.cycle_rank == g.edge_count - g.vertex_count + 1


def test_cycles_lie_in_boundary_kernel():
    for c in (datasets.generic(4), datasets.maclane(), datasets.quadruplet()):
        g = reduced(c)
        b = cycle_basis(g)
        assert (b.zeta @ boundary_matrix(g)).is_zero()


def test_cycle_rows_use_defining_edge_once():
    g = reduced(datasets.quadruplet())
    b = cycle_basis(g)
    tree = set(b.tree_edges)
    for i, e in enumerate(b.non_tree_edges):
        row = b.zeta.row(i)
        assert row[g.edge_position(*e)] == 1
        for j, coeff in enumerate(row):
            if coeff and g.edges[j] != e:
                assert g.edges[j] in tree
    assert len(b.tree_edges) == g.vertex_count - 1


def test_cycle_basis_unimodular():
    for c in (datasets.generic(4), datasets.maclane()):
        g = reduced(c)
        b = cycle_basis(g)
        rows = list(b.zeta.data)
        for e in b.tree_edges:
            row = [0] * g.edge_count
            row[g.edge_position(*e)] = 1
            rows.append(tuple(row))
        det = sympy.Matrix(rows).det()
        assert det in (1, -1)


def test_cycle_basis_deterministic_and_root_choice():
    g = reduced(datasets.maclane())
    assert cycle_basis(g) == cycle_basis(g)
    other = cycle_basis(g, root=5)
    assert other.rank == 13
    assert (other.zeta @ boundary_matrix(g)).is_zero()
    assert other.tree_edges != cycle_basis(g).tree_edges


def test_cycle_basis_rejects_a_root_outside_the_graph():
    g = reduced(datasets.maclane())
    for root in (-1, g.vertex_count):
        with pytest.raises(ValidationError):
            cycle_basis(g, root)
        with pytest.raises(ValidationError):
            stabiliser(g, root)


def test_meridian_homology_generic4():
    m = meridian_homology(reduced(datasets.generic(4)))
    assert str(m.group) == "Z^3"
    # each vertex relation is the all-ones row: euler 1 plus three neighbours
    assert m.group.relations == IntMatrix([(1, 1, 1, 1)] * 4)


def test_meridian_homology_ranks():
    for c, rank in ((datasets.maclane(), 7), (datasets.quadruplet(), 10)):
        m = meridian_homology(reduced(c))
        assert m.group.torsion == ()
        assert m.group.free_rank == rank


def test_meridian_homology_full_graph():
    for c, rank in ((datasets.maclane(), 7), (datasets.quadruplet(), 10)):
        g = build_graph(c, GraphKind.FULL)
        m = meridian_homology(g)
        assert m.group.torsion == ()
        assert m.group.free_rank == rank
        assert verify_h1e(m, c.n_lines)


def test_verify_h1e_suite():
    for c in (datasets.generic(3), datasets.generic(4),
              datasets.maclane(), datasets.quadruplet()):
        m = meridian_homology(reduced(c))
        assert verify_h1e(m, c.n_lines)


def test_verify_h1e_rejects_wrong_euler():
    g = reduced(datasets.quadruplet())
    euler = tuple(1 if v >= 11 else g.euler[v] for v in range(g.vertex_count))
    bad = meridian_homology(dataclasses.replace(g, euler=euler))
    assert not verify_h1e(bad, 11)


def test_eta_hits_every_smith_coordinate():
    m = meridian_homology(reduced(datasets.maclane()))
    grp = m.group
    for i in range(grp.coord_count):
        unit = tuple(1 if j == i else 0 for j in range(grp.coord_count))
        assert grp.reduce(grp.lift(unit)) == grp.canonical_coords(unit)


def _row_sum(rows):
    out = {}
    for row in rows:
        for j, x in row.items():
            out[j] = out.get(j, 0) + x
    return {j: x for j, x in out.items() if x}


@pytest.mark.parametrize("kind", list(GraphKind), ids=lambda k: k.value)
@pytest.mark.parametrize("name", ["maclane", "quadruplet", "rybnikov"]
                         + ["generic%d" % n for n in range(3, 9)])
def test_meridian_projections_are_the_line_map(name, kind):
    """The projections agree with the map that sends lines 0..n-2 to a
    basis, line n-1 to minus their sum and each point to the sum of its
    lines, up to a unimodular change of basis.  Checked without any further
    Smith elimination, so a garbled projection fails here rather than in
    the relation matrices built from it."""
    c = datasets.generic(int(name[7:])) if name.startswith("generic") else getattr(datasets, name)()
    g = build_graph(c, kind)
    proj = meridian_homology(g).projections
    n = g.n_lines
    assert len(proj) == g.vertex_count
    assert all(0 <= s < n - 1 for row in proj for s in row)
    assert _row_sum(proj[:n]) == {}
    for v in range(n, g.vertex_count):
        lines = g.combinatorics.points[g.point_ids[v - n]]
        assert proj[v] == _row_sum(proj[line] for line in lines)
    lines = IntMatrix.from_entries((row.items() for row in proj[:n]), n - 1)
    assert hermite(lines) == IntMatrix.identity(n - 1)
