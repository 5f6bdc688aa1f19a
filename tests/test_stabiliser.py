"""Tests for the graph stabiliser, class reduction and transitions."""

import random

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form

from linestab import cli, datasets, exactalg
from linestab import stabiliser as stabiliser_module
from linestab.combinatorics import GraphKind, LineCombinatorics, ValidationError, build_graph
from linestab.exactalg import AbelianGroup, IntMatrix, hermite, lattice_members, quotient_group
from linestab.graphhomology import meridian_homology
from linestab.orderings import GraphOrdering, canonical_ordering
from linestab.stabiliser import (
    gs_generators,
    lift_to_chains,
    reduce_to_class,
    stabiliser,
    stabiliser_relations,
    transition,
)

from conftest import TRANSITION_INPUTS, reduced_graph, transition_input


def swap_at(o, v, k):
    rows = list(o.order)
    row = list(rows[v])
    row[k - 1], row[k] = row[k], row[k - 1]
    rows[v] = tuple(row)
    return GraphOrdering(o.graph, tuple(rows))


def rotate_at(o, v, r=1):
    rows = list(o.order)
    rows[v] = rows[v][r:] + rows[v][:r]
    return GraphOrdering(o.graph, tuple(rows))


def shuffled_ordering(g, rng):
    rows = []
    for row in g.neighbours:
        row = list(row)
        rng.shuffle(row)
        rows.append(tuple(row))
    return GraphOrdering(g, tuple(rows))


# ----------------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------------


def test_generator_counts():
    k3 = reduced_graph(datasets.generic(3))
    gens = gs_generators(k3)
    assert gens.rows == 6 + 3
    k4 = reduced_graph(datasets.generic(4))
    assert gs_generators(k4).rows == 12 + 12
    quad = reduced_graph(datasets.quadruplet())
    pair_rows = sum(
        len(quad.neighbours[v]) * (len(quad.neighbours[v]) - 1) // 2
        for v in range(quad.vertex_count)
    )
    assert gs_generators(quad).rows == 106 + pair_rows
    assert pair_rows == 208


def test_generator_pair_symmetry():
    """Rebuilding a pair row with the edges swapped gives the same row up
    to the overall orientation sign."""
    g = reduced_graph(datasets.maclane())
    nv = g.vertex_count
    for v in (0, 10):
        ns = g.neighbours[v]
        y, z = ns[0], ns[1]
        sign = g.delta(v, y) * g.delta(v, z)
        row_yz = [0] * (g.edge_count * nv)
        row_yz[g.edge_position(v, y) * nv + z] += 1
        row_yz[g.edge_position(v, z) * nv + y] += sign
        row_zy = [0] * (g.edge_count * nv)
        row_zy[g.edge_position(v, z) * nv + y] += 1
        row_zy[g.edge_position(v, y) * nv + z] += sign
        assert row_zy == [sign * x for x in row_yz]


# ----------------------------------------------------------------------------
# group types
# ----------------------------------------------------------------------------


def test_k3_stabiliser_trivial_with_oracle():
    g = reduced_graph(datasets.generic(3))
    s = stabiliser(g)
    assert str(s.group) == "0"
    # cross-check by diagonalising the relation images independently
    snf = smith_normal_form(sympy.Matrix(s.relations.to_lists()))
    diag = [snf[i, i] for i in range(min(snf.rows, snf.cols))]
    assert diag == [1] * s.ambient_rank


def test_k4_stabiliser_pinned(k4_stab):
    assert k4_stab.group.torsion == ()
    assert k4_stab.group.free_rank == 1
    assert str(k4_stab.group) == "Z"


def test_maclane_stabiliser(maclane_stab):
    assert str(maclane_stab.group) == "Z/3 ⊕ Z^35"
    assert maclane_stab.ambient_rank == 13 * 7


def test_quadruplet_stabiliser(quadruplet_stab):
    assert str(quadruplet_stab.group) == "Z/5 ⊕ Z^119"
    assert quadruplet_stab.ambient_rank == 30 * 10
    assert quadruplet_stab.relations.rows == 314


def test_group_type_root_independent():
    g = reduced_graph(datasets.maclane())
    alt = stabiliser(g, root=7)
    assert alt.group.torsion == (3,)
    assert alt.group.free_rank == 35


def test_group_type_relabel_invariant():
    """Relabelling the lines permutes everything; the group type must not move."""
    c = datasets.maclane()
    relabel = {i: (i + 3) % 8 for i in range(8)}
    points = [sorted(relabel[i] for i in p) for p in c.points]
    permuted = LineCombinatorics(8, tuple(tuple(p) for p in sorted(points)))
    s = stabiliser(reduced_graph(permuted))
    assert str(s.group) == "Z/3 ⊕ Z^35"


# ----------------------------------------------------------------------------
# class reduction
# ----------------------------------------------------------------------------


def test_zero_matrix_reduces_to_zero(maclane_stab):
    s = maclane_stab
    m = IntMatrix.zeros(s.basis.rank, s.graph.vertex_count)
    assert reduce_to_class(s, m).is_zero


def test_relation_perturbation_keeps_class(maclane_stab):
    s = maclane_stab
    rng = random.Random(20260814)
    nv = s.graph.vertex_count
    for _ in range(20):
        base = IntMatrix(
            [[rng.randrange(-4, 5) for _ in range(nv)] for _ in range(s.basis.rank)]
        )
        combo = [0] * s.ambient_rank
        for _ in range(3):
            row = s.relations.row(rng.randrange(s.relations.rows))
            scale = rng.choice((-2, -1, 1, 2))
            combo = [a + scale * b for a, b in zip(combo, row)]
        shift = lift_to_chains(s, combo)
        perturbed = IntMatrix(
            [
                [a + b for a, b in zip(base.row(i), shift.row(i))]
                for i in range(base.rows)
            ]
        )
        assert reduce_to_class(s, base).coords == reduce_to_class(s, perturbed).coords


def test_non_relation_shift_changes_class(maclane_stab):
    s = maclane_stab
    # a free Smith coordinate of the quotient cannot lie in the relation span
    free_unit = [0] * s.group.coord_count
    free_unit[-1] = 1
    ambient = s.group.lift(free_unit)
    assert lattice_members(s.relations, [ambient]) == [False]
    base = IntMatrix.zeros(s.basis.rank, s.graph.vertex_count)
    shifted = lift_to_chains(s, ambient)
    assert reduce_to_class(s, base).coords != reduce_to_class(s, shifted).coords


def test_reduce_rejects_wrong_shape(maclane_stab):
    with pytest.raises(ValidationError):
        reduce_to_class(maclane_stab, IntMatrix.zeros(2, 2))


def test_generator_rows_reduce_to_zero(k4_stab):
    s = k4_stab
    for i in range(s.relations.rows):
        m = lift_to_chains(s, s.relations.row(i))
        assert reduce_to_class(s, m).is_zero


@pytest.mark.parametrize("kind", list(GraphKind), ids=lambda k: k.value)
@pytest.mark.parametrize("name", ["maclane", "quadruplet"])
def test_hermite_spans_the_relation_lattice(name, kind):
    """hermite(relations) spans the relation lattice, checked without
    hermite's own code: every Hermite row is zero in the stabiliser group,
    every relation is zero modulo the Hermite rows, and the groups agree."""
    c = getattr(datasets, name)()
    s = stabiliser(reduced_graph(c) if kind is GraphKind.REDUCED else build_graph(c, kind))
    h = hermite(s.relations)
    back = quotient_group(s.ambient_rank, h)
    assert all(not any(s.group.reduce(row)) for row in h.data)
    assert all(not any(back.reduce(row)) for row in s.relations.data)
    assert (back.torsion, back.free_rank) == (s.group.torsion, s.group.free_rank)


# ----------------------------------------------------------------------------
# transitions
# ----------------------------------------------------------------------------


def test_transition_same_ordering_is_zero(maclane_stab):
    a = canonical_ordering(maclane_stab.graph)
    assert transition(maclane_stab, a, a).is_zero


def test_transition_rejects_foreign_graph(maclane_stab):
    other = canonical_ordering(reduced_graph(datasets.generic(4)))
    with pytest.raises(ValidationError):
        transition(maclane_stab, other, other)


@pytest.mark.parametrize("case", list(TRANSITION_INPUTS))
def test_rotation_kernel_every_vertex(case):
    s = transition_input(case)
    g = s.graph
    a = canonical_ordering(g)
    for v in range(g.vertex_count):
        for r in range(1, len(g.neighbours[v])):
            assert transition(s, a, rotate_at(a, v, r)).is_zero


@pytest.mark.parametrize("fixture", ["maclane_stab", "quadruplet_stab"])
def test_involution_every_vertex(fixture, request):
    s = request.getfixturevalue(fixture)
    g = s.graph
    a = canonical_ordering(g)
    for v in range(g.vertex_count):
        for k in range(1, len(g.neighbours[v])):
            b = swap_at(a, v, k)
            assert (transition(s, a, b) + transition(s, b, a)).is_zero


def test_braid_relation(quadruplet_stab):
    """Both orders of the overlapping-swap word reach the same ordering
    with the same accumulated class."""
    s = quadruplet_stab
    g = s.graph
    a = canonical_ordering(g)
    for v in range(g.vertex_count):
        m = len(g.neighbours[v])
        for k in range(1, m - 1):
            p1 = [a]
            for step in (k, k + 1, k):
                p1.append(swap_at(p1[-1], v, step))
            p2 = [a]
            for step in (k + 1, k, k + 1):
                p2.append(swap_at(p2[-1], v, step))
            assert p1[-1].order == p2[-1].order
            s1 = s.zero()
            for x, y in zip(p1, p1[1:]):
                s1 = s1 + transition(s, x, y)
            s2 = s.zero()
            for x, y in zip(p2, p2[1:]):
                s2 = s2 + transition(s, x, y)
            assert s1.coords == s2.coords


def test_disjoint_swaps_commute(quadruplet_stab):
    s = quadruplet_stab
    g = s.graph
    a = canonical_ordering(g)
    v = max(range(g.vertex_count), key=lambda u: len(g.neighbours[u]))
    m = len(g.neighbours[v])
    assert m >= 4
    k, j = 1, 3
    mid1 = swap_at(a, v, k)
    mid2 = swap_at(a, v, j)
    end = swap_at(mid1, v, j)
    assert end.order == swap_at(mid2, v, k).order
    via1 = transition(s, a, mid1) + transition(s, mid1, end)
    via2 = transition(s, a, mid2) + transition(s, mid2, end)
    assert via1.coords == via2.coords


@pytest.mark.parametrize("case", list(TRANSITION_INPUTS))
def test_transition_cocycle_random(case):
    s = transition_input(case)
    g = s.graph
    rng = random.Random(97)
    a = canonical_ordering(g)
    for _ in range(8):
        b = shuffled_ordering(g, rng)
        c = shuffled_ordering(g, rng)
        assert transition(s, a, c).coords == (
            transition(s, a, b) + transition(s, b, c)
        ).coords
        assert (transition(s, a, b) + transition(s, b, a)).is_zero


# Stabiliser types of Ceva(n), the same on both graphs, as computed.  The
# torsion Z/n for odd n and Z/(n/2) for even n is an observation, not a
# theorem, so these are regression goldens.
CEVA_TYPES = {
    3: "Z/3 ⊕ Z^59",
    4: "Z/2 ⊕ Z^176",
    5: "Z/5 ⊕ Z^386",
    6: "Z/3 ⊕ Z^718",
    7: "Z/7 ⊕ Z^1197",
}


@pytest.mark.parametrize("n", sorted(CEVA_TYPES))
def test_ceva_stabiliser_types_are_pinned(n):
    """The stabiliser group type of Ceva(n), a family with torsion and
    points of multiplicity n, as the echelon split reads it on both graphs;
    for n <= 5 the stabiliser's own quotient, the Smith engine on the raw
    relations, agrees."""
    c = datasets.ceva(n)
    for kind in GraphKind:
        g = reduced_graph(c) if kind is GraphKind.REDUCED else build_graph(c, kind)
        basis, mh, relations = stabiliser_relations(g)
        assert str(AbelianGroup(basis.rank * mh.group.coord_count, relations)) == CEVA_TYPES[n]
        if n <= 5:
            assert str(stabiliser(g).group) == CEVA_TYPES[n]


STABILISER_CASES = [(getattr(datasets, name)(), kind)
                    for name in ("maclane", "quadruplet", "rybnikov") for kind in GraphKind]
STABILISER_CASES += [(datasets.generic(n), GraphKind.FULL) for n in (6, 9)]


def counting_engine(monkeypatch, g):
    """Engine calls, by row count, made from here on for the stabiliser of
    g; its meridian homology is built beforehand, so only the stabiliser's
    own quotient is counted."""
    engine = exactalg._smith_engine
    mh = meridian_homology(g)
    calls = []

    def counted(a, cols, want_u):
        calls.append(len(a))
        return engine(a, cols, want_u)

    monkeypatch.setattr(stabiliser_module, "meridian_homology", lambda _: mh)
    monkeypatch.setattr(exactalg, "_smith_engine", counted)
    return calls


def no_split(mat):
    raise AssertionError("echelon split reached")


def test_stabiliser_eliminates_its_relations_once(monkeypatch):
    """stabiliser() runs the Smith engine once, on the raw relations, and
    that log serves its group type, reduce, lift, to_smith and transitions
    alike; the echelon split never runs."""
    rng = random.Random(1919)
    for c, kind in STABILISER_CASES:
        g = reduced_graph(c) if kind is GraphKind.REDUCED else build_graph(c, kind)
        calls = counting_engine(monkeypatch, g)
        monkeypatch.setattr(exactalg, "_echelon", no_split)
        s = stabiliser(g)
        assert calls == [s.relations.rows]
        group = s.group
        v = [rng.randint(-3, 3) for _ in range(s.ambient_rank)]
        coords = group.reduce(v)
        assert len(coords) == group.coord_count
        assert group.reduce(group.lift(coords)) == coords
        assert group.reduce([x + y for x, y in zip(v, s.relations.row(0))]) == coords
        assert group.to_smith.shape == (s.ambient_rank, group.coord_count)
        o = canonical_ordering(g)
        transition(s, o, shuffled_ordering(g, rng))
        assert str(group) and calls == [s.relations.rows]
        monkeypatch.undo()


def test_stabiliser_command_reads_its_group_off_the_split(monkeypatch):
    """The stabiliser command prints only the group type: one engine run,
    on at most the Hermite form's non-unit pivots, and no coordinate log."""
    sizes = []
    for c, kind in STABILISER_CASES:
        g = reduced_graph(c) if kind is GraphKind.REDUCED else build_graph(c, kind)
        expected = str(stabiliser(g).group)
        calls = counting_engine(monkeypatch, g)
        report, _ = cli._stabiliser(g)
        monkeypatch.undo()
        assert report["group"] == expected and len(calls) == 1
        _, _, relations = stabiliser_relations(g)
        assert calls[0] <= sum(next(iter(row.values())) != 1
                               for row in hermite(relations).entries)
        sizes.append(calls[0])
    # As in test_exactalg: MacLane, the quadruplet and Rybnikov, reduced
    # then full, and generic(n), whose pivots are all units.
    assert sizes == [3, 1, 3, 3, 13, 4, 0, 0]
