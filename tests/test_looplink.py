"""Tests for the tensor linking group and loop-linking values."""

import random

import pytest

from linestab import datasets
from linestab.combinatorics import GraphKind, ValidationError, build_graph
from linestab.exactalg import IntMatrix, lattice_members
from linestab.inclusion import BASIS_TAG, InclusionMatrix
from linestab.looplink import (
    lln,
    tlg,
    tlg_generator_positions,
    verify_lemma_gs_tlg,
)
from linestab.orderings import canonical_ordering
from linestab.stabiliser import gs_generators, lift_to_chains, reduce_to_class, stabiliser


def full_graph(c):
    return build_graph(c, GraphKind.FULL)


def incl(t, matrix):
    return InclusionMatrix(matrix, canonical_ordering(t.graph), BASIS_TAG)


def forms_of(t):
    """Rebuild the generator forms for re-verification."""
    proj = t.mh.group.to_smith.data
    k = t.basis.rank
    tdim = t.mh.group.coord_count
    out = []
    for u, e in t.generators:
        col = t.basis.zeta.column(e)
        form = [0] * (tdim * k)
        for i in range(tdim):
            for j in range(k):
                form[i * k + j] = proj[u][i] * col[j]
        out.append(form)
    return out


def test_generator_counts_k4():
    g = full_graph(datasets.generic(4))
    gens = tlg_generator_positions(g)
    assert len(gens) == 60  # 12 edges, 2 lines through each point + 3 points per line


def test_generator_counts_quadruplet():
    g = full_graph(datasets.quadruplet())
    gens = tlg_generator_positions(g)
    line_side = sum(1 for u, _ in gens if g.is_line(u))
    assert line_side == 176
    assert len(gens) - line_side == 398
    assert len(gens) == 574


def test_tlg_ranks_pinned():
    assert tlg(full_graph(datasets.generic(4))).rank == 0
    assert tlg(full_graph(datasets.maclane())).rank == 3
    assert tlg(full_graph(datasets.quadruplet())).rank == 0
    assert tlg(full_graph(datasets.rybnikov())).rank == 7
    # Ceva(n) has torsion; these are regression goldens of this code.
    for n, rank, ambient in ((3, 20, 128), (4, 79, 330)):
        t = tlg(full_graph(datasets.ceva(n)))
        assert (t.rank, t.ambient_rank) == (rank, ambient)


def test_tlg_requires_full_graph():
    with pytest.raises(ValidationError):
        tlg(build_graph(datasets.quadruplet(), GraphKind.REDUCED))


def test_basis_annihilates_every_form():
    t = tlg(full_graph(datasets.maclane()))
    assert t.rank == 3
    for form in forms_of(t):
        for row in t.lattice.data:
            assert sum(a * b for a, b in zip(form, row)) == 0


def bareiss_rank(rows):
    """Rank by fraction-free (Bareiss) elimination: after each pivot every
    entry is a minor of the input, so each division is exact."""
    a = [list(r) for r in rows]
    rank, prev = 0, 1
    for col in range(len(a[0]) if a else 0):
        pivot = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        top = a[rank]
        p = top[col]
        for r in range(rank + 1, len(a)):
            x = a[r][col]
            a[r] = [(p * y - x * z) // prev for y, z in zip(a[r], top)]
        prev = p
        rank += 1
    return rank


def test_bareiss_rank_goldens():
    assert bareiss_rank([]) == 0
    assert bareiss_rank([[0, 0], [0, 0]]) == 0
    assert bareiss_rank([[2, 4], [1, 2]]) == 1
    assert bareiss_rank([[0, 2, 1], [0, 4, 2], [3, 0, 1]]) == 2
    assert bareiss_rank([[2, 3, 5], [7, 11, 13], [17, 19, 23]]) == 3


def test_rank_complements_form_rank():
    for c in (datasets.generic(4), datasets.maclane(), datasets.ceva(3)):
        t = tlg(full_graph(c))
        assert t.rank == t.ambient_rank - bareiss_rank(forms_of(t))


def test_lemma_gs_tlg_holds():
    for c in (datasets.generic(4), datasets.maclane(), datasets.quadruplet(),
              datasets.rybnikov(), datasets.ceva(3), datasets.ceva(4)):
        assert verify_lemma_gs_tlg(full_graph(c))


def test_lemma_gs_tlg_negative_control():
    """Dropping one constraint generator breaks membership for some
    stabiliser generator."""
    g = full_graph(datasets.generic(4))
    ne, nv = g.edge_count, g.vertex_count
    width = nv * ne
    unit_rows = []
    for u, e in tlg_generator_positions(g)[1:]:
        row = [0] * width
        row[u * ne + e] = 1
        unit_rows.append(row)
    lattice = IntMatrix(unit_rows, cols=width)
    duals = []
    for gs_row in gs_generators(g).data:
        dual = [0] * width
        for pos, c in enumerate(gs_row):
            if c:
                e, u = divmod(pos, nv)
                dual[u * ne + e] = c
        duals.append(dual)
    assert not all(lattice_members(lattice, duals))


# ----------------------------------------------------------------------------
# loop-linking values
# ----------------------------------------------------------------------------


def test_lln_zero_matrix():
    t = tlg(full_graph(datasets.maclane()))
    m = incl(t, IntMatrix.zeros(t.basis.rank, t.graph.vertex_count))
    v = lln(t, m)
    assert v.values == (0, 0, 0)
    assert v.is_zero


def test_lln_bilinear_in_inclusion_data():
    t = tlg(full_graph(datasets.maclane()))
    rng = random.Random(404)
    nv = t.graph.vertex_count
    for _ in range(10):
        m1 = IntMatrix([[rng.randrange(-3, 4) for _ in range(nv)]
                        for _ in range(t.basis.rank)])
        m2 = IntMatrix([[rng.randrange(-3, 4) for _ in range(nv)]
                        for _ in range(t.basis.rank)])
        total = IntMatrix([[a + b for a, b in zip(m1.row(i), m2.row(i))]
                           for i in range(t.basis.rank)])
        v1, v2, vt = lln(t, incl(t, m1)), lln(t, incl(t, m2)), lln(t, incl(t, total))
        assert vt.values == tuple(a + b for a, b in zip(v1.values, v2.values))


def test_lln_nontrivial_somewhere():
    """The MacLane lattice has rank 3, so some inclusion data must pair
    nontrivially with it."""
    t = tlg(full_graph(datasets.maclane()))
    nv = t.graph.vertex_count
    hits = 0
    rng = random.Random(405)
    for _ in range(10):
        m = IntMatrix([[rng.randrange(-3, 4) for _ in range(nv)]
                       for _ in range(t.basis.rank)])
        if not lln(t, incl(t, m)).is_zero:
            hits += 1
    assert hits > 0


@pytest.mark.parametrize("comb", ["generic4", "maclane"])
def test_equal_classes_give_equal_lln(comb):
    """Consistency direction: perturbing inclusion data by relation
    images moves neither the stabiliser class nor the values."""
    c = datasets.generic(4) if comb == "generic4" else datasets.maclane()
    g = full_graph(c)
    t = tlg(g)
    s = stabiliser(g)
    rng = random.Random(500 + len(comb))
    nv = g.vertex_count
    pairs = 50 if comb == "generic4" else 20
    for _ in range(pairs):
        base = IntMatrix([[rng.randrange(-3, 4) for _ in range(nv)]
                          for _ in range(s.basis.rank)])
        combo = [0] * s.ambient_rank
        for _ in range(3):
            row = s.relations.row(rng.randrange(s.relations.rows))
            sign = rng.choice((-1, 1))
            combo = [x + sign * y for x, y in zip(combo, row)]
        shift = lift_to_chains(s, combo)
        other = IntMatrix([[a + b for a, b in zip(base.row(i), shift.row(i))]
                           for i in range(base.rows)])
        assert reduce_to_class(s, base).coords == reduce_to_class(s, other).coords
        assert lln(t, incl(t, base)).values == lln(t, incl(t, other)).values


def test_lln_rejects_foreign_graph():
    t = tlg(full_graph(datasets.maclane()))
    other = full_graph(datasets.generic(4))
    m = InclusionMatrix(
        IntMatrix.zeros(3, other.vertex_count), canonical_ordering(other), BASIS_TAG
    )
    with pytest.raises(ValidationError):
        lln(t, m)


def test_lln_rejects_wrong_shape():
    t = tlg(full_graph(datasets.maclane()))
    for rows in (t.basis.rank - 1, t.basis.rank + 1):
        with pytest.raises(ValidationError):
            lln(t, incl(t, IntMatrix.zeros(rows, t.graph.vertex_count)))
