"""The sparse tensor kernel against dense reference algorithms.

Each reference below is the dense computation the package used before
relation generators became sparse (edge, vertex, coeff) terms: generator
rows edge_count * vertex_count wide, pushed into hom(H1, MH) position by
position; zeta columns tensored with whole projection rows; and a scan
of every point per edge for the constraint positions.  The package's
relations, forms, positions and transition classes must equal them
exactly.
"""

import random

import pytest

from linestab import datasets
from linestab import looplink
from linestab import stabiliser as stabiliser_module
from linestab.combinatorics import GraphKind, build_graph
from linestab.exactalg import IntMatrix
from linestab.looplink import tlg, tlg_generator_positions
from linestab.orderings import canonical_ordering, decompose_adjacent
from linestab.stabiliser import StabiliserClass, gs_generators, stabiliser, transition

from conftest import TRANSITION_INPUTS, reduced_graph, transition_input
from test_stabiliser import shuffled_ordering

COMBINATORICS = {
    "maclane": datasets.maclane,
    "quadruplet": datasets.quadruplet,
    "rybnikov": datasets.rybnikov,
    **{"generic%d" % n: (lambda n=n: datasets.generic(n)) for n in range(3, 13)},
}


def graph(name, kind):
    c = COMBINATORICS[name]()
    return reduced_graph(c) if kind is GraphKind.REDUCED else build_graph(c, kind)


# ----------------------------------------------------------------------------
# dense references
# ----------------------------------------------------------------------------


def ref_gs_generators(g):
    nv = g.vertex_count
    width = g.edge_count * nv
    rows = []
    for e, (v, w) in enumerate(g.edges):
        for u in (v, w):
            row = [0] * width
            row[e * nv + u] = 1
            rows.append(row)
    for v in range(nv):
        ns = g.neighbours[v]
        for i in range(len(ns)):
            for j in range(i + 1, len(ns)):
                y, z = ns[i], ns[j]
                row = [0] * width
                row[g.edge_position(v, y) * nv + z] += 1
                row[g.edge_position(v, z) * nv + y] += g.delta(v, y) * g.delta(v, z)
                rows.append(row)
    return IntMatrix(rows, cols=width)


def ref_push_to_hom(basis, mh, gens):
    g = basis.graph
    nv = g.vertex_count
    t = mh.group.coord_count
    k = basis.rank
    zeta_cols = [basis.zeta.column(e) for e in range(g.edge_count)]
    proj = mh.group.to_smith.data
    out = []
    for row in gens.data:
        img = [0] * (k * t)
        for pos, c in enumerate(row):
            if not c:
                continue
            e, u = divmod(pos, nv)
            pu = proj[u]
            for i, zi in enumerate(zeta_cols[e]):
                if zi:
                    cz = c * zi
                    base = i * t
                    for sidx, ps in enumerate(pu):
                        if ps:
                            img[base + sidx] += cz * ps
        out.append(img)
    for sidx, d in enumerate(mh.group.torsion):
        for i in range(k):
            row = [0] * (k * t)
            row[i * t + sidx] = d
            out.append(row)
    return IntMatrix(out, cols=k * t)


def ref_positions(g):
    comb = g.combinatorics
    out = []
    for e, (v, w) in enumerate(g.edges):
        line, point = (v, w) if g.is_line(v) else (w, v)
        pid = g.point_ids[point - comb.n_lines]
        for other_line in comb.points[pid]:
            out.append((other_line, e))
        for other_point, pt in enumerate(comb.points):
            if line in pt:
                out.append((g.vertex_by_label("P%d" % other_point), e))
    return out


def ref_forms(basis, mh, gens):
    tdim = mh.group.coord_count
    k = basis.rank
    proj = mh.group.to_smith.data
    forms = []
    for u, e in gens:
        pu = proj[u]
        col = basis.zeta.column(e)
        form = [0] * (tdim * k)
        for i in range(tdim):
            if pu[i]:
                base = i * k
                for j in range(k):
                    if col[j]:
                        form[base + j] = pu[i] * col[j]
        forms.append(form)
    return IntMatrix(forms, cols=tdim * k)


def ref_transition(s, a, b):
    g = s.graph
    t = s.mh.group.coord_count
    proj = s.mh.group.to_smith.data
    total = [0] * (s.basis.rank * t)
    for v in range(g.vertex_count):
        pos = {w: q for q, w in enumerate(b.order[v])}
        word = decompose_adjacent([pos[w] for w in a.order[v]])
        current = list(a.order[v])
        for kpos in word:
            x, y = current[kpos - 1], current[kpos]
            sign = g.delta(v, y)
            px = proj[x]
            zcol = s.basis.zeta.column(g.edge_position(v, y))
            for i, zi in enumerate(zcol):
                if zi:
                    cz = sign * zi
                    base = i * t
                    for sidx, ps in enumerate(px):
                        if ps:
                            total[base + sidx] += cz * ps
            current[kpos - 1], current[kpos] = y, x
    return StabiliserClass(s.group, s.group.reduce(total))


# ----------------------------------------------------------------------------
# comparisons
# ----------------------------------------------------------------------------


@pytest.fixture
def recorded(monkeypatch):
    """Replace the two eliminations downstream of the kernel by recorders.

    stabiliser() hands its relations to quotient_group and tlg() hands its
    forms to lattice_kernel; neither result is under test here, so the
    recorders keep the arguments and return None, which keeps the large
    graphs cheap.  Meridian homology still runs its own quotient.
    """
    calls = {}

    def recorder(name):
        def record(*args):
            calls[name] = args
        return record

    monkeypatch.setattr(stabiliser_module, "quotient_group", recorder("quotient_group"))
    monkeypatch.setattr(looplink, "lattice_kernel", recorder("lattice_kernel"))
    return calls


@pytest.mark.parametrize("kind", list(GraphKind), ids=lambda k: k.value)
@pytest.mark.parametrize("name", list(COMBINATORICS))
def test_relations_match_dense_reference(name, kind, recorded):
    g = graph(name, kind)
    s = stabiliser(g)
    dense = ref_gs_generators(g)
    assert gs_generators(g) == dense
    assert s.relations == ref_push_to_hom(s.basis, s.mh, dense)
    assert recorded["quotient_group"] == (s.ambient_rank, s.relations)


@pytest.mark.parametrize("name", list(COMBINATORICS))
def test_tlg_forms_and_positions_match_dense_reference(name, recorded):
    g = graph(name, GraphKind.FULL)
    positions = ref_positions(g)
    assert tlg_generator_positions(g) == positions
    t = tlg(g)
    assert list(t.generators) == positions
    forms, = recorded["lattice_kernel"]
    assert forms == ref_forms(t.basis, t.mh, positions)


@pytest.mark.parametrize("case", list(TRANSITION_INPUTS))
def test_transition_matches_dense_reference(case):
    s = transition_input(case)
    g = s.graph
    rng = random.Random(31)
    a = canonical_ordering(g)
    for _ in range(10):
        b = shuffled_ordering(g, rng)
        assert transition(s, a, b).coords == ref_transition(s, a, b).coords
        assert transition(s, b, a).coords == ref_transition(s, b, a).coords
