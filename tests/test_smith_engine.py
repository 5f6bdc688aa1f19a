"""The sparse Smith engine against the dense engine it replaced.

ref_smith_engine and ref_least_abs_pivot below are verbatim copies of the
dense elimination the package used before the engine moved onto sparse
rows.  The sparse engine promises the same pivot sequence and the same
row and column operations.  It logs its column operations instead of
carrying the column transform, so engine() below rebuilds vt (the columns
of v, as rows) and vinv (v's inverse) from that log.  Its diagonal, u, vt
and vinv must equal the reference's exactly, with and without u; smith()
and quotient_group() with its reduce() and lift() must then equal what the
dense engine made of the same output.  lattice_kernel() takes its kernel
from Hermite forms and runs no Smith elimination; the dense engine reads
it from u on the transposed forms, and the Hermite basis of the kernel
lattice is unique, so both must agree.

The reference takes about 5 s on each Rybnikov matrix, so those three are
pinned by digest instead: RYBNIKOV_DIGESTS holds the SHA-256 of
repr((diag, u, vt, vinv)) -- the dense engine's output with every
transform requested, diag being the list of diagonal entries and the
transforms dense lists of rows -- computed by running the dense
_smith_engine of the last dense-engine version of exactalg on the same
matrices, built by the same code as here.
"""

import functools
import hashlib
import random

import pytest

from linestab import datasets, looplink, pi1
from linestab.combinatorics import GraphKind, build_graph
from linestab.exactalg import (
    IntMatrix,
    SmithDecomposition,
    _smith_engine,
    _sparse_rows,
    hermite,
    lattice_kernel,
    quotient_group,
    smith,
)
from linestab.graphhomology import chains_to_hom, cycle_basis, meridian_homology
from linestab.orderings import canonical_ordering
from linestab.pi1 import pi1_presentation
from linestab.stabiliser import _push_to_hom, stabiliser

from conftest import reduced_graph

# ----------------------------------------------------------------------------
# dense reference
# ----------------------------------------------------------------------------


def ref_least_abs_pivot(a, t, rows, cols):
    best = None
    best_abs = 0
    for i in range(t, rows):
        row = a[i]
        for j in range(t, cols):
            v = row[j]
            if v:
                if v < 0:
                    v = -v
                if best is None or v < best_abs:
                    if v == 1:
                        return i, j
                    best = (i, j)
                    best_abs = v
    return best


def ref_smith_engine(mat, want_u, want_v, want_vinv):
    rows, cols = mat.rows, mat.cols
    a = [list(r) for r in mat.data]
    u = [[int(i == j) for j in range(rows)] for i in range(rows)] if want_u else None
    vt = [[int(i == j) for j in range(cols)] for i in range(cols)] if want_v else None
    vinv = [[int(i == j) for j in range(cols)] for i in range(cols)] if want_vinv else None

    t = 0
    limit = min(rows, cols)
    while t < limit:
        pos = ref_least_abs_pivot(a, t, rows, cols)
        if pos is None:
            break
        i, j = pos
        if i != t:
            a[t], a[i] = a[i], a[t]
            if u is not None:
                u[t], u[i] = u[i], u[t]
        if j != t:
            for r in a:
                r[t], r[j] = r[j], r[t]
            if vt is not None:
                vt[t], vt[j] = vt[j], vt[t]
            if vinv is not None:
                vinv[t], vinv[j] = vinv[j], vinv[t]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            if u is not None:
                u[t] = [-x for x in u[t]]
        p = a[t][t]
        pivot_row = a[t]

        dirty = False
        for i in range(t + 1, rows):
            x = a[i][t]
            if not x:
                continue
            q = x // p
            if q:
                a[i] = [y - q * z for y, z in zip(a[i], pivot_row)]
                if u is not None:
                    u[i] = [y - q * z for y, z in zip(u[i], u[t])]
            if a[i][t]:
                dirty = True
        if dirty:
            continue

        for j in range(t + 1, cols):
            x = pivot_row[j]
            if not x:
                continue
            q = x // p
            if q:
                pivot_row[j] = x - q * p
                if vt is not None:
                    vt[j] = [y - q * z for y, z in zip(vt[j], vt[t])]
                if vinv is not None:
                    vinv[t] = [y + q * z for y, z in zip(vinv[t], vinv[j])]
            if pivot_row[j]:
                dirty = True
        if dirty:
            continue

        if p != 1:
            bad = None
            for i in range(t + 1, rows):
                row = a[i]
                for j in range(t + 1, cols):
                    if row[j] % p:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is not None:
                a[t] = [y + z for y, z in zip(a[t], a[bad])]
                if u is not None:
                    u[t] = [y + z for y, z in zip(u[t], u[bad])]
                continue
        t += 1

    return a, u, vt, vinv


def ref_smith(mat, out):
    a, u, vt, _ = out
    return SmithDecomposition(
        u=IntMatrix(u, cols=mat.rows),
        d=IntMatrix(a, cols=mat.cols),
        v=IntMatrix(vt, cols=mat.cols).transpose(),
    )


def ref_quotient_group(relations, out):
    """(torsion, free_rank, to_smith, from_smith) of the quotient."""
    n = relations.cols
    diag, _, vt, vinv = out
    diagonal = [diag[i][i] if i < relations.rows else 0 for i in range(n)]
    retained = [i for i in range(n) if diagonal[i] != 1]
    torsion = tuple(diagonal[i] for i in retained if diagonal[i] > 1)
    to_smith = IntMatrix(
        [[vt[j][i] for j in retained] for i in range(n)], cols=len(retained)
    )
    from_smith = IntMatrix([vinv[j] for j in retained], cols=n)
    return torsion, len(retained) - len(torsion), to_smith, from_smith


def ref_vec_mat(x, m):
    """Row vector x times the matrix m."""
    assert len(x) == m.rows
    data = m.data
    return [sum(x[i] * data[i][j] for i in range(m.rows)) for j in range(m.cols)]


def ref_reduce(x, torsion, to_smith):
    y = ref_vec_mat(x, to_smith)
    for k, d in enumerate(torsion):
        y[k] %= d
    return tuple(y)


def ref_lattice_kernel(m, diag, u):
    """Kernel of forms = m^T, from the diagonal entries and u of the
    reference engine on m."""
    n = m.rows
    rank = sum(1 for x in diag if x)
    if rank == n:
        return IntMatrix([], cols=n)
    return hermite(IntMatrix(u[rank:], cols=n))


# ----------------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------------

COMBINATORICS = {
    "maclane": datasets.maclane,
    "quadruplet": datasets.quadruplet,
    "rybnikov": datasets.rybnikov,
    **{"generic%d" % n: (lambda n=n: datasets.generic(n)) for n in range(3, 16)},
}
KINDS = {"reduced": GraphKind.REDUCED, "full": GraphKind.FULL}


@functools.lru_cache(maxsize=None)
def graph(name, kind):
    c = COMBINATORICS[name]()
    return reduced_graph(c) if kind == "reduced" else build_graph(c, KINDS[kind])


def relations(name, kind):
    g = graph(name, kind)
    return _push_to_hom(cycle_basis(g), meridian_homology(g))


def recorded_call(module, name, run):
    """(args, result) of the first call that run() makes to module.name."""
    calls = []
    real = getattr(module, name)

    def record(*args):
        result = real(*args)
        calls.append((args, result))
        return result

    setattr(module, name, record)
    try:
        run()
    finally:
        setattr(module, name, real)
    return calls[0]


def tlg_forms_and_lattice(name):
    (forms,), lattice = recorded_call(
        looplink, "lattice_kernel", lambda: looplink.tlg(graph(name, "full"))
    )
    return forms, lattice


def tlg_forms_transposed(name):
    return tlg_forms_and_lattice(name)[0].transpose()


def meridian_relations(name, kind):
    return meridian_homology(graph(name, kind)).group.relations


def abelianisation_relations(name):
    g = graph(name, "reduced")
    return pi1.abelianise(pi1_presentation(g, cycle_basis(g), canonical_ordering(g))).relations


def random_matrix(seed):
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 7), rng.randint(1, 7)
    values = [0, 0, 0, 1, -1, 2, -2, 3, 4, -6, 9, 12]
    return IntMatrix([[rng.choice(values) for _ in range(cols)] for _ in range(rows)])


HAND_MADE = {
    # 2 does not divide 3: the first offending row is folded into the pivot
    # row, giving diag(1, 6).
    "fold-in": IntMatrix([[2, 0], [0, 3]]),
    # 5 = 1 * 3 + 2 leaves a remainder below the pivot, then in its row.
    "remainder-below": IntMatrix([[3], [5]]),
    "remainder-right": IntMatrix([[3, 5]]),
    "negative-pivot": IntMatrix([[-2, 4, 6], [4, -3, 0], [0, 6, -9]]),
    "zero": IntMatrix.zeros(2, 3),
    "wide-rank-deficient": IntMatrix([[2, 4, 6, 8], [1, 2, 3, 4], [0, 0, 0, 5]]),
}

MATRICES = {
    **{
        "%s-%s-relations" % (name, kind): (lambda name=name, kind=kind: relations(name, kind))
        for name in ("maclane", "quadruplet")
        for kind in KINDS
    },
    **{
        "generic%d-full-relations" % n: (lambda n=n: relations("generic%d" % n, "full"))
        for n in range(3, 11)
    },
    **{
        "%s-tlg-forms^T" % name: (lambda name=name: tlg_forms_transposed(name))
        for name in ("maclane", "quadruplet")
    },
    **{
        "%s-%s-meridian" % (name, kind): (lambda name=name, kind=kind: meridian_relations(name, kind))
        for name in ("maclane", "quadruplet", "generic6")
        for kind in KINDS
    },
    **{
        "%s-abelianise" % name: (lambda name=name: abelianisation_relations(name))
        for name in ("maclane", "quadruplet", "generic5")
    },
    **{"hand-%s" % name: (lambda m=m: m) for name, m in HAND_MADE.items()},
    **{"random%d" % seed: (lambda seed=seed: random_matrix(seed)) for seed in range(40)},
}


@functools.lru_cache(maxsize=None)
def matrix(name):
    return MATRICES[name]()


@functools.lru_cache(maxsize=None)
def reference(name):
    return ref_smith_engine(matrix(name), True, True, True)


def dense(rows, width):
    if rows is None:
        return None
    out = []
    for row in rows:
        line = [0] * width
        for j, x in row.items():
            line[j] = x
        out.append(line)
    return out


def sparse_axpy(dst, q, src):
    for k, z in src.items():
        y = dst.get(k, 0) + q * z
        if y:
            dst[k] = y
        else:
            dst.pop(k, None)


def engine(mat, want_u):
    """(diag, u, vt, vinv) with vt and vinv rebuilt from the column log.

    Each logged step (c, k, q) is column k -= q * column c: vt[k] -= q * vt[c]
    and vinv[c] += q * vinv[k], with vt and vinv indexed by column id; col_at
    then puts them in position order.
    """
    n = mat.cols
    diag, u, ops, col_at = _smith_engine(_sparse_rows(mat), n, want_u)
    vt = [{j: 1} for j in range(n)]
    vinv = [{j: 1} for j in range(n)]
    for c, steps in ops:
        for k, q in steps:
            sparse_axpy(vt[k], -q, vt[c])
            sparse_axpy(vinv[c], q, vinv[k])
    vt = [vt[c] for c in col_at]
    vinv = [vinv[c] for c in col_at]
    return diag, dense(u, mat.rows), dense(vt, n), dense(vinv, n)


# ----------------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------------


def test_hand_made_cases_reach_every_step():
    assert engine(HAND_MADE["fold-in"], False)[0] == [1, 6]
    assert engine(HAND_MADE["remainder-below"], False)[0] == [1]
    assert engine(HAND_MADE["remainder-right"], False)[0] == [1]


@pytest.mark.parametrize("name", sorted(MATRICES))
def test_engine_matches_dense_reference(name):
    m = matrix(name)
    a, u, vt, vinv = reference(name)
    limit = min(m.rows, m.cols)
    assert all(a[i][j] == 0 for i in range(m.rows) for j in range(m.cols) if i != j)
    for want_u in (False, True):
        got = engine(m, want_u)
        assert got == ([a[i][i] for i in range(limit)], u if want_u else None, vt, vinv)


@pytest.mark.parametrize("name", sorted(MATRICES))
def test_callers_match_dense_reference(name):
    m = matrix(name)
    out = reference(name)
    assert smith(m) == ref_smith(m, out)
    torsion, free_rank, to_smith, from_smith = ref_quotient_group(m, out)
    got = quotient_group(m.cols, m)
    assert (got.torsion, got.free_rank) == (torsion, free_rank)
    # reduce() and lift() replay the column log; check them before the
    # matrix views are built.
    rng = random.Random(name)
    for _ in range(5):
        x = [rng.choice((0, 0, 1, -1, 2, -3, 7)) for _ in range(m.cols)]
        assert got.reduce(x) == ref_reduce(x, torsion, to_smith)
        coords = [rng.randint(-9, 9) for _ in range(got.coord_count)]
        assert got.lift(coords) == ref_vec_mat(coords, from_smith)
    assert got.to_smith == to_smith
    assert [got.lift(unit) for unit in IntMatrix.identity(got.coord_count).data] == [
        list(row) for row in from_smith.data
    ]
    if m.rows <= 400:
        diag = [out[0][i][i] for i in range(min(m.rows, m.cols))]
        assert lattice_kernel(m.transpose()) == ref_lattice_kernel(m, diag, out[1])


RYBNIKOV_DIGESTS = {
    "rybnikov-reduced-relations": "a435c105d9298ad6823801884d08fb08f441e04e4b9535634960edf03344577d",
    "rybnikov-full-relations": "0821abe1bbc151fba097f9907b26a1b4cc6e86d94795259204638a448b24a1a8",
    "rybnikov-tlg-forms^T": "41dce2f53f84d4012d94ede943ea9cc853add648eaea08682473465183fd2187",
}


@pytest.mark.parametrize("name", sorted(RYBNIKOV_DIGESTS))
def test_rybnikov_engine_matches_recorded_digest(name):
    lattice = None
    if name == "rybnikov-tlg-forms^T":
        forms, lattice = tlg_forms_and_lattice("rybnikov")
        m = forms.transpose()
    else:
        m = relations("rybnikov", name.split("-")[1])
    out = engine(m, True)
    assert hashlib.sha256(repr(out).encode()).hexdigest() == RYBNIKOV_DIGESTS[name]
    if lattice is not None:
        # out is the dense engine's output, by the digest; tlg() got the
        # same kernel lattice from the column log of the untransposed forms.
        assert lattice == ref_lattice_kernel(m, out[0], out[1])
        assert lattice.rows == 7


def test_rybnikov_reduce_and_lift_match_views():
    """Class vectors of seeded inclusion-shaped matrices on the Rybnikov
    stabiliser: reduce() equals the product with the to_smith view, lift()
    is linear (the combination of the lifts of the unit coordinates), and
    reduce() undoes lift()."""
    g = graph("rybnikov", "reduced")
    s = stabiliser(g)
    group = s.group
    lifts = IntMatrix(group.lift(unit) for unit in IntMatrix.identity(group.coord_count).data)
    rng = random.Random(20)
    for _ in range(20):
        m = IntMatrix(
            [[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(g.vertex_count)]
             for _ in range(s.basis.rank)]
        )
        x = chains_to_hom(m, s.mh, s.mh.group.coord_count, 1)
        coords = group.reduce(x)
        assert coords == ref_reduce(x, group.torsion, group.to_smith)
        lifted = group.lift(coords)
        assert lifted == ref_vec_mat(coords, lifts)
        assert group.reduce(lifted) == coords


def test_generic15_full_stabiliser():
    assert str(stabiliser(graph("generic15", "full")).group) == "Z^364"
