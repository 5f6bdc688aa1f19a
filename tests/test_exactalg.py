"""Tests for the exact integer linear algebra core."""

import hashlib
import itertools
import random

import pytest
import sympy
from sympy.matrices.normalforms import hermite_normal_form, smith_normal_form

from linestab import datasets, exactalg, looplink
from linestab.combinatorics import GraphKind, LineCombinatorics, build_graph
from linestab.exactalg import (
    AbelianGroup,
    IntMatrix,
    hermite,
    lattice_kernel,
    lattice_members,
    quotient_group,
    smith,
)
from linestab.exactalg import _axpy, _sparse_rows
from linestab.stabiliser import stabiliser_relations

from conftest import reduced_graph


def diag_of(m):
    return [m.data[i][i] for i in range(min(m.rows, m.cols))]


def check_decomposition(a):
    """All SmithDecomposition invariants, with sympy as the diagonal oracle."""
    dec = smith(a)
    assert (dec.u @ a @ dec.v) == dec.d
    # off-diagonal zero, diagonal nonnegative, divisibility chain
    for i, row in enumerate(dec.d.data):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0
    d = diag_of(dec.d)
    assert all(x >= 0 for x in d)
    for x, y in zip(d, d[1:]):
        assert (x == 0 and y == 0) or (x != 0 and y % x == 0)
    if a.rows and a.cols:
        assert abs(sympy.Matrix(dec.u.to_lists()).det()) == 1
        assert abs(sympy.Matrix(dec.v.to_lists()).det()) == 1
        oracle = smith_normal_form(sympy.Matrix(a.to_lists()))
        oracle_diag = [abs(int(oracle[i, i])) for i in range(min(a.rows, a.cols))]
        assert d == oracle_diag
    return dec


def test_smith_two_by_two_golden():
    """gcd 2, product of invariant factors |det| = 8, so diag(2, 4)."""
    dec = check_decomposition(IntMatrix([[2, 4], [6, 8]]))
    assert diag_of(dec.d) == [2, 4]


def test_smith_identity():
    dec = smith(IntMatrix.identity(3))
    assert dec.d == IntMatrix.identity(3)


def test_smith_zero():
    dec = smith(IntMatrix.zeros(2, 3))
    assert dec.d == IntMatrix.zeros(2, 3)
    assert dec.u == IntMatrix.identity(2)
    assert dec.v == IntMatrix.identity(3)


def test_smith_empty_shapes():
    dec = smith(IntMatrix([], cols=4))
    assert dec.d.shape == (0, 4)
    assert dec.v == IntMatrix.identity(4)


def test_smith_random_suite():
    """500 random matrices, dims <= 6, entries in [-9, 9]."""
    rng = random.Random(20260814)
    for _ in range(500):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        a = IntMatrix(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        )
        check_decomposition(a)


def test_smith_deterministic():
    a = IntMatrix([[6, 4, 2], [8, 0, -10], [3, 3, 3]])
    first = smith(a)
    second = smith(a)
    assert first.u == second.u and first.d == second.d and first.v == second.v


# ----------------------------------------------------------------------------
# quotient groups
# ----------------------------------------------------------------------------


def test_quotient_primitive_row():
    g = quotient_group(4, IntMatrix([[1, 1, 1, 1]]))
    assert g.torsion == () and g.free_rank == 3


def test_quotient_no_relations():
    g = quotient_group(5, IntMatrix([], cols=5))
    assert g.torsion == () and g.free_rank == 5
    assert g.to_smith == IntMatrix.identity(5)
    assert [g.lift(unit) for unit in IntMatrix.identity(5).data] == IntMatrix.identity(5).to_lists()
    assert g.reduce([1, 2, 3, 4, 5]) == (1, 2, 3, 4, 5)


def test_quotient_single_torsion():
    g = quotient_group(1, IntMatrix([[3]]))
    assert g.torsion == (3,) and g.free_rank == 0
    assert str(g) == "Z/3"
    assert g.reduce([5]) == (2,)


def test_quotient_mixed():
    g = quotient_group(3, IntMatrix([[2, 0, 0]]))
    assert g.torsion == (2,) and g.free_rank == 2
    assert str(g) == "Z/2 ⊕ Z^2"


def test_group_str_rendering():
    assert str(quotient_group(2, IntMatrix.identity(2))) == "0"
    assert str(quotient_group(1, IntMatrix([], cols=1))) == "Z"
    g = quotient_group(3, IntMatrix([[2, 0, 0], [0, 6, 0]]))
    assert str(g) == "Z/2 ⊕ Z/6 ⊕ Z"


def torsion_relations(rng):
    """Seeded relations whose quotient tends to have torsion: some rows
    scaled by 2-6, a duplicated row and a combination of two rows."""
    n = rng.randint(1, 9)
    rows = [[rng.choice((0, 0, rng.randint(-4, 4))) for _ in range(n)]
            for _ in range(rng.randint(1, 7))]
    for row in rng.sample(rows, rng.randint(1, len(rows))):
        c = rng.randint(2, 6)
        row[:] = [c * x for x in row]
    if rng.random() < 0.6:
        rows.append(list(rng.choice(rows)))
    if len(rows) > 1 and rng.random() < 0.6:
        a, b = rng.sample(rows, 2)
        c = rng.choice((-2, -1, 1, 3))
        rows.append([x + c * y for x, y in zip(a, b)])
    rng.shuffle(rows)
    return n, IntMatrix(rows, cols=n)


def relabelled(c, rng):
    perm = list(range(c.n_lines))
    rng.shuffle(perm)
    return LineCombinatorics(c.n_lines, tuple(tuple(sorted(perm[i] for i in p)) for p in c.points))


def graph_of(c, kind):
    return reduced_graph(c) if kind is GraphKind.REDUCED else build_graph(c, kind)


def stabiliser_inputs(c, kind):
    """(ambient rank, relations) of the stabiliser of c on one graph."""
    basis, mh, relations = stabiliser_relations(graph_of(c, kind))
    return basis.rank * mh.group.coord_count, relations


def test_bare_group_type_is_the_quotient_group_string():
    """A bare AbelianGroup reads its type off the echelon form that is
    hermite's first pass, split at its unit pivots; it must print exactly
    what quotient_group, the Smith engine on the relations as given,
    prints.  An echelon form missing a row, a wrong lattice, or a unit row
    that is not cleared from the non-unit rows prints another group.  The
    matrices with two or three chosen non-unit pivots, unit pivots between
    them, are the split's hardest inputs."""
    rng = random.Random(1313)
    cases = [
        stabiliser_inputs(getattr(datasets, name)(), kind)
        for name in ("maclane", "quadruplet", "rybnikov")
        for kind in GraphKind
    ]
    cases += [
        stabiliser_inputs(relabelled(datasets.generic(n), rng), kind)
        for n in range(6, 13)
        for kind in GraphKind
    ]
    cases += [(len(rows[0]), IntMatrix(rows)) for rows, _ in non_unit_pivot_matrices()]
    cases += [torsion_relations(rng) for _ in range(40)]
    cases += [
        (3, IntMatrix([], cols=3)),
        (2, IntMatrix([[2, 1], [1, 1]])),
        (2, IntMatrix([[1, 0], [0, 1], [3, 5]])),
        (0, IntMatrix([], cols=0)),
        (0, IntMatrix([[], []], cols=0)),
        (4, IntMatrix([[0, 0, 0, 0]] * 3)),
    ]
    types = []
    for n, relations in cases:
        expected = str(quotient_group(n, relations))
        group = AbelianGroup(n, relations)
        assert str(group) == expected
        # The log built afterwards retains one column per coordinate of the
        # split's group.
        assert len(group.reduce([0] * n)) == group.coord_count
        types.append(expected)
    # The published groups, the same on both graphs.
    assert types[:6] == [t for t in ("Z/3 ⊕ Z^35", "Z/5 ⊕ Z^119", "Z/3 ⊕ Z/3 ⊕ Z^220")
                         for _ in range(2)]
    random_types = types[-46:-6]
    assert sum("Z/" in t for t in random_types) >= 20
    assert types[-6:] == ["Z^3", "0", "0", "0", "0", "Z^4"]
    with pytest.raises(ValueError, match="ambient rank"):
        AbelianGroup(3, IntMatrix([[1, 2]]))


def test_abelian_group_checks_the_shape_before_eliminating(monkeypatch):
    def eliminate(*args, **kwargs):
        raise AssertionError("elimination reached")

    monkeypatch.setattr(exactalg, "_echelon", eliminate)
    monkeypatch.setattr(exactalg, "_smith_engine", eliminate)
    for make in (AbelianGroup, quotient_group):
        with pytest.raises(ValueError, match=r"^relations have 2 columns, ambient rank is 3$"):
            make(3, IntMatrix([[1, 2]]))
    with pytest.raises(AssertionError, match="elimination reached"):
        quotient_group(2, IntMatrix([[1, 2]]))
    group = AbelianGroup(2, IntMatrix([[1, 2]]))
    with pytest.raises(AssertionError, match="elimination reached"):
        str(group)


def test_bare_group_type_sends_only_the_non_unit_rows_to_the_engine(monkeypatch):
    """The unit-pivot split: the Smith engine runs once, on at most one row
    per non-unit pivot.  Every echelon basis of a lattice has the pivots of
    its Hermite form, so those are counted there; generic(n) has none."""
    engine = exactalg._smith_engine
    rng = random.Random(1818)
    cases = [
        stabiliser_inputs(getattr(datasets, name)(), kind)
        for name in ("maclane", "quadruplet", "rybnikov")
        for kind in GraphKind
    ]
    cases += [stabiliser_inputs(datasets.generic(n), GraphKind.FULL) for n in (6, 9, 12)]
    cases += [(len(rows[0]), IntMatrix(rows)) for rows, _ in non_unit_pivot_matrices()]
    cases += [torsion_relations(rng) for _ in range(40)]
    sizes = []
    for n, relations in cases:
        bound = sum(next(iter(row.values())) != 1 for row in hermite(relations).entries)
        calls = []

        def counted(a, cols, want_u):
            calls.append(len(a))
            return engine(a, cols, want_u)

        monkeypatch.setattr(exactalg, "_smith_engine", counted)
        str(AbelianGroup(n, relations))
        monkeypatch.undo()
        assert len(calls) == 1 and calls[0] <= bound
        sizes.append(calls[0])
    # Non-unit pivots of MacLane, the quadruplet and Rybnikov, reduced then
    # full, as computed: most relation rows never reach the engine.
    assert sizes[:6] == [3, 1, 3, 3, 13, 4]
    assert sizes[6:9] == [0, 0, 0]


def test_one_elimination_serves_type_and_coordinates(monkeypatch):
    """quotient_group runs the engine once, on the raw relations, and reads
    the type off its diagonal: no echelon split, and no engine run after.
    A bare group read for its type first takes the split, and the log it
    builds later keeps that type."""
    engine = exactalg._smith_engine
    rng = random.Random(1919)
    cases = [stabiliser_inputs(datasets.maclane(), kind) for kind in GraphKind]
    cases += [torsion_relations(rng) for _ in range(20)]
    for n, relations in cases:
        calls = []

        def counted(a, cols, want_u):
            calls.append(len(a))
            return engine(a, cols, want_u)

        def no_split(mat):
            raise AssertionError("echelon split reached")

        monkeypatch.setattr(exactalg, "_smith_engine", counted)
        monkeypatch.setattr(exactalg, "_echelon", no_split)
        group = quotient_group(n, relations)
        invariants = group.torsion, group.free_rank
        coords = group.reduce([1] * n)
        assert group.reduce(group.lift(coords)) == coords
        assert group.to_smith.shape == (n, group.coord_count)
        assert calls == [relations.rows]
        monkeypatch.undo()

        monkeypatch.setattr(exactalg, "_smith_engine", counted)
        calls.clear()
        bare = AbelianGroup(n, relations)
        assert (bare.torsion, bare.free_rank) == invariants
        assert len(calls) == 1
        assert bare.reduce([1] * n) == coords
        assert calls[1:] == [relations.rows]
        assert (bare.torsion, bare.free_rank) == invariants
        monkeypatch.undo()


def test_quotient_row_shuffle_invariance():
    rng = random.Random(7)
    for _ in range(50):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        rel = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        g = quotient_group(cols, IntMatrix(rel))
        shuffled = rel[:]
        rng.shuffle(shuffled)
        h = quotient_group(cols, IntMatrix(shuffled))
        assert (g.torsion, g.free_rank) == (h.torsion, h.free_rank)
        # adding one relation row to another does not change the group
        if rows >= 2:
            folded = [row[:] for row in rel]
            folded[0] = [x + y for x, y in zip(folded[0], folded[1])]
            f = quotient_group(cols, IntMatrix(folded))
            assert (g.torsion, g.free_rank) == (f.torsion, f.free_rank)


def test_reduce_separates_non_relations():
    g = quotient_group(4, IntMatrix([[1, 1, 1, 1]]))
    x = [1, 0, 0, 0]
    y = [0, 0, 0, 1]
    # x - y = (1,0,0,-1) is not a multiple of (1,1,1,1)
    assert g.reduce(x) != g.reduce(y)
    z = [x_i - s for x_i, s in zip(x, [1, 1, 1, 1])]
    assert g.reduce(x) == g.reduce(z)


def test_reduce_zero_vector():
    g = quotient_group(3, IntMatrix([[2, 4, 4], [0, 6, 12]]))
    assert g.reduce([0, 0, 0]) == (0,) * g.coord_count


def test_reduce_is_homomorphism():
    rng = random.Random(99)
    g = quotient_group(4, IntMatrix([[2, 0, 4, 2], [0, 3, 3, 0]]))
    for _ in range(100):
        x = [rng.randint(-20, 20) for _ in range(4)]
        y = [rng.randint(-20, 20) for _ in range(4)]
        both = g.reduce([a + b for a, b in zip(x, y)])
        assert both == g.canonical_coords([a + b for a, b in zip(g.reduce(x), g.reduce(y))])


def test_reduce_matches_lattice_membership():
    """reduce(x) == reduce(y) iff x - y lies in the relation lattice."""
    rng = random.Random(4242)
    for _ in range(40):
        cols = rng.randint(2, 4)
        rel = IntMatrix(
            [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rng.randint(1, 3))]
        )
        g = quotient_group(cols, rel)
        x = [rng.randint(-8, 8) for _ in range(cols)]
        y = [rng.randint(-8, 8) for _ in range(cols)]
        diff = [a - b for a, b in zip(x, y)]
        assert (g.reduce(x) == g.reduce(y)) == lattice_members(rel, [diff])[0]


def test_to_smith_from_smith_round_trip():
    g = quotient_group(4, IntMatrix([[2, 0, 4, 2], [0, 3, 3, 0]]))
    rng = random.Random(31)
    for _ in range(50):
        coords = [rng.randint(-9, 9) for _ in range(g.coord_count)]
        back = g.reduce(g.lift(coords))
        assert back == g.canonical_coords(coords)


# ----------------------------------------------------------------------------
# Hermite form and lattices
# ----------------------------------------------------------------------------


def test_hermite_golden():
    h = hermite(IntMatrix([[2, 4], [6, 8]]))
    # sympy's HNF is column-style; transpose around it for the row-style oracle
    oracle = hermite_normal_form(sympy.Matrix([[2, 4], [6, 8]]).T).T
    assert sympy.Matrix(h.to_lists()) == oracle
    assert h.to_lists() == [[2, 0], [0, 4]]


def test_hermite_random_against_sympy():
    """Row span agrees with sympy (sympy right-justifies pivots, so compare
    both matrices through sympy's canonical form), and our own shape contract
    holds: pivots positive on strictly increasing columns, entries above each
    pivot reduced into [0, pivot)."""
    rng = random.Random(1212)
    inputs = []
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        inputs.append([[rng.randint(-7, 7) for _ in range(cols)] for _ in range(rows)])
    # Sparse and wider, some rank-deficient: the last row a combination of two.
    for _ in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 9)
        m = seeded_dense(rng, rows, cols)
        if rows > 2 and rng.random() < 0.5:
            k = rng.randint(-3, 3)
            m[-1] = [x + k * y for x, y in zip(m[0], m[1])]
        inputs.append(m)
    # Seeded row permutations and duplicated rows of the inputs so far: the
    # checks below pin the unique Hermite form, so no pivot rule, and no
    # tie-break by row length, can change hermite's output on them.
    for m in inputs[::4]:
        inputs.append(rng.sample(m, len(m)))
        inputs.append(m + [m[rng.randrange(len(m))]])
    for m in inputs:
        a = IntMatrix(m)
        h = hermite(a)
        if a.is_zero():
            assert h.rows == 0
            continue
        assert_hermite_of(a, h)


def assert_hermite_of(a, h):
    """h spans a's rows (checked through sympy's canonical form) and has
    the row-style Hermite shape, which together pin it: pivots positive on
    strictly increasing columns, entries above each pivot in [0, pivot)."""
    canonical_in = hermite_normal_form(sympy.Matrix(a.to_lists()).T).T
    canonical_out = hermite_normal_form(sympy.Matrix(h.to_lists()).T).T
    assert canonical_in == canonical_out
    last_pivot = -1
    for row in h.data:
        j = next(k for k, v in enumerate(row) if v)
        assert j > last_pivot
        assert row[j] > 0
        for above in h.data[: h.data.index(row)]:
            assert 0 <= above[j] < row[j]
        last_pivot = j


def mixed_triangular(rng):
    """8-20 rows whose Hermite form has two or three non-unit pivots with
    unit pivots between them: an echelon matrix with chosen pivots, plus
    zero rows, mixed by seeded unimodular row operations.  Returns the rows
    and the (column, pivot) pairs the Hermite form must have."""
    rank = rng.randint(6, 16)
    cols = rank + rng.randint(0, 4)
    pivot_cols = sorted(rng.sample(range(cols), rank))
    diag = [1] * rank
    first = rng.randrange(rank - 5)
    second = rng.randrange(first + 3, rank)  # a third non-unit leaves a unit between
    for k in (first, second, rng.randrange(rank)):
        diag[k] = rng.randint(2, 6)
    rows = []
    for j, d in zip(pivot_cols, diag):
        tail = [rng.choice((0, 0, rng.randint(-4, 4))) for _ in range(cols - j - 1)]
        rows.append([0] * j + [d] + tail)
    rows += [[0] * cols for _ in range(rng.randint(2, 4))]
    for _ in range(3 * len(rows)):
        i, k = rng.sample(range(len(rows)), 2)
        c = rng.choice((-2, -1, 1, 2))
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[k])]
    rng.shuffle(rows)
    return rows, list(zip(pivot_cols, diag))


def non_unit_pivot_matrices():
    """30 seeded mixed_triangular (rows, pivots) pairs."""
    rng = random.Random(1717)
    return [mixed_triangular(rng) for _ in range(30)]


def test_hermite_fills_in_at_non_unit_pivots():
    """Entries above a non-unit pivot are reduced even where the row held
    nothing before the rows below it were subtracted: the finishing pass
    must visit every non-unit pivot column, not only a row's own keys.
    The pivots of any echelon basis are those of the Hermite form, so the
    chosen ones must come back."""
    for rows, pivots in non_unit_pivot_matrices():
        a = IntMatrix(rows)
        h = hermite(a)
        assert [(next(iter(row)), next(iter(row.values()))) for row in h.entries] == pivots
        assert_hermite_of(a, h)


def test_hermite_drops_zero_rows():
    h = hermite(IntMatrix([[1, 1], [2, 2], [0, 0]]))
    assert h.to_lists() == [[1, 1]]


def test_lattice_member_goldens():
    basis = IntMatrix([[2, 0], [0, 2]])
    assert lattice_members(basis, [[2, 2]])[0]
    assert not lattice_members(basis, [[1, 0]])[0]
    assert lattice_members(IntMatrix([[1, 1]]), [[3, 3]])[0]
    assert not lattice_members(IntMatrix([[1, 1]]), [[3, 2]])[0]


def brute_force_member(rows, x, bound=12):
    """Small-coefficient enumeration oracle for lattice membership."""
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=len(rows)):
        probe = [0] * len(x)
        for c, row in zip(coeffs, rows):
            for i, v in enumerate(row):
                probe[i] += c * v
        if probe == list(x):
            return True
    return False


def test_lattice_member_brute_force_2x2():
    # Cramer plus Hadamard bound the solution coefficients by 36 for entries
    # in [-3,3] and targets in [-6,6], so bound=36 makes the oracle exact.
    rng = random.Random(555)
    for _ in range(30):
        rows = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        x = [rng.randint(-6, 6) for _ in range(2)]
        assert lattice_members(IntMatrix(rows), [x])[0] == brute_force_member(rows, x, bound=36)


def test_lattice_member_rational_solve_3x3():
    """Independent oracle: unique rational solution, then integrality check."""
    rng = random.Random(556)
    seen = 0
    while seen < 15:
        rows = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        b = sympy.Matrix(rows)
        if b.det() == 0:
            continue
        seen += 1
        x = [rng.randint(-4, 4) for _ in range(3)]
        coeffs = b.T.solve(sympy.Matrix(x))
        expected = all(c == int(c) for c in coeffs)
        assert lattice_members(IntMatrix(rows), [x])[0] == expected


def test_lattice_member_constructed_members():
    """Anything built as an integer combination of the rows is a member."""
    rng = random.Random(557)
    for _ in range(25):
        n = rng.randint(2, 4)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        x = [0] * n
        for row in rows:
            c = rng.randint(-9, 9)
            x = [a + c * v for a, v in zip(x, row)]
        assert lattice_members(IntMatrix(rows), [x])[0]


def test_lattice_members_batch_matches_single():
    rng = random.Random(558)
    basis = IntMatrix([[2, 0, 1], [0, 3, 1]])
    vectors = [[rng.randint(-6, 6) for _ in range(3)] for _ in range(40)]
    vectors += [[2, 3, 2], [4, -3, 1], [0, 0, 0]]  # combinations of the rows
    batch = lattice_members(basis, vectors)
    assert batch == [lattice_members(basis, [v])[0] for v in vectors]
    assert any(batch) and not all(batch)


def test_lattice_kernel_goldens():
    assert lattice_kernel(IntMatrix([[1, 1]])).to_lists() == [[1, -1]]
    assert lattice_kernel(IntMatrix([[2, 4]])).to_lists() == [[2, -1]]
    assert lattice_kernel(IntMatrix([], cols=3)) == IntMatrix.identity(3)
    assert lattice_kernel(IntMatrix.identity(2)) == IntMatrix([], cols=2)


def test_lattice_kernel_rank_and_soundness():
    rng = random.Random(808)
    inputs = []
    for _ in range(40):
        n = rng.randint(2, 5)
        k = rng.randint(1, 4)
        inputs.append([[rng.randint(-5, 5) for _ in range(n)] for _ in range(k)])
    # Up to 8x12 with about 70 % zeros; half carry a row combining two others.
    for i in range(30):
        n, k = rng.randint(1, 12), rng.randint(1, 8)
        m = [[rng.choice((0,) * 7 + (rng.randint(-5, 5),) * 3) for _ in range(n)]
             for _ in range(k)]
        if k > 2 and i % 2:
            a, b, c = rng.sample(range(k), 3)
            q = rng.randint(-3, 3)
            m[c] = [x + q * y for x, y in zip(m[a], m[b])]
        inputs.append(m)
    for m in inputs:
        forms = IntMatrix(m)
        n = forms.cols
        ker = lattice_kernel(forms)
        rank = sympy.Matrix(forms.to_lists()).rank()
        assert ker.rows == n - rank
        for row in ker.data:
            for form in forms.data:
                assert sum(a * b for a, b in zip(row, form)) == 0


def test_lattice_kernel_is_saturated():
    """Any integer solution of the forms must lie in the returned lattice."""
    rng = random.Random(809)
    for _ in range(20):
        n = rng.randint(2, 4)
        forms = IntMatrix([[rng.randint(-4, 4) for _ in range(n)]])
        ker = lattice_kernel(forms)
        for _ in range(20):
            x = [rng.randint(-6, 6) for _ in range(n)]
            if sum(a * b for a, b in zip(x, forms.data[0])) == 0:
                assert lattice_members(ker, [x])[0]
    # 2-3 forms, some with non-primitive rows.  Random points rarely solve
    # them, so the solutions are built from sympy's rational kernel, each
    # divided by the gcd of its entries; a lattice that misses one of them is
    # not saturated.
    hand_made = [
        ([[2, 4, 0], [0, 0, 3]], [[-2, 1, 0]]),
        ([[2, 2, 0, 0], [0, 0, 6, 3], [1, 1, 2, 1]], [[1, -1, 0, 0], [0, 0, 1, -2]]),
    ]
    for m, solutions in hand_made:
        assert all(lattice_members(lattice_kernel(IntMatrix(m)), solutions))
    for _ in range(20):
        n, k = rng.randint(3, 6), rng.randint(2, 3)
        forms = IntMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)])
        ker = lattice_kernel(forms)
        basis = []
        for v in sympy.Matrix(forms.to_lists()).nullspace():
            scale = sympy.ilcm(*[x.q for x in v])
            basis.append([int(x * scale) for x in v])
        for _ in range(10):
            x = [0] * n
            for b in basis:
                c = rng.randint(-6, 6)
                x = [xi + c * bi for xi, bi in zip(x, b)]
            g = sympy.igcd(*x) or 1
            x = [xi // g for xi in x]
            assert all(sum(a * b for a, b in zip(x, f)) == 0 for f in forms.data)
            assert lattice_members(ker, [x])[0]


def tlg_forms(name, monkeypatch):
    """The forms that tlg() hands to lattice_kernel on the full graph."""
    recorded = []
    with monkeypatch.context() as patch:
        patch.setattr(looplink, "lattice_kernel", recorded.append)
        looplink.tlg(build_graph(getattr(datasets, name)(), GraphKind.FULL))
    return recorded[0]


def test_lattice_kernel_depends_on_the_rational_span_only(monkeypatch):
    """The kernel is a function of the forms' rational row span: permuting,
    duplicating, adding zero rows, unimodular row operations and scaling a
    row by 2 or -3 keep it.  The kernel is saturated: Z^n modulo it, by the
    Smith engine, is torsion-free.  A kernel that is not saturated, or that
    depends on the order of the rows, fails."""
    rng = random.Random(810)
    inputs = [seeded_dense(rng, rng.randint(1, 7), rng.randint(1, 10)) for _ in range(25)]
    inputs += [tlg_forms(name, monkeypatch).to_lists() for name in ("maclane", "quadruplet")]
    for m in inputs:
        ker = lattice_kernel(IntMatrix(m))
        assert quotient_group(ker.cols, ker).torsion == ()
        i, j = rng.randrange(len(m)), rng.randrange(len(m))
        added, c = [row[:] for row in m], rng.choice((-2, 1, 3))
        if i != j:
            added[i] = [x + c * y for x, y in zip(m[i], m[j])]
        variants = [
            rng.sample(m, len(m)),
            m + [m[i]],
            m + [[0] * len(m[0])],
            added,
            [[2 * x for x in row] if k == i else row for k, row in enumerate(m)],
            [[-3 * x for x in row] if k == j else row for k, row in enumerate(m)],
        ]
        for variant in variants:
            assert lattice_kernel(IntMatrix(variant)) == ker


def scan_echelon(mat):
    """The scan-based _echelon that the column index replaced, verbatim: for
    each column it scans every remaining row, and it rebuilds the remaining
    rows at each pivot.  The reference for the indexed one."""
    rest = [row for row in _sparse_rows(mat) if row]
    done: list[tuple[int, dict[int, int]]] = []
    for j in range(mat.cols):
        holders = [row for row in rest if j in row]
        if not holders:
            continue
        # Euclid on column j: the row of least |value| reduces the others.
        while len(holders) > 1:
            pivot = min(holders, key=lambda row: (abs(row[j]), len(row)))
            p = pivot[j]
            for row in holders:
                if row is not pivot:
                    _axpy(row, -(row[j] // p), pivot)
            holders = [row for row in holders if j in row]
        (pivot,) = holders
        if pivot[j] < 0:
            for k in pivot:
                pivot[k] = -pivot[k]
        done.append((j, pivot))
        rest = [row for row in rest if row and row is not pivot]
    return done


def echelon_input(rng):
    """A seeded matrix of 0-14 rows and columns, sparse to dense, with zero
    rows, duplicated rows, scaled or negated copies and rows with no zero
    entry mixed in."""
    rows, cols = rng.randint(0, 14), rng.randint(0, 14)
    density = rng.choice((0.1, 0.3, 0.6, 1.0))
    m = [[rng.randint(-6, 6) if rng.random() < density else 0 for _ in range(cols)]
         for _ in range(rows)]
    if cols:
        for _ in range(rng.randint(0, 3)):
            extra = rng.randrange(4)
            if extra == 0 or not m:
                m.append([0] * cols)
            elif extra == 1:
                m.append(list(rng.choice(m)))
            elif extra == 2:
                c = rng.choice((-3, -1, 2, 5))
                m.append([c * x for x in rng.choice(m)])
            else:
                m.append([rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(cols)])
    rng.shuffle(m)
    return IntMatrix(m, cols=cols)


def echelon_pairs(pairs):
    """(pivot column, row items) pairs: row key order included."""
    return [(j, tuple(row.items())) for j, row in pairs]


def test_echelon_matches_the_scan_reference(monkeypatch):
    """The column-indexed _echelon returns exactly the (pivot, row) pairs of
    the scan that it replaced, row key order included: the index changes
    how holders are found, not the pivot rule or the _axpy order.  Seeded
    matrices, the workload matrices of the Hermite pins, the [h^T | I]
    matrices that lattice_kernel hands to hermite, and Ceva relations.  An
    index that misses a column a row fills in drops that row from a later
    column's Euclid step, and the pairs differ."""
    rng = random.Random(1818)
    inputs = [echelon_input(rng) for _ in range(3000)]
    for m in inputs:
        assert echelon_pairs(exactalg._echelon(m)) == echelon_pairs(scan_echelon(m))
    nonzero = [[tuple(row.items()) for row in m.entries if row] for m in inputs]
    assert sum(len(rows) > len(set(rows)) for rows in nonzero) > 300
    assert sum(not row for m in inputs for row in m.entries) > 500
    assert sum(len(row) == m.cols >= 8 for m in inputs for row in m.entries) > 500

    bundled = [hnf_input(key, monkeypatch) for key in HNF_DIGESTS]
    handed = []
    with monkeypatch.context() as patch:
        patch.setattr(exactalg, "hermite", lambda m: handed.append(m) or hermite(m))
        for name in ("maclane", "quadruplet", "rybnikov"):
            lattice_kernel(tlg_forms(name, monkeypatch))
    bundled += handed[1::2]
    bundled += [stabiliser_inputs(datasets.ceva(n), GraphKind.FULL)[1] for n in (3, 4, 5, 6)]
    for m in bundled:
        assert echelon_pairs(exactalg._echelon(m)) == echelon_pairs(scan_echelon(m))


# SHA-256 of repr([tuple(row.items()) for row in hermite(m).entries]) for the
# bundled inputs: stabiliser relations on both graphs, generic(6..12) on the
# full graph and the forms that tlg hands to lattice_kernel.  The Hermite form
# is unique, so any correct hermite gives these; they pin a contract, not the
# transcript of one elimination.
HNF_DIGESTS = {
    "maclane-reduced": "ffce99f8a5a57ec74e8c857ca3f45d93430de00dbb1f7a9956ed5ba61f1c9e24",
    "maclane-full": "ae09b9a145599556e950da64952aa656645575bc7e8b596d8480253921fbfe79",
    "quadruplet-reduced": "c33dfc0b440a2370d42c094f2b55f3aab78990d870678f9ee1565a1073e0203b",
    "quadruplet-full": "06a1592e432e5ecc1ac59e15b75716391c5c9bf950f43fa577b3ebac0217b7c7",
    "rybnikov-reduced": "7d43045691519641d3ed0f6ef62ddca1bf319e63b21db28e5b680d13c235b07a",
    "rybnikov-full": "a5e1a4feac465bc63b2ce1f0635fbe8c36fd74b8a3d0d16c17f2a1c8c84ebc44",
    "generic6-full": "529036e799edeea4fa6447bce11f4d3c28489fe310d990b4089d562f46fc3e25",
    "generic7-full": "ca97737724ed49db8489c14d0538154474f6af05074dacda8ce386fce5221995",
    "generic8-full": "f41926eba9d538a274f5b858e757cc616d51312a6b9f0607c3aef64c7410bcfd",
    "generic9-full": "f6b912f5d04e9c0cb3a0baee0dc4c343bd03c9fa9bc9aa5069898e36e534ea1f",
    "generic10-full": "bc2263b0936610bcd41c9b0d2de915a6500789ae87f6f27ddbb16d6245482e5d",
    "generic11-full": "36d7a3e398e15dcca320bf263bc49b27c97e7ac01d56dd91fd91df8a273ea2d3",
    "generic12-full": "eb59ca619791a83bcde8c11e75bba9ad0a489d720b42c320080f3bea2acdfd72",
    "maclane-tlg-forms": "41e8c5e4b88c2afb85159c22e691825052deba3a1ce252d97b417adaad9cbbe4",
    "quadruplet-tlg-forms": "a25b2d2a541206ced8616018cf587bf30433edfe93fd67d9a88242ff9c439fdc",
    "rybnikov-tlg-forms": "fb659d61bd0dda63c5fa7584bf77fe1db48a0f92633c7553af907d4126e0a247",
}


def hnf_input(key, monkeypatch):
    name, _, kind = key.partition("-")
    if kind == "tlg-forms":
        return tlg_forms(name, monkeypatch)
    if name.startswith("generic"):
        c = datasets.generic(int(name[len("generic"):]))
    else:
        c = getattr(datasets, name)()
    return stabiliser_inputs(c, GraphKind(kind))[1]


@pytest.mark.parametrize("key", list(HNF_DIGESTS))
def test_bundled_hermite_forms_are_pinned(key, monkeypatch):
    h = hermite(hnf_input(key, monkeypatch))
    text = repr([tuple(row.items()) for row in h.entries])
    assert hashlib.sha256(text.encode()).hexdigest() == HNF_DIGESTS[key]


def test_int_matrix_entries_must_be_integers():
    for bad in (1.5, 2.0, "7", None):
        with pytest.raises(TypeError):
            IntMatrix([[1, bad]])

    class Index:
        def __index__(self):
            return -3

    m = IntMatrix([[True, Index(), sympy.Integer(5)]])
    assert m.data == ((1, -3, 5),)
    assert all(type(x) is int for x in m.data[0])


def test_int_matrix_takes_numpy_integers():
    numpy = pytest.importorskip("numpy")
    m = IntMatrix([[numpy.int64(-3), numpy.uint8(5)]])
    assert m.data == ((-3, 5),)
    assert all(type(x) is int for x in m.data[0])


def test_matmul_shape_check():
    with pytest.raises(ValueError):
        IntMatrix.identity(2) @ IntMatrix.identity(3)


def test_reduce_dimension_mismatch():
    g = quotient_group(2, IntMatrix([[2, 0]]))
    with pytest.raises(ValueError):
        g.reduce([1, 2, 3])
    with pytest.raises(ValueError):
        g.lift([1, 2, 3])


def test_exact_boundaries_reject_non_integers():
    # int() would truncate a float and parse a string; __index__ refuses both.
    with pytest.raises(TypeError):
        lattice_members(IntMatrix.identity(2), [[1.5, 0.2]])
    with pytest.raises(TypeError):
        lattice_members(IntMatrix.identity(2), [["3", 0]])
    g = quotient_group(2, IntMatrix([[2, 0]]))
    for method in (g.reduce, g.lift, g.canonical_coords):
        for bad in ([1.5, 2.7], [1.9, 0.5], ["1", 0], [2.0, 1]):
            with pytest.raises(TypeError):
                method(bad)
    assert g.reduce([True, sympy.Integer(-1)]) == g.reduce([1, -1])
    assert g.canonical_coords([sympy.Integer(3), 4]) == (1, 4)
    assert lattice_members(IntMatrix.identity(2), [[sympy.Integer(2), True]]) == [True]
    for pairs in ([(0, 1.5)], [(0.0, 1)], [(0, "1")], [("0", 1)]):
        with pytest.raises(TypeError):
            IntMatrix.from_entries([pairs], 2)
    for value in (True, sympy.Integer(1)):
        for row in IntMatrix.from_entries([[(value, value)]], 2).entries:
            assert row == {1: 1} and all(type(x) is int for x in (*row, *row.values()))
    # Column counts go through __index__ too.
    for make in (lambda: IntMatrix([], cols=2.0), lambda: IntMatrix([[1, 2]], cols=2.0),
                 lambda: IntMatrix.from_entries([[(0, 1)]], 2.5),
                 lambda: IntMatrix.from_entries([], "2"), lambda: IntMatrix.zeros(1, 2.0)):
        with pytest.raises(TypeError):
            make()
    for cols in (True, sympy.Integer(1)):
        for m in (IntMatrix.from_entries([], cols), IntMatrix([], cols=cols)):
            assert m.shape == (0, 1) and type(m.cols) is int


def test_negative_column_counts_are_rejected():
    with pytest.raises(ValueError):
        IntMatrix([], cols=-3)
    for rows in ([], [[(0, 1)]]):
        with pytest.raises(ValueError):
            IntMatrix.from_entries(rows, -1)
    for rows, cols in ((-1, 2), (0, -1)):
        with pytest.raises(ValueError):
            IntMatrix.zeros(rows, cols)
    for pairs in (
        [(2, 1)], [(-1, 1)], [(2, 0)], [(-1, 0)],
        [(0, 1), (0, 2)], [(0, 3), (0, -3)], [(1, 0), (1, 0)],
    ):
        with pytest.raises(ValueError):
            IntMatrix.from_entries([pairs], 2)


def test_column_indexes_like_row():
    m = IntMatrix([[1, 2, 3], [4, 5, 6]])
    assert m.column(-1) == (3, 6) and m.row(-1) == (4, 5, 6)
    assert [m.column(j) for j in range(3)] == [(1, 4), (2, 5), (3, 6)]
    for index in (lambda: m.column(7), lambda: m.column(-4), lambda: m.row(5)):
        with pytest.raises(IndexError):
            index()


def ref_transpose(rows, cols):
    return [[row[j] for row in rows] for j in range(cols)]


def ref_matmul(a, b, cols):
    return [
        [sum(row[k] * b[k][j] for k in range(len(row))) for j in range(cols)]
        for row in a
    ]


def seeded_dense(rng, rows, cols):
    return [[rng.choice((0, 0, 0, rng.randint(-5, 5))) for _ in range(cols)]
            for _ in range(rows)]


def test_sparse_rows_are_the_one_storage():
    rng = random.Random(9)
    for _ in range(80):
        rows, cols, width = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)
        dense = seeded_dense(rng, rows, cols)
        pairs = []
        for row in dense:
            p = list(enumerate(row))  # zeros included
            rng.shuffle(p)
            pairs.append(p)
        a = IntMatrix(dense, cols=cols)
        b = IntMatrix.from_entries(pairs, cols)
        assert a == b and hash(a) == hash(b)
        assert b.shape == (rows, cols)
        assert b.data == tuple(map(tuple, dense)) and b.to_lists() == dense
        assert IntMatrix(b.data, cols=cols) == b
        for row in b.entries:
            assert type(row) is dict
            assert list(row) == sorted(row) and all(row.values())
        assert a.transpose().to_lists() == ref_transpose(dense, cols)
        assert a.transpose().transpose() == a
        other = seeded_dense(rng, cols, width)
        product = a @ IntMatrix(other, cols=width)
        assert product.to_lists() == ref_matmul(dense, other, width)
        assert all(all(row.values()) for row in product.entries)
        if rows and cols:
            changed = [list(row) for row in dense]
            changed[0][0] += 1
            assert IntMatrix(changed, cols=cols) != b


def checked_rows(m):
    """m's rows rebuilt through the checked from_entries, as ordered pairs."""
    rebuilt = IntMatrix.from_entries((row.items() for row in m.entries), m.cols)
    return [list(row.items()) for row in rebuilt.entries]


@pytest.mark.parametrize("kind", list(GraphKind), ids=lambda k: k.value)
@pytest.mark.parametrize("name", ["maclane", "quadruplet"])
def test_internal_producers_match_the_checked_build(name, kind, monkeypatch):
    """The package's own producers skip from_entries' checks; their rows
    must be exactly what it would build: ascending keys, no zeros, plain
    ints, columns in range.  Key order matters to hash()."""
    c = getattr(datasets, name)()
    g = graph_of(c, kind)
    basis, mh, relations = stabiliser_relations(g)
    built = [relations, basis.zeta, hermite(relations), mh.group.to_smith,
             quotient_group(relations.cols, relations).to_smith]
    if kind is GraphKind.FULL:
        forms = tlg_forms(name, monkeypatch)
        built += [forms, lattice_kernel(forms)]
    for m in built:
        assert [list(row.items()) for row in m.entries] == checked_rows(m)
        assert all(type(x) is int for row in m.entries for x in row.values())
