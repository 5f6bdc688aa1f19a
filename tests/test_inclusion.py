"""Tests for inclusion-matrix parsing and invariant comparison."""

import json
import random

import pytest

from linestab import datasets
from linestab.combinatorics import ValidationError
from linestab.exactalg import IntMatrix
from linestab.inclusion import (
    BASIS_TAG,
    InclusionMatrix,
    Verdict,
    compare,
    invariant,
    parse_inclusion,
)
from linestab.orderings import canonical_ordering, parse_ordering
from linestab.stabiliser import lift_to_chains, stabiliser, transition

from conftest import reduced_graph


def incl_json(g, matrix, **extra):
    doc = {"cycles": len(matrix), "matrix": matrix, "basis": BASIS_TAG}
    doc.update(extra)
    return json.dumps(doc)


def zero_incl(s, ordering=None):
    m = IntMatrix.zeros(s.basis.rank, s.graph.vertex_count)
    return InclusionMatrix(m, ordering or canonical_ordering(s.graph), BASIS_TAG)


def shifted(s, incl, ambient):
    """Inclusion data translated by an ambient hom vector."""
    shift = lift_to_chains(s, ambient)
    rows = [
        tuple(a + b for a, b in zip(incl.matrix.row(i), shift.row(i)))
        for i in range(shift.rows)
    ]
    return InclusionMatrix(IntMatrix(rows), incl.ordering, BASIS_TAG)


def rotate_at(o, v, r=1):
    from linestab.orderings import GraphOrdering

    rows = list(o.order)
    rows[v] = rows[v][r:] + rows[v][:r]
    return GraphOrdering(o.graph, tuple(rows))


# ----------------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------------


def test_parse_roundtrip(k4_stab):
    g = k4_stab.graph
    matrix = [[1, 2, 3, 4], [0, 0, 0, 0], [5, -1, 0, 2]]
    m = parse_inclusion(incl_json(g, matrix), g)
    assert m.matrix.to_lists() == matrix
    assert m.ordering.order == g.neighbours
    assert m.basis_tag == BASIS_TAG


def test_parsed_rows_are_the_checked_build(quadruplet_stab):
    """parse_inclusion builds the sparse rows itself; they must be what the
    dense constructor builds, key order included (hash() reads it)."""
    g = quadruplet_stab.graph
    rng = random.Random(37)
    for _ in range(10):
        matrix = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(g.vertex_count)]
                  for _ in range(quadruplet_stab.basis.rank)]
        m = parse_inclusion(incl_json(g, matrix), g).matrix
        dense = IntMatrix(matrix, cols=g.vertex_count)
        assert m == dense and hash(m) == hash(dense) and m.shape == dense.shape
        assert [list(r.items()) for r in m.entries] == [list(r.items()) for r in dense.entries]


def test_parse_reads_ordering(k4_stab):
    g = k4_stab.graph
    doc = incl_json(g, [[0] * 4] * 3, ordering={"order": {"L0": ["L3", "L1", "L2"]}})
    m = parse_inclusion(doc, g)
    assert m.ordering.order[0] == (3, 1, 2)


def test_parse_rejects_bad_files(k4_stab):
    g = k4_stab.graph
    with pytest.raises(ValidationError, match="basis tag"):
        parse_inclusion(json.dumps({"cycles": 3, "matrix": [[0] * 4] * 3,
                                    "basis": "other"}), g)
    with pytest.raises(ValidationError, match="cycles"):
        parse_inclusion(incl_json(g, [[0] * 4] * 2), g)
    with pytest.raises(ValidationError, match="per vertex"):
        parse_inclusion(incl_json(g, [[0] * 3] * 3), g)
    with pytest.raises(ValidationError, match="graph"):
        parse_inclusion(incl_json(g, [[0] * 4] * 3, graph="full"), g)
    with pytest.raises(ValueError, match="lacks"):
        parse_inclusion(json.dumps({"matrix": []}), g)
    with pytest.raises(ValidationError, match="integers"):
        parse_inclusion(incl_json(g, [[0, 0, 0, 0.5]] + [[0] * 4] * 2), g)
    with pytest.raises(ValidationError, match="integers"):
        parse_inclusion(incl_json(g, [[0, 0, 0, True]] + [[0] * 4] * 2), g)
    for bad in ("1", None, [1], 2.0):
        with pytest.raises(ValidationError, match="integers"):
            parse_inclusion(incl_json(g, [[0] * 4, [0, bad, 0, 0], [0] * 4]), g)
    with pytest.raises(ValidationError, match="per vertex"):
        parse_inclusion(incl_json(g, [[0] * 4, [0] * 5, [0] * 4]), g)
    with pytest.raises(ValidationError, match="per vertex"):
        parse_inclusion(incl_json(g, [[0] * 4, 7, [0] * 4]), g)
    # K3 has cycle rank 1, and true == 1 in Python.
    k3 = reduced_graph(datasets.generic(3))
    with pytest.raises(ValidationError, match="cycles"):
        parse_inclusion(json.dumps({"cycles": True, "matrix": [[0] * 3],
                                    "basis": BASIS_TAG}), k3)
    # 3.0 == 3 in Python too.
    with pytest.raises(ValidationError, match="cycles"):
        parse_inclusion(json.dumps({"cycles": 3.0, "matrix": [[0] * 4] * 3,
                                    "basis": BASIS_TAG}), g)


@pytest.mark.parametrize("ordering", [
    {"order": {"L0": ["L3", "L1", "L2"]}},
    {"order": {"L0": ["L3", "L1"]}},
    {"order": {"L9": []}},
    {"order": {"L0": 5}},
    {"order": {"L0": [3, 1, 2]}},
    {"order": []},
    {"orders": {}},
    [1],
    None,
], ids=["valid", "not-a-permutation", "unknown-label", "not-a-list", "int-labels",
        "order-not-a-mapping", "no-order-key", "list", "null"])
def test_embedded_ordering_matches_ordering_file(k4_stab, ordering):
    """An inclusion file's "ordering" passes the checks of an ordering file."""
    g = k4_stab.graph
    doc = incl_json(g, [[0] * 4] * 3, ordering=ordering)
    try:
        expected = parse_ordering(json.dumps(ordering), g)
    except ValueError as exc:
        with pytest.raises(type(exc)) as info:
            parse_inclusion(doc, g)
        assert str(info.value) == str(exc)
    else:
        assert parse_inclusion(doc, g).ordering == expected


# ----------------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------------


def test_compare_identical(maclane_stab):
    a = zero_incl(maclane_stab)
    rep = compare(maclane_stab, a, a)
    assert rep.verdict is Verdict.EQUAL
    assert rep.difference.is_zero and rep.transition.is_zero


def test_compare_rotated_ordering_equal(maclane_stab):
    s = maclane_stab
    a = zero_incl(s)
    b = zero_incl(s, rotate_at(canonical_ordering(s.graph), 5))
    rep = compare(s, a, b)
    assert rep.verdict is Verdict.EQUAL
    assert rep.transition.is_zero


def test_compare_relation_shift_equal(maclane_stab):
    s = maclane_stab
    rng = random.Random(11)
    base_rows = [
        [rng.randrange(-3, 4) for _ in range(s.graph.vertex_count)]
        for _ in range(s.basis.rank)
    ]
    a = InclusionMatrix(IntMatrix(base_rows), canonical_ordering(s.graph), BASIS_TAG)
    combo = [0] * s.ambient_rank
    for _ in range(4):
        row = s.relations.row(rng.randrange(s.relations.rows))
        sign = rng.choice((-1, 1))
        combo = [x + sign * y for x, y in zip(combo, row)]
    rep = compare(s, a, shifted(s, a, combo))
    assert rep.verdict is Verdict.EQUAL


def test_compare_reordered_data_needs_transition_shift(maclane_stab):
    """Re-expressing the same invariant in another ordering moves the raw
    class by exactly the transition; compare must cancel it."""
    s = maclane_stab
    rng = random.Random(23)
    ord_a = canonical_ordering(s.graph)
    rows = []
    for row in s.graph.neighbours:
        row = list(row)
        rng.shuffle(row)
        rows.append(tuple(row))
    from linestab.orderings import GraphOrdering

    ord_b = GraphOrdering(s.graph, tuple(rows))
    a = zero_incl(s, ord_a)
    t = transition(s, ord_a, ord_b)
    b = shifted(s, zero_incl(s, ord_b), list(s.group.lift(t.coords)))
    rep = compare(s, a, b)
    assert rep.verdict is Verdict.EQUAL
    # without the matrix shift the verdict flips (unless T happened to vanish)
    bare = compare(s, a, zero_incl(s, ord_b))
    assert (bare.verdict is Verdict.EQUAL) == t.is_zero


def test_compare_distinct(maclane_stab):
    s = maclane_stab
    unit = [0] * s.group.coord_count
    unit[-1] = 1
    a = zero_incl(s)
    b = shifted(s, a, list(s.group.lift(unit)))
    rep = compare(s, a, b)
    assert rep.verdict is Verdict.DISTINCT
    assert not rep.difference.is_zero


def test_torsion_only_difference_is_distinct(maclane_stab):
    """A shift by the order-3 generator is invisible rationally but the
    verdict must still be Distinct."""
    s = maclane_stab
    assert s.group.torsion == (3,)
    unit = [0] * s.group.coord_count
    unit[0] = 1
    a = zero_incl(s)
    b = shifted(s, a, list(s.group.lift(unit)))
    rep = compare(s, a, b)
    assert rep.verdict is Verdict.DISTINCT
    assert rep.difference.coords[0] == 1
    # shifting three times returns to Equal
    b3 = shifted(s, a, [3 * x for x in s.group.lift(unit)])
    assert compare(s, a, b3).verdict is Verdict.EQUAL


def test_compare_antisymmetric(maclane_stab):
    s = maclane_stab
    rng = random.Random(5)
    a = zero_incl(s)
    ambient = [rng.randrange(-2, 3) for _ in range(s.ambient_rank)]
    b = shifted(s, a, ambient)
    fwd = compare(s, a, b)
    rev = compare(s, b, a)
    assert rev.verdict is fwd.verdict
    assert rev.difference.coords == (-fwd.difference).coords


def test_compare_transitive_verdicts(maclane_stab):
    s = maclane_stab
    rng = random.Random(31)
    a = zero_incl(s)
    combos = []
    for _ in range(2):
        combo = [0] * s.ambient_rank
        for _ in range(3):
            row = s.relations.row(rng.randrange(s.relations.rows))
            combo = [x + y for x, y in zip(combo, row)]
        combos.append(combo)
    b = shifted(s, a, combos[0])
    c = shifted(s, b, combos[1])
    assert compare(s, a, b).verdict is Verdict.EQUAL
    assert compare(s, b, c).verdict is Verdict.EQUAL
    assert compare(s, a, c).verdict is Verdict.EQUAL


def test_invariant_rejects_foreign_graph(maclane_stab, k4_stab):
    with pytest.raises(ValidationError):
        invariant(maclane_stab, zero_incl(k4_stab))


def test_invariant_rejects_stabiliser_on_another_root(maclane_stab):
    """Inclusion data is written in the bfs-root0 basis, so a stabiliser
    built on another root would give coordinates in a foreign convention."""
    other = stabiliser(maclane_stab.graph, root=5)
    a = zero_incl(maclane_stab)
    for call in (lambda: invariant(other, a), lambda: compare(other, a, a)):
        with pytest.raises(ValidationError, match="rooted at 5"):
            call()
