"""Tests for combinatorics parsing, graph construction and the equation oracle."""

import itertools
import json
import random
import time
import tracemalloc
import warnings

import pytest
import sympy

from linestab import datasets
from linestab.combinatorics import (
    DecoratedGraph,
    GraphKind,
    LineCombinatorics,
    NotSupportedError,
    ValidationError,
    build_graph,
    intersect_equations,
    load_json,
    parse_combinatorics,
    parse_equations,
)
from linestab.inclusion import BASIS_TAG, parse_inclusion
from linestab.orderings import parse_ordering


def test_parse_quadruplet_list():
    c = datasets.quadruplet()
    assert c.n_lines == 11
    assert len(c.points) == 26
    mults = sorted(len(p) for p in c.points)
    assert mults.count(2) == 13 and mults.count(3) == 12 and mults.count(4) == 1


def test_parse_accepts_bytes_and_unsorted_points():
    c = parse_combinatorics(b'{"n_lines": 3, "points": [[1,0],[2,0],[2,1]]}')
    assert c.points == ((0, 1), (0, 2), (1, 2))


def test_parse_rejects_pair_twice():
    with pytest.raises(ValidationError, match="two points"):
        parse_combinatorics('{"n_lines": 2, "points": [[0,1],[0,1]]}')


def test_parse_rejects_short_point():
    with pytest.raises(ValidationError, match="fewer than 2"):
        parse_combinatorics('{"n_lines": 3, "points": [[0]]}')


def test_parse_rejects_out_of_range():
    with pytest.raises(ValidationError, match="out of range"):
        parse_combinatorics('{"n_lines": 2, "points": [[0,5]]}')


def test_parse_rejects_non_integer_line():
    for entry in ('"1"', "[1]", "true", "1.0"):
        with pytest.raises(ValidationError, match="not an integer"):
            parse_combinatorics(
                '{"n_lines": 3, "points": [[0, %s], [1, 2], [0, 2]]}' % entry
            )


def test_parse_rejects_uncovered_pair():
    with pytest.raises(ValidationError, match="no point"):
        parse_combinatorics('{"n_lines": 3, "points": [[0,1]]}')
    # A declared line count costs nothing until lines are met.
    with pytest.raises(ValidationError, match=r"\(0, 1\) lies in no point"):
        parse_combinatorics('{"n_lines": 1000000000, "points": [[0, 999999999]]}')


def _reference_pairs(n_lines, points):
    """The pair check as a scan of the pairs of each point, points in
    order, then of all pairs: the specification of the messages, quadratic
    in the largest point."""
    seen = {}
    for j, pt in enumerate(points):
        for a in range(len(pt)):
            for b in range(a + 1, len(pt)):
                pair = (pt[a], pt[b])
                if pair in seen:
                    return f"line pair {pair} lies in two points ({seen[pair]} and {j})"
                seen[pair] = j
    for a in range(n_lines):
        for b in range(a + 1, n_lines):
            if (a, b) not in seen:
                return f"line pair ({a}, {b}) lies in no point"
    return None


def _linear_space(rng):
    """A random linear space on up to 9 lines, points shuffled: up to four
    points of 3-5 lines on disjoint pairs, then a double point on every
    pair left."""
    n = rng.randint(0, 9)
    covered, points = set(), []
    for _ in range(rng.randint(0, 4)):
        pt = rng.sample(range(n), min(n, rng.randint(3, 5)))
        pairs = set(itertools.combinations(sorted(pt), 2))
        if len(pt) > 1 and not pairs & covered:
            covered |= pairs
            points.append(pt)
    points += [list(pair) for pair in itertools.combinations(range(n), 2) if pair not in covered]
    rng.shuffle(points)
    return n, points


def _seeded_points(rng):
    """A random linear space, then up to three edits that may repeat or
    uncover a pair."""
    n, points = _linear_space(rng)
    for _ in range(rng.randint(0, 3) if points else 0):
        edit, j = rng.randrange(4), rng.randrange(len(points))
        if edit == 0 and len(points) > 1:
            del points[j]
        elif edit == 1 and n > 1:
            points.insert(j, rng.sample(range(n), rng.randint(2, min(n, 4))))
        elif edit == 2 and len(points[j]) < n:
            points[j].append(rng.choice([x for x in range(n) if x not in points[j]]))
        elif edit == 3 and len(points[j]) > 2:
            points[j].remove(rng.choice(points[j]))
    return n, points


def test_pair_check_matches_the_reference_scan():
    rng = random.Random(2026)
    seen = set()
    for _ in range(3000):
        n, points = _seeded_points(rng)
        expected = _reference_pairs(n, [tuple(sorted(p)) for p in points])
        try:
            parse_combinatorics(json.dumps({"n_lines": n, "points": points}))
            got = None
        except ValidationError as exc:
            got = str(exc)
        assert got == expected, (n, points)
        seen.add(expected and ("two points" in expected))
    assert seen == {None, True, False}  # valid, a repeated pair, a missing pair


def test_pair_check_memory_is_linear_in_the_file():
    """A 3,000-line pencil is one point of 4.5 million pairs: a pair table
    would hold all of them, incidence lists hold 3,000 entries."""
    text = json.dumps({"n_lines": 3000, "points": [list(range(3000))]})
    tracemalloc.start()
    try:
        c = parse_combinatorics(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(c.points) == 1
    assert peak < 16 * 2**20


def test_near_pencil_is_validated_and_built_in_linear_time():
    """A near-pencil is one point through lines 0..n-2 and a double point
    (i, n - 1) for each.  Every line meets n - 1 others, most of them over
    the large point; validation sets that point aside and the graph is
    built in one pass over the points, so neither takes a pass per line."""
    n = 20_000
    points = [list(range(n - 1))] + [[i, n - 1] for i in range(n - 1)]
    text = json.dumps({"n_lines": n, "points": points})
    start = time.perf_counter()
    g = build_graph(parse_combinatorics(text), GraphKind.REDUCED)
    assert time.perf_counter() - start < 5.0
    assert (g.vertex_count, g.edge_count) == (n + 1, 2 * (n - 1))
    assert g.euler == (0,) * (n - 1) + (1, -1)
    assert len(g.warnings) == 1


def test_parse_rejects_malformed_json():
    with pytest.raises(json.JSONDecodeError):
        parse_combinatorics("{not json")
    with pytest.raises(ValueError):
        parse_combinatorics('{"n_lines": 2}')


# ----------------------------------------------------------------------------
# graphs
# ----------------------------------------------------------------------------


def test_quadruplet_reduced_graph_counts():
    g = build_graph(datasets.quadruplet(), GraphKind.REDUCED)
    assert g.vertex_count == 24  # 11 lines + 13 points of multiplicity > 2
    assert g.edge_count == 53  # 12*3 + 4 + 13
    assert g.labels[:3] == ("L0", "L1", "L2")
    assert all(lab.startswith("P") for lab in g.labels[11:])


def test_quadruplet_full_graph_counts():
    g = build_graph(datasets.quadruplet(), GraphKind.FULL)
    assert g.vertex_count == 37
    assert g.edge_count == 66  # 12*3 + 4 + 13*2
    assert g.euler is None


def test_generic_four_lines_is_k4():
    g = build_graph(datasets.generic(4), GraphKind.REDUCED)
    assert g.vertex_count == 4
    assert g.edge_count == 6
    assert set(g.edges) == {(a, b) for a in range(4) for b in range(a + 1, 4)}
    assert g.euler == (1, 1, 1, 1)


def test_euler_numbers_quadruplet():
    g = build_graph(datasets.quadruplet(), GraphKind.REDUCED)
    # L0 lies on points {0,1,2}, {0,4,5}, {0,6,7}, {0,8,9,10}: four heavy points
    assert g.euler[0] == -3
    for v in range(11, g.vertex_count):
        assert g.euler[v] == -1


def test_euler_requires_reduced():
    g = build_graph(datasets.generic(4), GraphKind.FULL)
    assert g.euler is None


def test_delta_orientation():
    g = build_graph(datasets.generic(4), GraphKind.REDUCED)
    assert g.delta(0, 1) == 1
    assert g.delta(1, 0) == -1
    with pytest.raises(ValueError):
        build_graph(datasets.quadruplet(), GraphKind.REDUCED).delta(0, 1)


def test_neighbours_sorted_and_consistent():
    g = build_graph(datasets.quadruplet(), GraphKind.REDUCED)
    for v in range(g.vertex_count):
        ns = g.neighbours[v]
        assert list(ns) == sorted(ns)
        for w in ns:
            assert v in g.neighbours[w]
    # line L0 meets heavy points 0, 2, 3, 4 and line L3 at the double point [0,3]
    assert g.neighbours[0] == (3, g.vertex_by_label("P0"), g.vertex_by_label("P2"),
                               g.vertex_by_label("P3"), g.vertex_by_label("P4"))


def test_dead_end_rejected():
    with pytest.raises(NotSupportedError, match="dead-end"):
        build_graph(parse_combinatorics('{"n_lines": 2, "points": [[0,1]]}'),
                    GraphKind.REDUCED)


def test_degree_two_warns():
    """The degree-2 message is data on the graph, not a Python warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = build_graph(datasets.generic(3), GraphKind.REDUCED)
    assert g.warnings == (
        "reduced graph has degree-2 vertices (L0, L1, L2); "
        "results are exact but the arrangement is a boundary case",)
    assert build_graph(datasets.generic(3), GraphKind.FULL).warnings == ()


def _reference_build_graph(c, kind):
    """build_graph with a scan of the points per selection and, for each
    line, a test of every heavy point: the specification of the graphs and
    of the NotSupportedError messages."""
    if kind is GraphKind.REDUCED:
        point_ids = tuple(j for j, p in enumerate(c.points) if len(p) > 2)
    else:
        point_ids = tuple(range(len(c.points)))
    n = c.n_lines
    vertex_of_point = {j: n + k for k, j in enumerate(point_ids)}
    labels = tuple(f"L{i}" for i in range(n)) + tuple(f"P{j}" for j in point_ids)
    edge_set = set()
    for j in point_ids:
        pv = vertex_of_point[j]
        for line in c.points[j]:
            edge_set.add((min(line, pv), max(line, pv)))
    if kind is GraphKind.REDUCED:
        for p in c.points:
            if len(p) == 2:
                edge_set.add(p)
    edges = tuple(sorted(edge_set))
    count = len(labels)
    if not count:
        raise NotSupportedError("graph has no vertices")
    nbr = [[] for _ in range(count)]
    for v, w in edges:
        nbr[v].append(w)
        nbr[w].append(v)
    neighbours = tuple(tuple(sorted(ns)) for ns in nbr)
    lonely = [labels[v] for v in range(count) if len(neighbours[v]) < 2]
    if lonely:
        raise NotSupportedError(f"graph has dead-end vertices: {', '.join(lonely)}")
    seen, queue = {0}, [0]
    while queue:
        for w in neighbours[queue.pop()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    if len(seen) != count:
        raise NotSupportedError("graph is disconnected")
    euler, notes = None, ()
    if kind is GraphKind.REDUCED:
        euler = tuple(1 - sum(1 for j in point_ids if i in c.points[j]) for i in range(n))
        euler += (-1,) * len(point_ids)
        thin = [labels[v] for v in range(count) if len(neighbours[v]) == 2]
        if thin:
            notes = (f"reduced graph has degree-2 vertices ({', '.join(thin)}); "
                     "results are exact but the arrangement is a boundary case",)
    return DecoratedGraph(kind, c, point_ids, labels, edges, neighbours, euler, notes)


def _graph_or_error(build, c, kind):
    try:
        return build(c, kind)
    except NotSupportedError as exc:
        return str(exc)


def _differential_corpus():
    yield from (datasets.maclane(), datasets.quadruplet(), datasets.rybnikov())
    yield from (datasets.generic(n) for n in range(14))
    yield from (datasets.ceva(n) for n in range(2, 9))
    rng = random.Random(28)
    for _ in range(210):
        n, points = _linear_space(rng)
        yield parse_combinatorics(json.dumps({"n_lines": n, "points": points}))


def test_graphs_match_the_reference_build():
    """Graphs, warnings and NotSupportedError messages on the bundled
    inputs, generic(0..13), Ceva(2..8) and seeded linear spaces, whose
    points come in shuffled order and which may be disconnected or have
    dead ends."""
    errors = set()
    for c in _differential_corpus():
        for kind in GraphKind:
            expected = _graph_or_error(_reference_build_graph, c, kind)
            assert _graph_or_error(build_graph, c, kind) == expected, (c, kind)
            if isinstance(expected, str):
                errors.add(expected.split(":")[0])
    assert errors == {"graph has no vertices", "graph has dead-end vertices"}


@pytest.mark.parametrize("n", range(3, 9))
def test_ceva_euler_numbers_are_closed_form(n):
    """Each of Ceva(n)'s 3n lines lies on one pencil point of multiplicity
    n and on n triple points, so its Euler number is 1 - (n + 1) = -n; all
    n^2 + 3 points are heavy."""
    g = build_graph(datasets.ceva(n), GraphKind.REDUCED)
    assert g.euler == (-n,) * (3 * n) + (-1,) * (n * n + 3)


def test_full_graph_is_bipartite_line_point():
    g = build_graph(datasets.maclane(), GraphKind.FULL)
    for v, w in g.edges:
        assert g.is_line(v) != g.is_line(w)


# ----------------------------------------------------------------------------
# equation oracle
# ----------------------------------------------------------------------------


def test_maclane_oracle_matches_frozen_data():
    lines, minpoly = datasets.maclane_equations()
    assert intersect_equations(lines, minpoly) == datasets.maclane()


def test_quadruplet_oracle_matches_published_list():
    lines, minpoly = datasets.quadruplet_equations()
    assert intersect_equations(lines, minpoly) == datasets.quadruplet()


def test_maclane_line_profile():
    """Every MacLane line lies on exactly 3 triple points and 1 double."""
    c = datasets.maclane()
    for line in range(8):
        mults = sorted(len(p) for p in c.points if line in p)
        assert mults == [2, 3, 3, 3]


def test_oracle_rational_generic_lines():
    # x, y, z: a triangle of three double points
    lines = [[[1], [0], [0]], [[0], [1], [0]], [[0], [0], [1]]]
    c = intersect_equations(lines, [0, 1])
    assert c.n_lines == 3
    assert c.points == ((0, 1), (0, 2), (1, 2))
    # adding x+y+z keeps everything generic
    c4 = intersect_equations(lines + [[[1], [1], [1]]], [0, 1])
    assert len(c4.points) == 6 and all(len(p) == 2 for p in c4.points)


def test_oracle_concurrent_lines():
    # x, y, x+y all pass through (0,0,1); x+z generic against them
    lines = [[[1], [0], [0]], [[0], [1], [0]], [[1], [1], [0]], [[1], [0], [1]]]
    c = intersect_equations(lines, [0, 1])
    assert (0, 1, 2) in c.points


def test_oracle_rejects_duplicate_lines():
    with pytest.raises(ValidationError, match="equal"):
        intersect_equations([[[1], [0], [0]], [[2], [0], [0]]], [0, 1])


def test_oracle_scaled_field_coefficients():
    # w^2 x = w^2 x; scaling by a field unit is still the same line
    lines = [[[0, 0, 1], [0], [0]], [[0, 0, 2], [0], [0]]]
    with pytest.raises(ValidationError, match="equal"):
        intersect_equations(lines, [1, 1, 1])


@pytest.mark.parametrize(
    "lines, minpoly",
    [
        # w^2 = 1: a lone line that starts with the zero divisor w - 1
        ([[[-1, 1], [0], [1]]], [-1, 0, 1]),
        # both lines start with 1, but they meet at (1 - w : 1 : 0)
        ([[[0], [0], [1]], [[1], [-1, 1], [0]]], [-1, 0, 1]),
        # w^2 = 0: line 2 passes through (0 : 0 : 1), where lines 0 and 1
        # meet, but its own meet with line 0 is (0 : 0 : w)
        ([[[1], [0], [0]], [[0], [1], [0]], [[1], [0, 1], [0]]], [0, 0, 1]),
        # 4w^2 - 1 = (2w - 1)(2w + 1), not monic: a line that starts with
        # 2w + 1 written as a polynomial of degree 3
        ([[[1, 1, 0, 4], [1], [0]]], [-1, 0, 4]),
    ],
    ids=["line", "point", "point-off-first-pair", "non-monic-line"],
)
def test_oracle_rejects_zero_divisors(lines, minpoly):
    with pytest.raises(ValidationError, match="reducible"):
        intersect_equations(lines, minpoly)


def test_oracle_checks_only_the_leading_coordinates():
    # w^2 = 1 is reducible, yet x, y, z meet at units only
    triangle = [[[1], [0], [0]], [[0], [1], [0]], [[0], [0], [1]]]
    c = intersect_equations(triangle, [-1, 0, 1])
    assert c.points == ((0, 1), (0, 2), (1, 2))


W = sympy.Symbol("w")


def reference_combinatorics(lines, minpoly):
    """The combinatorics by sympy, or None if a line is zero or two are equal.

    Lines i, j and k are concurrent iff det(L_i, L_j, L_k) is zero modulo
    minpoly; a line is zero, and two lines are equal, iff the determinants
    they make with the coordinate axes all vanish.
    """
    def poly(c):
        return sympy.Poly(c[::-1] or [0], W, domain=sympy.QQ)

    rows = [[poly(c) for c in line] for line in lines]
    m = poly(minpoly)
    axes = [[poly([int(i == j)]) for j in range(3)] for i in range(3)]

    def vanishes(*three):
        (a, b, c), (d, e, f), (g, h, i) = three
        det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        return sympy.rem(det, m).is_zero

    pairs = list(itertools.combinations(range(len(rows)), 2))
    if any(all(vanishes(r, a, b) for a, b in itertools.combinations(axes, 2)) for r in rows):
        return None
    if any(all(vanishes(rows[i], rows[j], a) for a in axes) for i, j in pairs):
        return None
    points = {
        tuple(k for k in range(len(rows)) if k in (i, j) or vanishes(rows[i], rows[j], rows[k]))
        for i, j in pairs
    }
    return LineCombinatorics(len(rows), tuple(sorted(points)))


def random_lines(rng, minpoly, n):
    """n lines over Z[w] with coefficient lists of mixed lengths, up to degree
    deg(minpoly) + 2; some are w^e · L_a + t · L_b for earlier lines a and b,
    so that they pass through the meet of a and b."""
    lines = []
    for _ in range(n):
        if len(lines) >= 2 and rng.random() < 0.4:
            a, b = rng.sample(lines, 2)
            e, t = rng.randint(0, 2), rng.choice([-2, -1, 1, 3])
            lines.append([
                [x + t * y for x, y in itertools.zip_longest([0] * e + u, v, fillvalue=0)]
                for u, v in zip(a, b)
            ])
        else:
            lines.append([
                [rng.randint(-2, 2) for _ in range(rng.randint(0, len(minpoly) + 2))]
                for _ in range(3)
            ])
    return lines


@pytest.mark.parametrize(
    "minpoly", [[1, 1, 1], [1, 3, 4, 2, 1], [1, 1, 2], [-2, 0, 3]],
    ids=["w2+w+1", "quartic", "non-monic-2w2", "non-monic-3w2"],
)
def test_oracle_matches_a_sympy_reference(minpoly):
    rng = random.Random("reference/%s" % minpoly)
    concurrent = 0
    for _ in range(8):
        lines = random_lines(rng, minpoly, 6)
        expected = reference_combinatorics(lines, minpoly)
        if expected is None:
            with pytest.raises(ValidationError, match="equal|all-zero"):
                intersect_equations(lines, minpoly)
        else:
            assert intersect_equations(lines, minpoly) == expected
            concurrent += any(len(p) > 2 for p in expected.points)
    assert concurrent


@pytest.mark.parametrize("n", range(3, 9))
def test_oracle_recovers_ceva(n):
    """datasets.ceva_equations(n) meet in datasets.ceva(n): n^2 triple points
    {a, n + b, 2n + c} with a + b + c = 0 mod n and three n-fold points."""
    expected = datasets.ceva(n)
    assert len(expected.points) == n * n + 3
    assert sorted(map(len, expected.points)) == [3] * (n * n) + [n] * 3
    assert intersect_equations(*datasets.ceva_equations(n)) == expected


def test_ceva_minpoly_is_the_cyclotomic_polynomial():
    """The standard-library Φ_n of datasets against sympy's, prime powers
    and products of several primes included."""
    for n in range(2, 40):
        lines, minpoly = datasets.ceva_equations(n)
        assert len(lines) == 3 * n
        assert minpoly == [int(c) for c in sympy.Poly(sympy.cyclotomic_poly(n, W)).all_coeffs()[::-1]]
    for n in (-1, 0, 1):
        with pytest.raises(ValueError, match="n >= 2"):
            datasets.ceva(n)
        with pytest.raises(ValueError, match="n >= 2"):
            datasets.ceva_equations(n)


@pytest.mark.parametrize(
    "doc",
    [
        {"minpoly": [1, 0, 1], "lines": 5},
        {"minpoly": [1, 0, 1], "lines": "xyz"},
        {"minpoly": [], "lines": []},
        {"minpoly": 3, "lines": []},
        {"minpoly": [1, True], "lines": []},
        {"minpoly": [1, 0.5], "lines": []},
        {"minpoly": [0, 1], "lines": [5]},
        {"minpoly": [0, 1], "lines": [[[1], [0]]]},
        {"minpoly": [0, 1], "lines": [[[1], [0], [0], [1]]]},
        {"minpoly": [0, 1], "lines": [[[1], 0, [0]]]},
        {"minpoly": [0, 1], "lines": [[[1], [False], [0]]]},
        {"minpoly": [0, 1], "lines": [[[1], ["2"], [0]]]},
        {"minpoly": [0, 1], "lines": [[[1], [0], [None]]]},
    ],
)
def test_equations_reject_malformed_shapes(doc):
    with pytest.raises(ValidationError):
        parse_equations(json.dumps(doc))
    with pytest.raises(ValidationError):
        intersect_equations(doc["lines"], doc["minpoly"])


NESTED = "[" * 100000 + "]" * 100000


def _k4():
    return build_graph(datasets.generic(4), GraphKind.REDUCED)


@pytest.mark.parametrize(
    "parse",
    [
        parse_combinatorics,
        parse_equations,
        lambda text: parse_ordering(text, _k4()),
        lambda text: parse_inclusion(text, _k4()),
    ],
    ids=["combinatorics", "equations", "ordering", "inclusion"],
)
@pytest.mark.parametrize("text", [NESTED, NESTED.encode()], ids=["str", "bytes"])
def test_deeply_nested_json_is_a_value_error(parse, text):
    with pytest.raises(ValueError, match="nested too deeply") as info:
        parse(text)
    assert type(info.value) is ValueError


K4_ORDER = {"order": {"L%d" % i: ["L%d" % j for j in range(4) if j != i] for i in range(4)}}
STRICT_DOCS = {
    "combinatorics": ({"n_lines": 3, "points": [[0, 1], [0, 2], [1, 2]]}, parse_combinatorics),
    "equations": (
        {"minpoly": [1, 1, 1], "lines": [[[1], [0], [0]], [[0], [1], [0]]]}, parse_equations
    ),
    "ordering": (K4_ORDER, lambda text: parse_ordering(text, _k4())),
    "inclusion": (
        {"cycles": 3, "matrix": [[0] * 4] * 3, "basis": BASIS_TAG, "ordering": K4_ORDER},
        lambda text: parse_inclusion(text, _k4()),
    ),
}


@pytest.mark.parametrize(
    "kind, key",
    [
        ("combinatorics", "n_lines"),
        ("equations", "lines"),
        ("ordering", "order"),
        ("ordering", "L0"),
        ("inclusion", "cycles"),
        ("inclusion", "L0"),  # in the embedded ordering
    ],
)
@pytest.mark.parametrize("flaw", ["repeat", "NaN", "Infinity", "-Infinity"])
def test_repeated_keys_and_non_json_constants_are_value_errors(kind, key, flaw):
    doc, parse = STRICT_DOCS[kind]
    text = json.dumps(doc)
    parse(text)
    member = '"%s": ' % key
    if flaw == "repeat":
        spliced, message = member + "0, " + member, "repeats the key %r" % key
    else:
        spliced, message = '"note": %s, ' % flaw + member, "%s is not a JSON number" % flaw
    with pytest.raises(ValueError, match=message) as info:
        parse(text.replace(member, spliced, 1))
    assert type(info.value) is ValueError


def test_repeated_key_is_found_in_linear_time():
    """The first key, in order of first occurrence, that repeats is named,
    and finding it in a wide object does not take a pass per key."""
    with pytest.raises(ValueError, match="repeats the key 'a'"):
        load_json('{"a": 1, "b": 2, "b": 3, "a": 4}')
    keys = ["k%d" % i for i in range(50_000)]
    text = "{%s}" % ", ".join('"%s": 0' % key for key in keys + keys[-1:])
    start = time.perf_counter()
    with pytest.raises(ValueError, match="repeats the key 'k49999'"):
        load_json(text)
    assert time.perf_counter() - start < 5.0
