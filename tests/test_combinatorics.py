"""Tests for combinatorics parsing, graph construction and the equation oracle."""

import json

import pytest

from linestab import datasets
from linestab.combinatorics import (
    GraphKind,
    NotSupportedError,
    ValidationError,
    build_graph,
    euler_number,
    intersect_equations,
    parse_combinatorics,
    parse_equations,
)
from linestab.inclusion import parse_inclusion
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
    assert all(euler_number(g, v) == 1 for v in range(4))


def test_euler_numbers_quadruplet():
    g = build_graph(datasets.quadruplet(), GraphKind.REDUCED)
    # L0 lies on points {0,1,2}, {0,4,5}, {0,6,7}, {0,8,9,10}: four heavy points
    assert euler_number(g, 0) == -3
    for v in range(11, g.vertex_count):
        assert euler_number(g, v) == -1


def test_euler_requires_reduced():
    g = build_graph(datasets.generic(4), GraphKind.FULL)
    with pytest.raises(ValueError):
        euler_number(g, 0)


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
    with pytest.warns(UserWarning, match="degree-2"):
        build_graph(datasets.generic(3), GraphKind.REDUCED)


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
        mults = sorted(len(c.points[j]) for j in c.points_of_line(line))
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
    ],
    ids=["line", "point", "point-off-first-pair"],
)
def test_oracle_rejects_zero_divisors(lines, minpoly):
    with pytest.raises(ValidationError, match="reducible"):
        intersect_equations(lines, minpoly)


def test_oracle_checks_only_the_leading_coordinates():
    # w^2 = 1 is reducible, yet x, y, z meet at units only
    triangle = [[[1], [0], [0]], [[0], [1], [0]], [[0], [0], [1]]]
    c = intersect_equations(triangle, [-1, 0, 1])
    assert c.points == ((0, 1), (0, 2), (1, 2))


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
