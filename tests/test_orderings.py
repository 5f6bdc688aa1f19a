"""Tests for graph orderings and permutation decomposition."""

import itertools

import pytest

from linestab import datasets
from linestab.combinatorics import GraphKind, ValidationError, build_graph
from linestab.orderings import (
    GraphOrdering,
    canonical_ordering,
    decompose_adjacent,
    parse_ordering,
)


def k4():
    return build_graph(datasets.generic(4), GraphKind.REDUCED)


def test_canonical_is_sorted():
    g = k4()
    o = canonical_ordering(g)
    assert o.order == g.neighbours


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
