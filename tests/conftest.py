"""Shared fixtures; the expensive stabiliser computations run once per session."""

import functools

import pytest

from linestab import datasets
from linestab.combinatorics import GraphKind, build_graph
from linestab.stabiliser import stabiliser


def reduced_graph(c):
    return build_graph(c, GraphKind.REDUCED)


def rank_mod(p, rows):
    """Rank over F_p of sparse integer rows {column: value}, by Gaussian
    elimination on the least remaining column of each row in turn."""
    pivots = {}  # column -> a row reduced mod p, 1 at that column, none left of it
    for row in rows:
        r = {k: x % p for k, x in row.items() if x % p}
        while r:
            j = min(r)
            pivot = pivots.get(j)
            if pivot is None:
                inverse = pow(r[j], -1, p)
                pivots[j] = {k: x * inverse % p for k, x in r.items()}
                break
            q = r[j]
            for k, x in pivot.items():
                y = (r.get(k, 0) - q * x) % p
                if y:
                    r[k] = y
                else:
                    r.pop(k, None)
    return len(pivots)


# The stabilisers the transition tests run on, by test id: "<name>_stab"
# is the reduced graph and "<name>_full_stab" the full graph.
TRANSITION_INPUTS = {
    "maclane_stab": (datasets.maclane, GraphKind.REDUCED),
    "quadruplet_stab": (datasets.quadruplet, GraphKind.REDUCED),
    "rybnikov_stab": (datasets.rybnikov, GraphKind.REDUCED),
    "maclane_full_stab": (datasets.maclane, GraphKind.FULL),
    "quadruplet_full_stab": (datasets.quadruplet, GraphKind.FULL),
    "rybnikov_full_stab": (datasets.rybnikov, GraphKind.FULL),
    **{
        "ceva%d%s_stab" % (n, suffix): (lambda n=n: datasets.ceva(n), kind)
        for n in (3, 4, 5)
        for suffix, kind in (("", GraphKind.REDUCED), ("_full", GraphKind.FULL))
    },
}


@functools.lru_cache(maxsize=None)
def transition_input(case):
    """The stabiliser named by a TRANSITION_INPUTS id, built once per session."""
    make, kind = TRANSITION_INPUTS[case]
    return stabiliser(build_graph(make(), kind))


@pytest.fixture(scope="session")
def k4_stab():
    return stabiliser(reduced_graph(datasets.generic(4)))


@pytest.fixture(scope="session")
def maclane_stab():
    return transition_input("maclane_stab")


@pytest.fixture(scope="session")
def quadruplet_stab():
    return transition_input("quadruplet_stab")
