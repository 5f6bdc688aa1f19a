"""Shared fixtures; the expensive stabiliser computations run once per session."""

import pytest

from linestab import datasets
from linestab.combinatorics import GraphKind, build_graph
from linestab.stabiliser import stabiliser


def reduced_graph(c):
    return build_graph(c, GraphKind.REDUCED)


@pytest.fixture(scope="session")
def k4_stab():
    return stabiliser(reduced_graph(datasets.generic(4)))


@pytest.fixture(scope="session")
def maclane_stab():
    return stabiliser(reduced_graph(datasets.maclane()))


@pytest.fixture(scope="session")
def quadruplet_stab():
    return stabiliser(reduced_graph(datasets.quadruplet()))
