"""Group types checked by routes that share no code with the elimination
that computes them: ranks over F_p for the stabiliser, the abelianised pi1
and the meridian groups, a closed form for the generic arrangements, and
the agreement of the reduced and full graphs."""

import functools
from math import comb

import pytest

from linestab import datasets
from linestab.combinatorics import GraphKind, build_graph
from linestab.exactalg import AbelianGroup
from linestab.graphhomology import cycle_basis, meridian_homology
from linestab.orderings import canonical_ordering
from linestab.pi1 import abelianise, pi1_presentation
from linestab.stabiliser import stabiliser_relations

from conftest import rank_mod

PRIMES = (2, 3, 5, 2**31 - 1)

ARRANGEMENTS = {
    "maclane": datasets.maclane,
    "quadruplet": datasets.quadruplet,
    "rybnikov": datasets.rybnikov,
    **{"ceva%d" % n: (lambda n=n: datasets.ceva(n)) for n in (3, 4, 5)},
    **{"generic%d" % n: (lambda n=n: datasets.generic(n)) for n in (6, 8, 10)},
}


def assert_ranks_mod_p(group):
    """group's type against n - rank_p(relations) at every prime."""
    for p in PRIMES:
        got = group.ambient_rank - rank_mod(p, group.relations.entries)
        assert got == group.free_rank + sum(d % p == 0 for d in group.torsion), p


def _stabiliser_group(c, kind):
    relations = stabiliser_relations(build_graph(c, kind))[2]
    return AbelianGroup(relations.cols, relations)


@functools.cache
def _named_group(name, kind):
    return _stabiliser_group(ARRANGEMENTS[name](), kind)


@pytest.mark.parametrize("kind", list(GraphKind), ids=lambda k: k.value)
@pytest.mark.parametrize("name", sorted(ARRANGEMENTS))
def test_type_matches_the_ranks_mod_p(name, kind):
    """Z^n / L tensored with F_p has dimension n - rank_p(L), and for the
    type Z^f plus the Z/d it is f + #{d : p divides d}.  So every prime
    checks the free rank and the count of invariant factors it divides.
    Mod p cannot tell Z/4 from Z/2: both count once at p = 2, so a wrong
    power of a prime in a factor passes, but a lost or extra factor, or a
    wrong free rank, does not."""
    assert_ranks_mod_p(_named_group(name, kind))


@pytest.mark.parametrize("name", sorted(ARRANGEMENTS))
def test_reduced_and_full_graphs_give_one_type(name):
    """The stabiliser has the same type on the reduced and the full graph.
    This is an observed invariant, not a theorem: it held on every input
    measured (generic(4..16), Ceva(3..8) and the bundled goldens).  A
    counterexample would be a finding about the construction, not a
    reason to loosen this test."""
    groups = [_named_group(name, kind) for kind in GraphKind]
    types = {(group.torsion, group.free_rank) for group in groups}
    assert len(types) == 1, types


@pytest.mark.parametrize("name", ["maclane", "quadruplet", "rybnikov"])
def test_abelianised_pi1_matches_the_ranks_mod_p(name):
    """The same identity on the abelianised presentation of pi1, whose
    relations are the exponent sums of the relators."""
    g = build_graph(ARRANGEMENTS[name](), GraphKind.REDUCED)
    assert_ranks_mod_p(abelianise(pi1_presentation(g, cycle_basis(g), canonical_ordering(g))))


@pytest.mark.parametrize("kind", list(GraphKind), ids=lambda k: k.value)
@pytest.mark.parametrize("name", sorted(ARRANGEMENTS))
def test_meridian_group_matches_the_ranks_mod_p(name, kind):
    """The same identity on the meridian group of each graph."""
    assert_ranks_mod_p(meridian_homology(build_graph(ARRANGEMENTS[name](), kind)).group)


@pytest.mark.parametrize("kind", list(GraphKind), ids=lambda k: k.value)
@pytest.mark.parametrize("n", range(3, 13))
def test_generic_type_is_free_of_rank_binomial(n, kind):
    """The stabiliser of generic(n), n lines with only double points, is
    Z^C(n - 1, 3) on both graphs.  This is an observation on n = 3..13, not
    a theorem, so it pins the elimination on a family where it must find
    no torsion and a free rank that grows as n^3."""
    group = _stabiliser_group(datasets.generic(n), kind)
    assert (group.torsion, group.free_rank) == ((), comb(n - 1, 3))
