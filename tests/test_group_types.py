"""Stabiliser group types checked by routes that share no code with the
elimination that computes them: ranks over F_p, and a closed form for the
generic arrangements."""

from math import comb

import pytest

from linestab import datasets
from linestab.combinatorics import GraphKind, build_graph
from linestab.exactalg import AbelianGroup
from linestab.stabiliser import stabiliser_relations

PRIMES = (2, 3, 5, 2**31 - 1)

ARRANGEMENTS = {
    "maclane": datasets.maclane,
    "quadruplet": datasets.quadruplet,
    "rybnikov": datasets.rybnikov,
    **{"ceva%d" % n: (lambda n=n: datasets.ceva(n)) for n in (3, 4, 5)},
    **{"generic%d" % n: (lambda n=n: datasets.generic(n)) for n in (6, 8, 10)},
}


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


def _type(c, kind):
    relations = stabiliser_relations(build_graph(c, kind))[2]
    group = AbelianGroup(relations.cols, relations)
    return relations, group.torsion, group.free_rank


@pytest.mark.parametrize("kind", list(GraphKind), ids=lambda k: k.value)
@pytest.mark.parametrize("name", sorted(ARRANGEMENTS))
def test_type_matches_the_ranks_mod_p(name, kind):
    """Z^n / L tensored with F_p has dimension n - rank_p(L), and for the
    type Z^f plus the Z/d it is f + #{d : p divides d}.  So every prime
    checks the free rank and the count of invariant factors it divides.
    Mod p cannot tell Z/4 from Z/2: both count once at p = 2, so a wrong
    power of a prime in a factor passes, but a lost or extra factor, or a
    wrong free rank, does not."""
    relations, torsion, free = _type(ARRANGEMENTS[name](), kind)
    for p in PRIMES:
        got = relations.cols - rank_mod(p, relations.entries)
        assert got == free + sum(d % p == 0 for d in torsion), p


@pytest.mark.parametrize("kind", list(GraphKind), ids=lambda k: k.value)
@pytest.mark.parametrize("n", range(3, 13))
def test_generic_type_is_free_of_rank_binomial(n, kind):
    """The stabiliser of generic(n), n lines with only double points, is
    Z^C(n - 1, 3) on both graphs.  This is an observation on n = 3..13, not
    a theorem, so it pins the elimination on a family where it must find
    no torsion and a free rank that grows as n^3."""
    _, torsion, free = _type(datasets.generic(n), kind)
    assert (torsion, free) == ((), comb(n - 1, 3))
