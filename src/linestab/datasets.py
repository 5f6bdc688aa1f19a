"""Bundled arrangement data and simple constructed families."""

from __future__ import annotations

import importlib.resources
import itertools

from linestab.combinatorics import (
    LineCombinatorics,
    parse_combinatorics,
    parse_equations,
)


def data_text(name: str) -> str:
    """Raw text of a bundled data file, e.g. data_text("maclane.json")."""
    return (importlib.resources.files("linestab") / "data" / name).read_text()


def maclane() -> LineCombinatorics:
    return parse_combinatorics(data_text("maclane.json"))


def quadruplet() -> LineCombinatorics:
    return parse_combinatorics(data_text("quadruplet.json"))


def rybnikov() -> LineCombinatorics:
    return parse_combinatorics(data_text("rybnikov.json"))


def maclane_equations():
    return parse_equations(data_text("maclane_equations.json"))


def quadruplet_equations():
    return parse_equations(data_text("quadruplet_equations.json"))


def generic(n_lines: int) -> LineCombinatorics:
    """n lines in general position: every intersection is a double point."""
    points = [
        [a, b] for a in range(n_lines) for b in range(a + 1, n_lines)
    ]
    return LineCombinatorics(
        n_lines=n_lines, points=tuple(tuple(p) for p in points)
    )


def _divide(a: list[int], b: list[int]) -> list[int]:
    """a / b for integer polynomials, coefficients ascending, b monic and
    dividing a exactly."""
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for i in reversed(range(len(q))):
        q[i] = c = a[i + len(b) - 1]
        for k, y in enumerate(b):
            a[i + k] -= c * y
    return q


def _cyclotomic(n: int) -> list[int]:
    """Coefficients of the cyclotomic polynomial Φ_n, ascending: x^n - 1
    divided by Φ_d for every proper divisor d of n."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _divide(poly, _cyclotomic(d))
    return poly


def _check_ceva(n: int) -> None:
    if n < 2:
        raise ValueError(f"Ceva(n) needs n >= 2, got {n}")


def ceva(n: int) -> LineCombinatorics:
    """The Ceva (Fermat) arrangement of 3n lines: lines i, n + i and 2n + i
    are x - ζ^i y, y - ζ^i z and z - ζ^i x, ζ a primitive n-th root of
    unity.  Its points are the n^2 triple points {a, n + b, 2n + c} with
    a + b + c = 0 mod n and three n-fold points, one per pencil."""
    _check_ceva(n)
    triples = [
        (a, n + b, 2 * n + c)
        for a, b, c in itertools.product(range(n), repeat=3)
        if (a + b + c) % n == 0
    ]
    pencils = [tuple(range(k * n, (k + 1) * n)) for k in range(3)]
    return LineCombinatorics(n_lines=3 * n, points=tuple(sorted(triples + pencils)))


def ceva_equations(n: int):
    """(lines, minpoly) of ceva(n) in the equation format: minpoly is Φ_n,
    and ζ^i is written as the unreduced power w^i."""
    _check_ceva(n)
    minus = [[0] * i + [-1] for i in range(n)]  # -w^i
    lines = (
        [[[1], minus[i], []] for i in range(n)]
        + [[[], [1], minus[i]] for i in range(n)]
        + [[minus[i], [], [1]] for i in range(n)]
    )
    return lines, _cyclotomic(n)
