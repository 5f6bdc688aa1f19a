"""Line combinatorics and their decorated incidence graphs.

A line combinatorics records which lines of an arrangement pass through
which intersection points.  Two graphs are built from it:

* the reduced graph: one vertex per line and per point of multiplicity > 2,
  with line-point edges for those incidences plus one line-line edge per
  double point, and Euler decorations attached to every vertex;
* the full graph: one vertex per line and per point (any multiplicity), with
  line-point edges only and no decorations.

This module also hosts the exact projective-geometry oracle
intersect_equations(), which recovers a combinatorics from line equations
with coefficients in a number field Q[w]/(minpoly), minpoly irreducible
over Q.  Three lines are concurrent iff the determinant of their equations
vanishes, so the oracle uses ring arithmetic only, plus one unit check: a
zero divisor on a line or an intersection point means minpoly is reducible.
"""

from __future__ import annotations

import enum
import json
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence


class ValidationError(ValueError):
    """Input is well-formed but semantically invalid."""


class NotSupportedError(ValueError):
    """Valid input outside the supported family (e.g. disconnected graph)."""


def load_json(text: bytes | str):
    """Decode a JSON document; bytes are read as UTF-8.

    A document nested too deeply for the decoder raises ValueError, like
    any other malformed document, instead of RecursionError.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON document is nested too deeply") from None


# ----------------------------------------------------------------------------
# Combinatorics
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class LineCombinatorics:
    """Lines 0..n_lines-1 plus the family of multi-line intersection points.

    Every point is a sorted tuple of at least two distinct line indices, and
    every unordered pair of lines lies in exactly one point.
    """

    n_lines: int
    points: tuple[tuple[int, ...], ...]

    def multiplicity(self, point_id: int) -> int:
        return len(self.points[point_id])

    def points_of_line(self, line: int) -> list[int]:
        return [j for j, p in enumerate(self.points) if line in p]

    def double_points(self) -> list[int]:
        return [j for j, p in enumerate(self.points) if len(p) == 2]

    def heavy_points(self) -> list[int]:
        """Point ids of multiplicity greater than two."""
        return [j for j, p in enumerate(self.points) if len(p) > 2]


def _as_combinatorics(n_lines, points_data) -> LineCombinatorics:
    if not isinstance(n_lines, int) or isinstance(n_lines, bool) or n_lines < 0:
        raise ValidationError(f"n_lines must be a nonnegative integer, got {n_lines!r}")
    norm: list[tuple[int, ...]] = []
    for raw in points_data:
        for line in raw:
            if not isinstance(line, int) or isinstance(line, bool):
                raise ValidationError(f"line index {line!r} is not an integer")
        pt = tuple(sorted(raw))
        if len(pt) < 2:
            raise ValidationError(f"point {list(raw)} has fewer than 2 lines")
        if len(set(pt)) != len(pt):
            raise ValidationError(f"point {list(raw)} repeats a line index")
        for line in pt:
            if not 0 <= line < n_lines:
                raise ValidationError(
                    f"line index {line} out of range for {n_lines} lines"
                )
        norm.append(pt)
    seen: dict[tuple[int, int], int] = {}
    for j, pt in enumerate(norm):
        for a in range(len(pt)):
            for b in range(a + 1, len(pt)):
                pair = (pt[a], pt[b])
                if pair in seen:
                    raise ValidationError(
                        f"line pair {pair} lies in two points ({seen[pair]} and {j})"
                    )
                seen[pair] = j
    for a in range(n_lines):
        for b in range(a + 1, n_lines):
            if (a, b) not in seen:
                raise ValidationError(f"line pair ({a}, {b}) lies in no point")
    return LineCombinatorics(n_lines=n_lines, points=tuple(norm))


def parse_combinatorics(text: bytes | str) -> LineCombinatorics:
    """Parse and validate a combinatorics JSON document.

    Expected shape: {"n_lines": int, "points": [[int, ...], ...]}.
    Raises json.JSONDecodeError or ValueError for malformed documents and
    ValidationError for semantically invalid ones.
    """
    doc = load_json(text)
    if not isinstance(doc, dict) or "n_lines" not in doc or "points" not in doc:
        raise ValueError('expected a JSON object with "n_lines" and "points"')
    if not isinstance(doc["points"], list) or not all(
        isinstance(p, list) for p in doc["points"]
    ):
        raise ValueError('"points" must be a list of lists')
    return _as_combinatorics(doc["n_lines"], doc["points"])


# ----------------------------------------------------------------------------
# Decorated incidence graphs
# ----------------------------------------------------------------------------


class GraphKind(enum.Enum):
    REDUCED = "reduced"
    FULL = "full"


@dataclass(frozen=True)
class DecoratedGraph:
    """Incidence graph with canonical vertex numbering and orientations.

    Vertices are numbered lines first (0..n_lines-1) then the selected points
    in ascending point-id order.  Labels are "L<i>" / "P<j>" with j the point's
    index in the combinatorics.  Edges are stored as (v, w) with v < w, sorted;
    the canonical orientation runs from the lower to the higher vertex index.
    euler is None on full graphs.
    """

    kind: GraphKind
    combinatorics: LineCombinatorics = field(repr=False)
    point_ids: tuple[int, ...]
    labels: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    neighbours: tuple[tuple[int, ...], ...]
    euler: tuple[int, ...] | None

    def __post_init__(self):
        object.__setattr__(
            self, "_edge_pos", {e: i for i, e in enumerate(self.edges)}
        )
        object.__setattr__(
            self, "_label_pos", {lab: i for i, lab in enumerate(self.labels)}
        )

    @property
    def n_lines(self) -> int:
        return self.combinatorics.n_lines

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def is_line(self, v: int) -> bool:
        return v < self.n_lines

    def multiplicity(self, v: int) -> int:
        return len(self.neighbours[v])

    def delta(self, v: int, w: int) -> int:
        """Orientation sign of the edge between v and w: +1 iff v < w."""
        if (min(v, w), max(v, w)) not in self._edge_pos:
            raise ValueError(f"no edge between vertices {v} and {w}")
        return 1 if v < w else -1

    def edge_position(self, v: int, w: int) -> int:
        return self._edge_pos[(min(v, w), max(v, w))]

    def vertex_by_label(self, label: str) -> int:
        try:
            return self._label_pos[label]
        except KeyError:
            raise ValidationError(f"unknown vertex label {label!r}") from None


def build_graph(c: LineCombinatorics, kind: GraphKind) -> DecoratedGraph:
    """Construct the reduced or full incidence graph of a combinatorics.

    Raises NotSupportedError if the graph is empty, is disconnected or has
    a vertex with fewer than two neighbours; warns about reduced-graph
    vertices of degree two (boundary cases of the supported family).
    """
    if kind is GraphKind.REDUCED:
        point_ids = tuple(c.heavy_points())
    else:
        point_ids = tuple(range(len(c.points)))
    n = c.n_lines
    vertex_of_point = {j: n + k for k, j in enumerate(point_ids)}
    labels = tuple(f"L{i}" for i in range(n)) + tuple(f"P{j}" for j in point_ids)

    edge_set: set[tuple[int, int]] = set()
    for j in point_ids:
        pv = vertex_of_point[j]
        for line in c.points[j]:
            edge_set.add((min(line, pv), max(line, pv)))
    if kind is GraphKind.REDUCED:
        for j in c.double_points():
            a, b = c.points[j]
            edge_set.add((a, b))
    edges = tuple(sorted(edge_set))

    count = len(labels)
    if not count:
        raise NotSupportedError("graph has no vertices")
    nbr: list[list[int]] = [[] for _ in range(count)]
    for v, w in edges:
        nbr[v].append(w)
        nbr[w].append(v)
    neighbours = tuple(tuple(sorted(ns)) for ns in nbr)

    lonely = [labels[v] for v in range(count) if len(neighbours[v]) < 2]
    if lonely:
        raise NotSupportedError(f"graph has dead-end vertices: {', '.join(lonely)}")
    seen = {0}
    queue = [0]
    while queue:
        v = queue.pop()
        for w in neighbours[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    if len(seen) != count:
        raise NotSupportedError("graph is disconnected")

    euler: tuple[int, ...] | None = None
    if kind is GraphKind.REDUCED:
        heavy = set(point_ids)
        eps = []
        for i in range(n):
            b = sum(1 for j in heavy if i in c.points[j])
            eps.append(1 - b)
        eps.extend([-1] * len(point_ids))
        euler = tuple(eps)
        thin = [labels[v] for v in range(count) if len(neighbours[v]) == 2]
        if thin:
            warnings.warn(
                f"reduced graph has degree-2 vertices ({', '.join(thin)}); "
                "results are exact but the arrangement is a boundary case",
                stacklevel=2,
            )

    return DecoratedGraph(
        kind=kind,
        combinatorics=c,
        point_ids=point_ids,
        labels=labels,
        edges=edges,
        neighbours=neighbours,
        euler=euler,
    )


def euler_number(g: DecoratedGraph, v: int) -> int:
    """Decoration of a reduced-graph vertex: 1-b(L) for lines, -1 for points."""
    if g.euler is None:
        raise ValueError("euler numbers are only defined on the reduced graph")
    return g.euler[v]


# ----------------------------------------------------------------------------
# Exact line intersection over a number field
# ----------------------------------------------------------------------------


class NumberField:
    """Q[w] / (minpoly), with elements as tuples of rationals.

    minpoly lists integer coefficients in ascending powers of w; it need not
    be monic.  Use [0, 1] (the polynomial w) for plain rational arithmetic.
    It offers ring operations only, plus check_unit, which tells a unit
    from a zero divisor.
    """

    def __init__(self, minpoly: Sequence[int]):
        coeffs = [Fraction(c) for c in minpoly]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if len(coeffs) < 2:
            raise ValidationError("minimal polynomial must have degree >= 1")
        self.minpoly = tuple(coeffs)
        self.degree = len(self.minpoly) - 1

    def element(self, poly: Sequence) -> tuple:
        """The element represented by a polynomial, ascending in powers of w."""
        return tuple(_poly_rem(list(poly) + [0] * self.degree, self.minpoly))

    def cross(self, a, b):
        """a × b: the point on lines a and b, zero iff they are proportional."""
        return tuple(
            self.element(
                [x - y for x, y in zip(_poly_mul(a[i], b[j]), _poly_mul(a[j], b[i]))]
            )
            for i, j in ((1, 2), (2, 0), (0, 1))
        )

    def dot(self, a, b):
        """a · b, reduced once: zero iff point a lies on line b."""
        return self.element([sum(c) for c in zip(*map(_poly_mul, a, b))])

    def check_unit(self, a) -> None:
        """Raise ValidationError if a is a zero divisor: gcd(minpoly, a) ≠ 1."""
        r0, r1 = self.minpoly, [Fraction(c) for c in a]
        while any(r1):
            while not r1[-1]:
                r1.pop()
            r0, r1 = r1, _poly_rem(r0, r1)
        if len(r0) > 1:
            raise ValidationError(
                "minimal polynomial is reducible: zero divisor encountered"
            )


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _poly_rem(a, m):
    """a mod m, as len(m) - 1 coefficients; m's last coefficient is nonzero."""
    a = list(a)
    for k in range(len(a) - len(m), -1, -1):
        c = a[k + len(m) - 1] / m[-1]
        if c:
            for i, x in enumerate(m):
                a[k + i] -= c * x
    return a[: len(m) - 1]


def _lead(vec):
    """The first nonzero coordinate of a projective vector, or None."""
    return next((c for c in vec if any(c)), None)


def _is_int_list(x) -> bool:
    return isinstance(x, (list, tuple)) and all(
        isinstance(v, int) and not isinstance(v, bool) for v in x
    )


def _check_equation_shapes(lines, minpoly) -> None:
    if not _is_int_list(minpoly) or not minpoly:
        raise ValidationError(f"minpoly must be a non-empty list of integers, got {minpoly!r}")
    if not isinstance(lines, (list, tuple)):
        raise ValidationError("lines must be a list of line equations")
    for idx, line in enumerate(lines):
        if not (
            isinstance(line, (list, tuple))
            and len(line) == 3
            and all(_is_int_list(c) for c in line)
        ):
            raise ValidationError(
                f"line {idx} needs exactly 3 coefficient vectors of integers"
            )


def intersect_equations(
    lines: Sequence[Sequence[Sequence[int]]], minpoly: Sequence[int]
) -> LineCombinatorics:
    """Combinatorics of an arrangement given exact projective line equations.

    Each line is three coefficient vectors (for x, y, z), each a list of
    integer coefficients in ascending powers of w, where w is a root of
    minpoly.  Lines i and j meet at p = L_i × L_j, and line k passes through
    p iff p · L_k = 0.  A point is found once, at its first pair (i, j), by
    testing the lines k > j whose pair (i, k) is on no point yet; the
    returned points are sorted lexicographically.  A zero divisor as the
    first nonzero coordinate of a line or of some L_i × L_j raises
    ValidationError: minpoly must be irreducible over Q.
    """
    _check_equation_shapes(lines, minpoly)
    field = NumberField(minpoly)
    vecs = []
    for idx, line in enumerate(lines):
        vec = tuple(field.element(c) for c in line)
        lead = _lead(vec)
        if lead is None:
            raise ValidationError(f"line {idx} has all-zero coefficients")
        field.check_unit(lead)
        vecs.append(vec)

    n = len(vecs)
    met = [set() for _ in range(n)]  # met[i]: lines on a point found with i
    points = []
    leads = set()
    for j in range(n):
        for i in range(j):
            p = field.cross(vecs[i], vecs[j])
            lead = _lead(p)
            if lead is None:
                raise ValidationError(f"lines {i} and {j} are equal")
            leads.add(lead)
            if j in met[i]:
                continue
            point = [i, j]
            for k in range(j + 1, n):
                if k not in met[i] and not any(field.dot(p, vecs[k])):
                    point.append(k)
            for line in point:
                met[line].update(point)
            points.append(point)
    # Every equal pair is reported before any zero divisor on a point.
    for lead in leads:
        field.check_unit(lead)
    return _as_combinatorics(n, sorted(points))


def parse_equations(text: bytes | str):
    """Parse {"minpoly": [...], "lines": [[[...],[...],[...]], ...]} JSON."""
    doc = load_json(text)
    if not isinstance(doc, dict) or "minpoly" not in doc or "lines" not in doc:
        raise ValueError('expected a JSON object with "minpoly" and "lines"')
    _check_equation_shapes(doc["lines"], doc["minpoly"])
    return doc["lines"], doc["minpoly"]
