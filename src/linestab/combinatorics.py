"""Line combinatorics and their decorated incidence graphs.

A line combinatorics records which lines of an arrangement pass through
which intersection points.  Two graphs are built from it:

* the reduced graph: one vertex per line and per point of multiplicity > 2,
  with line-point edges for those incidences plus one line-line edge per
  double point, and Euler decorations attached to every vertex;
* the full graph: one vertex per line and per point (any multiplicity), with
  line-point edges only and no decorations.

This module also hosts the exact oracle intersect_equations(), which
recovers a combinatorics from line equations over Q[w]/(minpoly), minpoly
irreducible over Q, not necessarily monic.  It computes on unreduced
polynomials in Z[w]: three lines are concurrent iff the pseudo-remainder
of their determinant by minpoly is zero, and a unit check rejects the zero
divisors of a reducible minpoly on a line or an intersection point.
"""

from __future__ import annotations

import enum
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Sequence


class ValidationError(ValueError):
    """Input is well-formed but semantically invalid."""


class NotSupportedError(ValueError):
    """Valid input outside the supported family (e.g. disconnected graph)."""


def _unique_keys(pairs) -> dict:
    doc = dict(pairs)
    if len(doc) < len(pairs):
        counts = Counter(key for key, _ in pairs)
        repeated = next(key for key in doc if counts[key] > 1)
        raise ValueError(f"JSON object repeats the key {repeated!r}")
    return doc


def _no_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def load_json(text: bytes | str):
    """Decode a JSON document (bytes as UTF-8).  Nesting too deep, a key
    repeated in one object, NaN and ±Infinity raise ValueError."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        return json.loads(text, object_pairs_hook=_unique_keys, parse_constant=_no_constant)
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
    _check_pairs(n_lines, norm)
    return LineCombinatorics(n_lines=n_lines, points=tuple(norm))


def _check_pairs(n_lines: int, points: list[tuple[int, ...]]) -> None:
    """Every line pair lies in exactly one point, or ValidationError names
    the pair that a scan of the pairs of each point, points in order, finds
    first: the repeat with the least (second point, pair), else the least
    missing pair.

    on[x] lists the points through line x in ascending order.  Line x meets
    sum(|p| - 1) lines over its points, and a pair repeats iff some line
    meets another twice.  A line on one point cannot, so a pencil costs
    O(n).  Otherwise x's largest point is set aside: if the lines over x's
    other points are distinct and meet the largest point's lines in x
    alone, x is passed.  That costs the other points' sizes plus one set
    per largest point, built once, so a near-pencil costs O(n) too.  Only
    a line that meets one twice is walked point by point, up to the first
    point where that happens.  Memory is linear in the file.
    """
    on: dict[int, list[int]] = {}
    for j, pt in enumerate(points):
        for line in pt:
            on.setdefault(line, []).append(j)
    lines_of: dict[int, set[int]] = {}  # point -> its lines, once it is set aside
    best = None  # (second point, pair, first point)
    for x, through in on.items():
        if len(through) < 2:
            continue
        sizes = [len(points[j]) for j in through]
        others = sum(sizes) - len(through)
        if others < n_lines:  # else x meets some line twice
            largest = max(sizes)
            big = through[sizes.index(largest)]
            rest = set(chain.from_iterable(points[j] for j in through if j != big))
            if len(rest) == others - largest + 2:
                if big not in lines_of:
                    lines_of[big] = set(points[big])
                if len(rest & lines_of[big]) == 1:
                    continue
        first: dict[int, int] = {}  # line -> the first point where x meets it
        for j in through:
            if best is not None and j > best[0]:
                break
            again = first.keys() & points[j]
            again.discard(x)
            if again:
                y = min(again)  # the least pair, whichever side of x it lies
                found = (j, (min(x, y), max(x, y)), first[y])
                best = found if best is None else min(best, found)
                break
            first.update(dict.fromkeys(points[j], j))
    if best is not None:
        j, pair, i = best
        raise ValidationError(f"line pair {pair} lies in two points ({i} and {j})")
    # No pair repeats, so line x meets all others iff sum(|p| - 1) == n - 1;
    # the first line short of that misses only lines above it.
    for x in range(n_lines):
        through = on.get(x, ())
        if sum(len(points[j]) - 1 for j in through) < n_lines - 1:
            met = set(chain.from_iterable(points[j] for j in through))
            y = x + 1
            while y in met:
                y += 1
            raise ValidationError(f"line pair ({x}, {y}) lies in no point")


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
    euler holds the Euler decorations, 1-b(L) for lines and -1 for points,
    and is None on full graphs.  warnings names boundary cases of the
    supported family, one message an entry.
    """

    kind: GraphKind
    combinatorics: LineCombinatorics = field(repr=False)
    point_ids: tuple[int, ...]
    labels: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    neighbours: tuple[tuple[int, ...], ...]
    euler: tuple[int, ...] | None
    warnings: tuple[str, ...] = ()

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

    @property
    def cycle_rank(self) -> int:
        """Rank of H1 of the (connected) graph: edges - vertices + 1."""
        return self.edge_count - self.vertex_count + 1

    def is_line(self, v: int) -> bool:
        return v < self.n_lines

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

    Each selected point is read once: point k of point_ids is vertex
    n + k, above every line, so its edges (line, n + k) are already
    ordered, and on the reduced graph a double point, a sorted pair, is
    its own line-line edge.  A line's Euler number is 1 minus the number
    of heavy points through it, counted in one pass over their lines.
    Raises NotSupportedError if the graph is empty, is disconnected or has
    a vertex with fewer than two neighbours.  Reduced-graph vertices of
    degree two (boundary cases of the supported family) are named in the
    graph's warnings.
    """
    n = c.n_lines
    reduced = kind is GraphKind.REDUCED
    point_ids = tuple(j for j, p in enumerate(c.points) if len(p) > 2 or not reduced)
    labels = tuple(f"L{i}" for i in range(n)) + tuple(f"P{j}" for j in point_ids)
    edge_list = [(line, n + k) for k, j in enumerate(point_ids) for line in c.points[j]]
    if reduced:
        edge_list.extend(p for p in c.points if len(p) == 2)
    edges = tuple(sorted(edge_list))

    count = len(labels)
    if not count:
        raise NotSupportedError("graph has no vertices")
    nbr: list[list[int]] = [[] for _ in range(count)]
    for v, w in edges:  # in sorted order, so each list comes out sorted
        nbr[v].append(w)
        nbr[w].append(v)
    neighbours = tuple(map(tuple, nbr))

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
    notes: tuple[str, ...] = ()
    if reduced:
        b = Counter(chain.from_iterable(c.points[j] for j in point_ids))
        euler = tuple(1 - b[i] for i in range(n)) + (-1,) * len(point_ids)
        thin = [labels[v] for v in range(count) if len(neighbours[v]) == 2]
        if thin:
            notes = (f"reduced graph has degree-2 vertices ({', '.join(thin)}); "
                     "results are exact but the arrangement is a boundary case",)

    return DecoratedGraph(
        kind=kind,
        combinatorics=c,
        point_ids=point_ids,
        labels=labels,
        edges=edges,
        neighbours=neighbours,
        euler=euler,
        warnings=notes,
    )


# ----------------------------------------------------------------------------
# Exact line intersection over a number field
# ----------------------------------------------------------------------------


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _prem(a, m):
    """Pseudo-remainder of a by m in Z[w] (m's last coefficient nonzero),
    divided by its content and trimmed: empty iff m divides a over Q."""
    a = list(a)
    while a and (len(a) >= len(m) or not a[-1]):
        c = a.pop()
        if c:
            a = [m[-1] * x for x in a]
            for i, x in enumerate(m[:-1], len(a) - len(m) + 1):
                a[i] -= c * x
    content = math.gcd(*a) or 1
    return [x // content for x in a]


def _cross(a, b):
    """a × b, coordinates of one length: the point on lines a and b, ≡ 0 iff a ∝ b."""
    return tuple(
        [x - y for x, y in zip(_poly_mul(a[i], b[j]), _poly_mul(a[j], b[i]))]
        for i, j in ((1, 2), (2, 0), (0, 1))
    )


def _dot(a, b):
    """a · b, a's and b's coordinates of one length: ≡ 0 iff point a is on line b."""
    return [sum(c) for c in zip(*map(_poly_mul, a, b))]


def _lead(vec, m):
    """The first coordinate of vec that is nonzero modulo m, or None."""
    return next((c for c in vec if _prem(c, m)), None)


def _check_unit(a, m) -> None:
    """Raise ValidationError unless gcd(m, a) = 1 in Q[w] (Euclid on pseudo-remainders)."""
    r0, r1 = m, _prem(a, m)
    while r1:
        r0, r1 = r1, _prem(r0, r1)
    if len(r0) > 1:
        raise ValidationError("minimal polynomial is reducible: zero divisor encountered")


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

    Each line is three coefficient vectors (for x, y, z), lists of integer
    coefficients of any length, ascending in powers of w, a root of minpoly.
    Lines i and j meet at p = L_i × L_j, and line k passes through p iff
    p · L_k = 0.  A point is found once, at its first pair (i, j), by
    testing the lines k > j whose pair (i, k) is on no point yet; the
    returned points are sorted lexicographically.  A zero divisor as the
    first nonzero coordinate of a line or of some L_i × L_j raises
    ValidationError: minpoly must be irreducible over Q.
    """
    _check_equation_shapes(lines, minpoly)
    m = list(minpoly)
    while m and not m[-1]:
        m.pop()
    if len(m) < 2:
        raise ValidationError("minimal polynomial must have degree >= 1")
    width = max([len(c) for line in lines for c in line], default=1)
    vecs = []
    for idx, line in enumerate(lines):
        vec = tuple(list(c) + [0] * (width - len(c)) for c in line)
        lead = _lead(vec, m)
        if lead is None:
            raise ValidationError(f"line {idx} has all-zero coefficients")
        _check_unit(lead, m)
        vecs.append(vec)

    n = len(vecs)
    met = [set() for _ in range(n)]  # met[i]: lines on a point found with i
    points = []
    leads = set()
    for j in range(n):
        for i in range(j):
            p = _cross(vecs[i], vecs[j])
            lead = _lead(p, m)
            if lead is None:
                raise ValidationError(f"lines {i} and {j} are equal")
            leads.add(tuple(lead))
            if j in met[i]:
                continue
            point = [i, j]
            for k in range(j + 1, n):
                if k not in met[i] and not _prem(_dot(p, vecs[k]), m):
                    point.append(k)
            for line in point:
                met[line].update(point)
            points.append(point)
    # Every equal pair is reported before any zero divisor on a point.
    for lead in leads:
        _check_unit(lead, m)
    return _as_combinatorics(n, sorted(points))


def parse_equations(text: bytes | str):
    """Parse {"minpoly": [...], "lines": [[[...],[...],[...]], ...]} JSON."""
    doc = load_json(text)
    if not isinstance(doc, dict) or "minpoly" not in doc or "lines" not in doc:
        raise ValueError('expected a JSON object with "minpoly" and "lines"')
    _check_equation_shapes(doc["lines"], doc["minpoly"])
    return doc["lines"], doc["minpoly"]
