"""Chain groups of a decorated graph, cycle bases and meridian homology.

Conventions.  Edges carry the canonical orientation low index to high
index, so the boundary of edge (v, w) with v < w is w - v.  A cycle
basis is built from a BFS spanning tree; each non-tree edge e defines
the unique cycle that crosses e in its canonical direction and returns
through the tree.  Chains are row vectors indexed by the graph's edge
list, so the matrix of the cycle decomposition map has one row per
cycle and one column per edge.

The meridian homology group is the quotient of the free module on the
vertices by one relation per vertex: the vertex scaled by its Euler
number plus the sum of its neighbours.  For full graphs, which carry no
Euler numbers, the group is presented instead by eliminating each point
against the sum of its lines and killing the total sum of lines; both
presentations give a free group of rank one less than the line count.

Relation generators, transition swaps, tensor-linking forms and
inclusion data are all sums of terms c * zeta (x) pi_u: a column of
cycle coefficients (an edge's column of the cycle map, or a vertex's
column of an inclusion matrix, chains_to_hom()) tensored with a vertex's
meridian projection.  Both are IntMatrix sparse rows {index: value}, and
add_tensor() is the one place that writes such a term.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass

from .combinatorics import DecoratedGraph, GraphKind, ValidationError
from .exactalg import AbelianGroup, IntMatrix, quotient_group

__all__ = [
    "CycleBasis",
    "MeridianHomology",
    "add_tensor",
    "chains_to_hom",
    "cycle_basis",
    "meridian_homology",
    "verify_h1e",
]


@dataclass(frozen=True)
class CycleBasis:
    """A spanning tree and the cycle decomposition map it induces.

    zeta has one row per non-tree edge (in edge-list order) and one
    column per edge; row i expands the cycle of non_tree_edges[i].
    edge_cycles[e] is column e of zeta as a sparse row {cycle: coefficient}.
    """

    graph: DecoratedGraph
    root: int
    tree_edges: tuple[tuple[int, int], ...]
    non_tree_edges: tuple[tuple[int, int], ...]
    zeta: IntMatrix
    edge_cycles: tuple[dict[int, int], ...]

    @property
    def rank(self) -> int:
        return len(self.non_tree_edges)


def cycle_basis(g: DecoratedGraph, root: int = 0) -> CycleBasis:
    """BFS spanning tree from the root, neighbours in index order."""
    if not 0 <= root < g.vertex_count:
        raise ValidationError(f"root {root} is not a vertex of a {g.vertex_count}-vertex graph")
    parent: list[int | None] = [None] * g.vertex_count
    seen = [False] * g.vertex_count
    seen[root] = True
    queue = deque([root])
    tree = set()
    while queue:
        v = queue.popleft()
        for w in g.neighbours[v]:
            if not seen[w]:
                seen[w] = True
                parent[w] = v
                tree.add((min(v, w), max(v, w)))
                queue.append(w)

    non_tree = tuple(e for e in g.edges if e not in tree)
    rows = []
    for v, w in non_tree:
        row = defaultdict(int)
        row[g.edge_position(v, w)] = 1
        # Then w up to the root and back down to v: the segment both tree
        # paths share cancels.
        for x, sign in ((w, 1), (v, -1)):
            while parent[x] is not None:
                p = parent[x]
                row[g.edge_position(x, p)] += sign if x < p else -sign
                x = p
        rows.append(row)
    zeta = IntMatrix._from_rows(rows, g.edge_count)
    return CycleBasis(g, root, tuple(sorted(tree)), non_tree, zeta, zeta.transpose().entries)


@dataclass(frozen=True)
class MeridianHomology:
    """projections[u] is row u of group.to_smith, {Smith coordinate: coeff}."""

    graph: DecoratedGraph
    group: AbelianGroup
    projections: tuple[dict[int, int], ...]


def meridian_homology(g: DecoratedGraph) -> MeridianHomology:
    n = g.vertex_count
    rows = []
    if g.kind is GraphKind.REDUCED:
        for v in range(n):
            row = defaultdict(int, {v: g.euler[v]})
            for w in g.neighbours[v]:
                row[w] += 1
            rows.append(row)
    else:
        comb = g.combinatorics
        for v in range(comb.n_lines, n):
            row = defaultdict(int, {v: 1})
            for line in comb.points[g.point_ids[v - comb.n_lines]]:
                row[line] -= 1
            rows.append(row)
        rows.append(dict.fromkeys(range(comb.n_lines), 1))
    group = quotient_group(n, IntMatrix._from_rows(rows, n))
    return MeridianHomology(g, group, group.to_smith.entries)


def add_tensor(acc, c: int, cycles, coords, cycle_stride: int, coord_stride: int):
    """Add c * zeta_e (x) pi_u into acc (a list or a defaultdict(int)), given
    the sparse rows cycles = basis.edge_cycles[e] and coords = mh.projections[u];
    cycle i and Smith coordinate s sit at i * cycle_stride + s * coord_stride."""
    coords = coords.items()
    for i, z in cycles.items():
        cz = c * z
        base = i * cycle_stride
        for s, p in coords:
            acc[base + s * coord_stride] += cz * p


def chains_to_hom(
    m: IntMatrix, mh: MeridianHomology, cycle_stride: int, coord_stride: int
) -> list[int]:
    """The cycle-by-vertex matrix m as sum of m[i][u] * e_i (x) pi_u, a flat
    list of cycle rank * coord_count entries at add_tensor's strides."""
    g = mh.graph
    rank = g.cycle_rank
    if m.shape != (rank, g.vertex_count):
        raise ValidationError(
            "expected a %d x %d matrix, got %d x %d" % (rank, g.vertex_count, m.rows, m.cols)
        )
    acc = [0] * (rank * mh.group.coord_count)
    for cycles, coords in zip(m.transpose().entries, mh.projections):
        add_tensor(acc, 1, cycles, coords, cycle_stride, coord_stride)
    return acc


def verify_h1e(m: MeridianHomology, n_lines: int) -> bool:
    """Check the group is free of rank n_lines - 1 and each point class
    is the sum of the classes of its lines."""
    if m.group.torsion or m.group.free_rank != n_lines - 1:
        return False
    g = m.graph
    for v in range(g.n_lines, g.vertex_count):
        point = [0] * g.vertex_count
        point[v] = 1
        lines = [0] * g.vertex_count
        for line in g.combinatorics.points[g.point_ids[v - g.n_lines]]:
            lines[line] += 1
        if m.group.reduce(point) != m.group.reduce(lines):
            return False
    return True
