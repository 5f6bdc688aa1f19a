"""The benchmark's workloads: seeded inputs, the ops that use them, and the
checks on every op's output.

Why these four (each carries a layer the others leave unmeasured):

* bundled-cli: the published arrangements through the CLI.  The Smith
  quotient (`exactalg.quotient_group`) does most of the work.
* generic-full: `generic(n)` on the full graph for n = 6..12.  Double points
  only, so the relations are wide, sparse and torsion-free, and the dense
  generator rows (`stabiliser.gs_generators` and the push into hom(H1, MH))
  take a large share of the time and set the peak memory.
* compare-queries: a stream of in-process `compare` queries against one
  Rybnikov stabiliser built during set-up.  No Smith elimination runs in the
  timed phase; the read path does (parsing, `reduce`, transition walks).
* linking: `tlg` and `lln` on the full graphs.  The kernel lattice
  (`lattice_kernel`, `hermite`) and `looplink` run only here.

The seed never changes what a correct program must answer for the CLI
workloads: it orders the ops, renumbers points and lines of the generic
arrangements, and perturbs the `lln` inclusion data by relation images, which
the loop-linking values do not see.  For compare-queries the seed draws the
whole query stream, and each verdict and difference is known by
construction.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import time

# Package functions are looked up on their modules at call time, so that a
# traced run sees the calls made while setting up, too.
from linestab import cli, combinatorics, datasets, graphhomology, inclusion, orderings
from linestab import stabiliser as stab
from linestab.combinatorics import GraphKind
from linestab.inclusion import BASIS_TAG
from run import DEFAULT_SEED

BUNDLED = ("maclane", "quadruplet", "rybnikov")
GENERIC_SIZES = tuple(range(6, 13))
QUERY_POOL = 128

# The paper's published stabiliser groups (reduced graphs).  These are checked
# directly, independently of the frozen goldens.
PUBLISHED = {
    "maclane": "Z/3 ⊕ Z^35",
    "quadruplet": "Z/5 ⊕ Z^119",
    "rybnikov": "Z/3 ⊕ Z/3 ⊕ Z^220",
}


class CheckError(Exception):
    """An op's output differs from what a correct program returns."""


class Op:
    """One timed call.  `run()` returns the op's output; `check(output)`
    raises CheckError when it is wrong; `golden(output)` is what the frozen
    golden file stores for it.

    An isolated op stands for a command a user runs in a process of its
    own, so garbage left by earlier ops is collected before it is timed;
    otherwise its time would depend on the ops before it.  Queries share one
    long-lived process, and the collections they trigger count in their
    latency.
    """

    def __init__(self, label, run, check, golden, isolated):
        self.label = label
        self.run = run
        self.check = check
        self.golden = golden
        self.isolated = isolated


class Workload:
    def __init__(self, ops, largest, largest_s=None):
        self.ops = ops
        # Label of the op whose time is reported as largest_job_s, or None
        # when the largest job runs during set-up and largest_s holds its time.
        self.largest = largest
        self.largest_s = largest_s


def digest(blob: bytes) -> str:
    return "sha256:" + hashlib.sha256(blob).hexdigest()


def _write(workdir: str, name: str, text: str) -> tuple[str, str]:
    path = os.path.join(workdir, name)
    blob = text.encode()
    with open(path, "wb") as fh:
        fh.write(blob)
    return path, digest(blob)


# ----------------------------------------------------------------------------
# CLI ops
# ----------------------------------------------------------------------------


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def cli_op(label, argv, inputs, goldens, published=None):
    """A `cli.main(argv)` call whose report must match the golden result.

    `inputs` maps each file argument to the digest of the bytes written; the
    report's `inputs` must echo it.  `published` is a group string the report
    must carry regardless of the goldens.
    """
    argv = list(argv) + ["--json"]

    def check(output):
        code, text = output
        if code != 0:
            raise CheckError("exit code %d" % code)
        try:
            report = json.loads(text)
        except ValueError:
            raise CheckError("report is not JSON") from None
        if report.get("command") != argv[0] or report.get("inputs") != inputs:
            raise CheckError("report echoes the wrong command or inputs")
        if published is not None and report["result"].get("group") != published:
            raise CheckError("group %r, published %r" % (report["result"].get("group"), published))
        if goldens is not None and report["result"] != goldens["cli"][label]:
            raise CheckError("result differs from the golden")

    def golden(output):
        return json.loads(output[1])["result"]

    return Op(label, lambda: run_cli(argv), check, golden, isolated=True)


def _bundled_files(workdir):
    files = {}
    for name in BUNDLED:
        files[name] = _write(workdir, name + ".json", datasets.data_text(name + ".json"))
    return files


def bundled_cli(seed, workdir, goldens):
    files = _bundled_files(workdir)
    ops = []
    for name, (path, dig) in files.items():
        inputs = {path: dig}
        ops.append(cli_op("validate/" + name, ["validate", path], inputs, goldens))
        for kind in ("reduced", "full"):
            ops.append(cli_op("graph-info/%s/%s" % (kind, name),
                              ["graph-info", "--graph", kind, path], inputs, goldens))
            ops.append(cli_op("stabiliser/%s/%s" % (kind, name),
                              ["stabiliser", "--graph", kind, path], inputs, goldens,
                              PUBLISHED[name] if kind == "reduced" else None))
        ops.append(cli_op("pi1/" + name, ["pi1", path], inputs, goldens))
    random.Random(seed).shuffle(ops)
    return Workload(ops, largest="stabiliser/full/rybnikov")


def generic_text(n: int, rng: random.Random) -> str:
    """generic(n) with its lines renumbered and its points reordered."""
    perm = list(range(n))
    rng.shuffle(perm)
    points = [sorted(perm[x] for x in p) for p in datasets.generic(n).points]
    rng.shuffle(points)
    return json.dumps({"n_lines": n, "points": points})


def generic_full(seed, workdir, goldens):
    rng = random.Random(seed)
    ops = []
    for n in GENERIC_SIZES:
        path, dig = _write(workdir, "generic%d.json" % n, generic_text(n, rng))
        ops.append(cli_op("stabiliser/full/generic%d" % n,
                          ["stabiliser", "--graph", "full", path], {path: dig}, goldens))
    rng.shuffle(ops)
    return Workload(ops, largest="stabiliser/full/generic%d" % GENERIC_SIZES[-1])


# ----------------------------------------------------------------------------
# Inclusion data with known invariants
# ----------------------------------------------------------------------------


def relation_image(g, zeta, rng) -> list[list[int]]:
    """A random relation generator of hom(C1, C0), composed with the cycle
    expansion so it reads as a cycle-by-vertex matrix.

    Edge generators pick an endpoint u of an edge e; vertex generators pick a
    vertex v and two incident edges to y and z (the paper's generator set,
    as documented on `stabiliser.gs_generators`).  Adding such a matrix to
    inclusion data changes neither its stabiliser class nor its loop-linking
    values.
    """
    k, nv = zeta.rows, g.vertex_count
    m = [[0] * nv for _ in range(k)]

    def add(e, u, c):
        for i, zi in enumerate(zeta.column(e)):
            m[i][u] += c * zi

    if rng.random() < 0.25:
        e = rng.randrange(g.edge_count)
        add(e, rng.choice(g.edges[e]), 1)
    else:
        v = rng.randrange(nv)  # build_graph guarantees every degree is >= 2
        y, z = sorted(rng.sample(g.neighbours[v], 2))
        add(g.edge_position(v, y), z, 1)
        add(g.edge_position(v, z), y, g.delta(v, y) * g.delta(v, z))
    return m


def add_into(a, b, c=1):
    for row_a, row_b in zip(a, b):
        for j, x in enumerate(row_b):
            row_a[j] += c * x


def random_matrix(rng, rows, cols, span=3):
    return [[rng.randint(-span, span) for _ in range(cols)] for _ in range(rows)]


def inclusion_text(g, matrix, order=None) -> str:
    doc = {"basis": BASIS_TAG, "graph": g.kind.value, "cycles": len(matrix), "matrix": matrix}
    doc["ordering"] = {"order": order or {}}
    return json.dumps(doc)


def linking(seed, workdir, goldens):
    rng = random.Random(seed)
    files = _bundled_files(workdir)
    ops = []
    for name, (path, dig) in files.items():
        ops.append(cli_op("tlg/" + name, ["tlg", path], {path: dig}, goldens))
        g = combinatorics.build_graph(getattr(datasets, name)(), GraphKind.FULL)
        zeta = graphhomology.cycle_basis(g).zeta
        # The base data is the same for every seed, so its values are golden;
        # the seeded relation images must leave them unchanged.
        matrix = random_matrix(random.Random("lln/" + name), zeta.rows, g.vertex_count)
        for _ in range(8):
            add_into(matrix, relation_image(g, zeta, rng), rng.choice((-2, -1, 1, 2)))
        lpath, ldig = _write(workdir, "lln-%s.json" % name, inclusion_text(g, matrix))
        ops.append(cli_op("lln/" + name, ["lln", path, lpath], {path: dig, lpath: ldig}, goldens))
    rng.shuffle(ops)
    return Workload(ops, largest="tlg/rybnikov")


# ----------------------------------------------------------------------------
# compare-queries
# ----------------------------------------------------------------------------


def _shuffled_order(g, rng):
    order = {}
    rows = []
    for v, ns in enumerate(g.neighbours):
        row = list(ns)
        rng.shuffle(row)
        rows.append(tuple(row))
        order[g.labels[v]] = [g.labels[w] for w in row]
    return order, tuple(rows)


def compare_queries(seed, workdir, goldens):
    """Queries against the Rybnikov reduced stabiliser.

    Query i compares data A, in the canonical ordering, with B = A plus
    relation images, plus (on odd i) the lifted transition into a shuffled
    ordering that B declares, plus (on a seeded half) one lifted Smith
    generator e_j.  The verdict is Equal with zero difference, or Distinct
    with difference exactly e_j.
    """
    g = combinatorics.build_graph(datasets.rybnikov(), GraphKind.REDUCED)
    start = time.perf_counter()
    s = stab.stabiliser(g)
    build_s = time.perf_counter() - start
    if str(s.group) != PUBLISHED["rybnikov"]:
        raise CheckError("Rybnikov stabiliser is %s, published %s" % (s.group, PUBLISHED["rybnikov"]))

    rng = random.Random(seed)
    zeta = s.basis.zeta
    k, nv, t = s.basis.rank, g.vertex_count, s.group.coord_count
    canonical = orderings.canonical_ordering(g)

    def lifted(coords):
        return stab.lift_to_chains(s, s.group.lift(coords)).to_lists()

    shuffles = []
    for _ in range(8):
        order, rows = _shuffled_order(g, rng)
        correction = stab.transition(s, canonical, orderings.GraphOrdering(g, rows))
        shuffles.append((order, lifted(correction.coords)))
    units = []
    for j in rng.sample(range(t), 8):
        e = [0] * t
        e[j] = 1
        units.append((tuple(e), lifted(e)))

    distinct = [i < QUERY_POOL // 2 for i in range(QUERY_POOL)]
    rng.shuffle(distinct)
    frozen = goldens["queries"] if goldens is not None and seed == DEFAULT_SEED else None
    ops, docs = [], []
    for i in range(QUERY_POOL):
        a = random_matrix(rng, k, nv)
        b = [row[:] for row in a]
        for _ in range(3):
            add_into(b, relation_image(g, zeta, rng), rng.choice((-1, 1)))
        order = None
        if i % 2:
            order, correction = rng.choice(shuffles)
            add_into(b, correction)
        expected = ("Equal", (0,) * t)
        if distinct[i]:
            unit, lift = rng.choice(units)
            add_into(b, lift)
            expected = ("Distinct", unit)
        docs.append((inclusion_text(g, a), inclusion_text(g, b, order)))
        ops.append(_query_op(i, s, *docs[-1], expected, frozen[i] if frozen else None))
    # One line per query: the two inclusion documents it compares.
    _write(workdir, "queries.jsonl", "".join("[%s, %s]\n" % pair for pair in docs))
    return Workload(ops, largest=None, largest_s=build_s)


def _query_golden(report) -> list:
    """The verdict and a digest of the four coordinate vectors."""
    coords = [list(c.coords) for c in
              (report.class_a, report.class_b, report.transition, report.difference)]
    return [report.verdict.value, digest(json.dumps(coords).encode())]


def _query_op(i, s, text_a, text_b, expected, frozen):
    g = s.graph

    def run():
        a = inclusion.parse_inclusion(text_a, g)
        b = inclusion.parse_inclusion(text_b, g)
        return inclusion.compare(s, a, b)

    def check(report):
        got = (report.verdict.value, tuple(report.difference.coords))
        if got != expected:
            raise CheckError("verdict %s difference %s, expected %s" % (got[0], got[1], expected))
        if frozen is not None and _query_golden(report) != frozen:
            raise CheckError("class coordinates differ from the golden")

    return Op("query/%d" % i, run, check, _query_golden, isolated=False)


FACTORIES = {
    "bundled-cli": bundled_cli,
    "generic-full": generic_full,
    "compare-queries": compare_queries,
    "linking": linking,
}


def build(name, seed, workdir, goldens):
    """Write the workload's inputs under workdir and return its ops."""
    return FACTORIES[name](seed, workdir, goldens)
