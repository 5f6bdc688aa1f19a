"""Command-line frontend.

Every command reads JSON files, runs the exact machinery, and prints
either human-readable lines (with timing) or, under --json, a canonical
machine-readable report.  The JSON report is byte-identical across runs
on identical inputs: keys are sorted, timing is left out, and every
value is an exact integer or string.

Exit codes: 0 success (or verdict Equal), 1 usage or parse error,
2 validation error, 3 verdict Distinct, 4 unsupported input family.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
import warnings
from dataclasses import dataclass, field
from typing import Sequence

from .combinatorics import (
    GraphKind,
    NotSupportedError,
    ValidationError,
    build_graph,
    parse_combinatorics,
)
from .graphhomology import cycle_basis, meridian_homology
from .inclusion import Verdict, compare, invariant, parse_inclusion
from .looplink import lln, tlg
from .orderings import canonical_ordering, parse_ordering
from .pi1 import abelianise, pi1_presentation, presentation_text
from .stabiliser import stabiliser, transition

__all__ = ["Report", "build_parser", "main"]


@dataclass
class Report:
    """Outcome of one command: echo, input digests, results, exit code."""

    command: str
    inputs: dict[str, str]
    result: dict
    lines: list[str] = field(default_factory=list)
    exit_code: int = 0

    def to_json(self) -> str:
        doc = {"command": self.command, "inputs": self.inputs, "result": self.result}
        return json.dumps(doc, sort_keys=True, indent=2)


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _digest(blob: bytes) -> str:
    return "sha256:" + hashlib.sha256(blob).hexdigest()


def _coords(xs) -> str:
    return "(" + ", ".join(str(x) for x in xs) + ")"


def _load_graph(args):
    """Parse the combinatorics argument and build the requested graph.

    Warnings from the graph build go to stderr as one `warning:` line each.
    """
    blob = _read(args.combinatorics)
    c = parse_combinatorics(blob)
    kind = GraphKind(getattr(args, "graph", GraphKind.REDUCED.value))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        g = build_graph(c, kind)
    for w in caught:
        print("warning: %s" % w.message, file=sys.stderr)
    return blob, c, g


def cmd_validate(args) -> Report:
    blob = _read(args.combinatorics)
    c = parse_combinatorics(blob)
    return Report(
        "validate",
        {args.combinatorics: _digest(blob)},
        {"valid": True, "lines": c.n_lines, "points": len(c.points)},
        ["valid: %d lines, %d points" % (c.n_lines, len(c.points))],
    )


def cmd_graph_info(args) -> Report:
    blob, c, g = _load_graph(args)
    rank = g.edge_count - g.vertex_count + 1
    mh = meridian_homology(g)
    return Report(
        "graph-info",
        {args.combinatorics: _digest(blob)},
        {
            "graph": g.kind.value,
            "vertices": g.vertex_count,
            "edges": g.edge_count,
            "cycle_rank": rank,
            "meridian_homology": str(mh.group),
        },
        [
            "%s graph: %d vertices, %d edges, cycle rank %d"
            % (g.kind.value, g.vertex_count, g.edge_count, rank),
            "meridian homology: %s" % mh.group,
        ],
    )


def cmd_stabiliser(args) -> Report:
    blob, c, g = _load_graph(args)
    s = stabiliser(g)
    return Report(
        "stabiliser",
        {args.combinatorics: _digest(blob)},
        {
            "graph": g.kind.value,
            "group": str(s.group),
            "ambient_rank": s.ambient_rank,
            "relations": s.relations.rows,
            "cycle_rank": s.basis.rank,
        },
        [
            "stabiliser group: %s" % s.group,
            "ambient rank: %d" % s.ambient_rank,
            "relations: %d" % s.relations.rows,
            "cycle rank: %d" % s.basis.rank,
        ],
    )


def cmd_reduce(args) -> Report:
    blob, c, g = _load_graph(args)
    incl = _read(args.inclusion)
    s = stabiliser(g)
    cls = invariant(s, parse_inclusion(incl, g))
    return Report(
        "reduce",
        {args.combinatorics: _digest(blob), args.inclusion: _digest(incl)},
        {
            "graph": g.kind.value,
            "group": str(s.group),
            "coords": list(cls.coords),
            "zero": cls.is_zero,
        },
        ["group: %s" % s.group, "class: %s" % _coords(cls.coords)],
    )


def cmd_compare(args) -> Report:
    blob, c, g = _load_graph(args)
    blob_a = _read(args.inclusion_a)
    blob_b = _read(args.inclusion_b)
    s = stabiliser(g)
    report = compare(s, parse_inclusion(blob_a, g), parse_inclusion(blob_b, g))
    return Report(
        "compare",
        {
            args.combinatorics: _digest(blob),
            args.inclusion_a: _digest(blob_a),
            args.inclusion_b: _digest(blob_b),
        },
        {
            "graph": g.kind.value,
            "group": str(s.group),
            "class_a": list(report.class_a.coords),
            "class_b": list(report.class_b.coords),
            "transition": list(report.transition.coords),
            "difference": list(report.difference.coords),
            "verdict": report.verdict.value,
        },
        [
            "group: %s" % s.group,
            "class a: %s" % _coords(report.class_a.coords),
            "class b: %s" % _coords(report.class_b.coords),
            "transition: %s" % _coords(report.transition.coords),
            "difference: %s" % _coords(report.difference.coords),
            "verdict: %s" % report.verdict.value,
        ],
        exit_code=0 if report.verdict is Verdict.EQUAL else 3,
    )


def cmd_transition(args) -> Report:
    blob, c, g = _load_graph(args)
    blob_a = _read(args.ordering_a)
    blob_b = _read(args.ordering_b)
    s = stabiliser(g)
    cls = transition(s, parse_ordering(blob_a, g), parse_ordering(blob_b, g))
    return Report(
        "transition",
        {
            args.combinatorics: _digest(blob),
            args.ordering_a: _digest(blob_a),
            args.ordering_b: _digest(blob_b),
        },
        {
            "graph": g.kind.value,
            "group": str(s.group),
            "coords": list(cls.coords),
            "zero": cls.is_zero,
        },
        ["group: %s" % s.group, "transition class: %s" % _coords(cls.coords)],
    )


def cmd_pi1(args) -> Report:
    blob, c, g = _load_graph(args)
    inputs = {args.combinatorics: _digest(blob)}
    if args.ordering:
        blob_o = _read(args.ordering)
        inputs[args.ordering] = _digest(blob_o)
        ordering = parse_ordering(blob_o, g)
    else:
        ordering = canonical_ordering(g)
    p = pi1_presentation(g, cycle_basis(g), ordering)
    ab = abelianise(p)
    return Report(
        "pi1",
        inputs,
        {
            "generators": list(p.generator_names),
            "relators": [list(w) for w in p.relators],
            "abelianisation": str(ab),
        },
        [presentation_text(p), "abelianisation: %s" % ab],
    )


def cmd_tlg(args) -> Report:
    blob, c, g = _load_graph(args)
    t = tlg(g)
    return Report(
        "tlg",
        {args.combinatorics: _digest(blob)},
        {
            "rank": t.rank,
            "ambient_rank": t.ambient_rank,
            "generator_forms": len(t.generators),
        },
        [
            "tensor-linking kernel rank: %d" % t.rank,
            "ambient rank: %d" % t.ambient_rank,
            "generator forms: %d" % len(t.generators),
        ],
    )


def cmd_lln(args) -> Report:
    blob, c, g = _load_graph(args)
    incl = _read(args.inclusion)
    values = lln(tlg(g), parse_inclusion(incl, g))
    return Report(
        "lln",
        {args.combinatorics: _digest(blob), args.inclusion: _digest(incl)},
        {"values": list(values.values), "zero": values.is_zero},
        [
            "loop-linking values: %s" % _coords(values.values),
            "zero: %s" % values.is_zero,
        ],
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linestab",
        description="Exact stabiliser and linking invariants of line-arrangement graphs.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="canonical JSON output")
    graphed = argparse.ArgumentParser(add_help=False)
    graphed.add_argument(
        "--graph",
        choices=[k.value for k in GraphKind],
        default=GraphKind.REDUCED.value,
        help="incidence graph flavour (default: reduced)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="check a combinatorics file")
    p.add_argument("combinatorics")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser(
        "graph-info", parents=[common, graphed], help="incidence graph summary"
    )
    p.add_argument("combinatorics")
    p.set_defaults(func=cmd_graph_info)

    p = sub.add_parser(
        "stabiliser", parents=[common, graphed], help="graph stabiliser group"
    )
    p.add_argument("combinatorics")
    p.set_defaults(func=cmd_stabiliser)

    p = sub.add_parser(
        "reduce",
        parents=[common, graphed],
        help="reduce inclusion data to a stabiliser class",
    )
    p.add_argument("combinatorics")
    p.add_argument("inclusion")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser(
        "compare",
        parents=[common, graphed],
        help="compare two inclusion files up to ordering transition",
    )
    p.add_argument("combinatorics")
    p.add_argument("inclusion_a")
    p.add_argument("inclusion_b")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser(
        "transition",
        parents=[common, graphed],
        help="transition class between two ordering files",
    )
    p.add_argument("combinatorics")
    p.add_argument("ordering_a")
    p.add_argument("ordering_b")
    p.set_defaults(func=cmd_transition)

    p = sub.add_parser(
        "pi1", parents=[common], help="fundamental-group presentation (reduced graph)"
    )
    p.add_argument("combinatorics")
    p.add_argument("--ordering", help="ordering file (default: canonical)")
    p.set_defaults(func=cmd_pi1)

    p = sub.add_parser(
        "tlg", parents=[common], help="tensor-linking kernel lattice (full graph)"
    )
    p.add_argument("combinatorics")
    p.set_defaults(func=cmd_tlg, graph=GraphKind.FULL.value)

    p = sub.add_parser(
        "lln", parents=[common], help="loop-linking values of inclusion data (full graph)"
    )
    p.add_argument("combinatorics")
    p.add_argument("inclusion")
    p.set_defaults(func=cmd_lln, graph=GraphKind.FULL.value)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    start = time.perf_counter()
    try:
        report = args.func(args)
    except NotSupportedError as exc:
        print("not supported: %s" % exc, file=sys.stderr)
        return 4
    except ValidationError as exc:
        print("invalid: %s" % exc, file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - start
    if args.json:
        print(report.to_json())
    else:
        for line in report.lines:
            print(line)
        print("elapsed: %.2fs" % elapsed)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
