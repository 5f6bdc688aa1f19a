"""Command-line frontend.

Every command reads JSON files, runs the exact machinery, and prints
either human-readable lines (with timing) or, under --json, a canonical
machine-readable report.  The JSON report is byte-identical across runs
on identical inputs: keys are sorted, timing is left out, and every
value is an exact integer or string.

Each command is one entry of COMMANDS: the parser is built from the
table, and one runner reads and hashes the input files, builds the graph
and wraps what the command returns in a Report.

Exit codes: 0 success (or verdict Equal), 1 usage or parse error,
2 validation error, 3 verdict Distinct, 4 unsupported input family.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .combinatorics import (
    GraphKind,
    NotSupportedError,
    ValidationError,
    build_graph,
    parse_combinatorics,
)
from .exactalg import AbelianGroup
from .graphhomology import cycle_basis, meridian_homology
from .inclusion import Verdict, compare, invariant, parse_inclusion
from .looplink import lln, tlg
from .orderings import canonical_ordering, parse_ordering
from .pi1 import abelianise, pi1_presentation, presentation_text
from .stabiliser import stabiliser, stabiliser_relations, transition

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


def _validate(c) -> tuple:
    return (
        {"valid": True, "lines": c.n_lines, "points": len(c.points)},
        ["valid: %d lines, %d points" % (c.n_lines, len(c.points))],
    )


def _graph_info(g) -> tuple:
    rank = g.cycle_rank
    mh = meridian_homology(g)
    return (
        {"graph": g.kind.value, "vertices": g.vertex_count, "edges": g.edge_count,
         "cycle_rank": rank, "meridian_homology": str(mh.group)},
        ["%s graph: %d vertices, %d edges, cycle rank %d"
         % (g.kind.value, g.vertex_count, g.edge_count, rank),
         "meridian homology: %s" % mh.group],
    )


def _stabiliser(g) -> tuple:
    # Only the group type is printed, so no coordinates are built: a bare
    # AbelianGroup reads it off the echelon split.
    basis, _, relations = stabiliser_relations(g)
    ambient = relations.cols
    group = str(AbelianGroup(ambient, relations))
    return (
        {"graph": g.kind.value, "group": group, "ambient_rank": ambient,
         "relations": relations.rows, "cycle_rank": basis.rank},
        ["stabiliser group: %s" % group, "ambient rank: %d" % ambient,
         "relations: %d" % relations.rows, "cycle rank: %d" % basis.rank],
    )


def _reduce(g, incl: bytes) -> tuple:
    s = stabiliser(g)
    cls = invariant(s, parse_inclusion(incl, g))
    return (
        {"graph": g.kind.value, "group": str(s.group), "coords": list(cls.coords),
         "zero": cls.is_zero},
        ["group: %s" % s.group, "class: %s" % _coords(cls.coords)],
    )


def _compare(g, incl_a: bytes, incl_b: bytes) -> tuple:
    s = stabiliser(g)
    r = compare(s, parse_inclusion(incl_a, g), parse_inclusion(incl_b, g))
    return (
        {"graph": g.kind.value, "group": str(s.group), "class_a": list(r.class_a.coords),
         "class_b": list(r.class_b.coords), "transition": list(r.transition.coords),
         "difference": list(r.difference.coords), "verdict": r.verdict.value},
        ["group: %s" % s.group, "class a: %s" % _coords(r.class_a.coords),
         "class b: %s" % _coords(r.class_b.coords),
         "transition: %s" % _coords(r.transition.coords),
         "difference: %s" % _coords(r.difference.coords),
         "verdict: %s" % r.verdict.value],
        0 if r.verdict is Verdict.EQUAL else 3,
    )


def _transition(g, ord_a: bytes, ord_b: bytes) -> tuple:
    s = stabiliser(g)
    cls = transition(s, parse_ordering(ord_a, g), parse_ordering(ord_b, g))
    return (
        {"graph": g.kind.value, "group": str(s.group), "coords": list(cls.coords),
         "zero": cls.is_zero},
        ["group: %s" % s.group, "transition class: %s" % _coords(cls.coords)],
    )


def _pi1(g, ordering: bytes | None) -> tuple:
    o = canonical_ordering(g) if ordering is None else parse_ordering(ordering, g)
    p = pi1_presentation(g, cycle_basis(g), o)
    ab = abelianise(p)
    return (
        {"generators": list(p.generator_names), "relators": [list(w) for w in p.relators],
         "abelianisation": str(ab)},
        [presentation_text(p), "abelianisation: %s" % ab],
    )


def _tlg(g) -> tuple:
    t = tlg(g)
    return (
        {"rank": t.rank, "ambient_rank": t.ambient_rank, "generator_forms": len(t.generators)},
        ["tensor-linking kernel rank: %d" % t.rank, "ambient rank: %d" % t.ambient_rank,
         "generator forms: %d" % len(t.generators)],
    )


def _lln(g, incl: bytes) -> tuple:
    values = lln(tlg(g), parse_inclusion(incl, g))
    return (
        {"values": list(values.values), "zero": values.is_zero},
        ["loop-linking values: %s" % _coords(values.values), "zero: %s" % values.is_zero],
    )


CHOSEN = "chosen"  # the graph comes from --graph


@dataclass(frozen=True)
class Command:
    """One subcommand.

    `files` names the file arguments read after the combinatorics, in
    order; a name starting with "--" is an optional file.  `graph` is None
    when `run` takes the combinatorics itself, CHOSEN when --graph picks
    the graph, or the one GraphKind the command works on.  `run` gets the
    combinatorics or graph and the bytes of each file (None for an
    optional file not given) and returns (result, lines[, exit_code]).
    """

    name: str
    help: str
    run: Callable[..., tuple]
    files: tuple[str, ...] = ()
    graph: GraphKind | str | None = CHOSEN


COMMANDS = (
    Command("validate", "check a combinatorics file", _validate, graph=None),
    Command("graph-info", "incidence graph summary", _graph_info),
    Command("stabiliser", "graph stabiliser group", _stabiliser),
    Command("reduce", "reduce inclusion data to a stabiliser class", _reduce,
            ("inclusion",)),
    Command("compare", "compare two inclusion files up to ordering transition",
            _compare, ("inclusion_a", "inclusion_b")),
    Command("transition", "transition class between two ordering files",
            _transition, ("ordering_a", "ordering_b")),
    Command("pi1", "fundamental-group presentation (reduced graph)", _pi1,
            ("--ordering",), GraphKind.REDUCED),
    Command("tlg", "tensor-linking kernel lattice (full graph)", _tlg,
            graph=GraphKind.FULL),
    Command("lln", "loop-linking values of inclusion data (full graph)", _lln,
            ("inclusion",), GraphKind.FULL),
)


def _run(cmd: Command, args) -> Report:
    """Read and hash the combinatorics, build the graph, then read and hash
    the other files and hand everything to the command.

    The graph's warnings go to stderr as one `warning:` line each.
    """
    blob = _read(args.combinatorics)
    inputs = {args.combinatorics: _digest(blob)}
    subject = parse_combinatorics(blob)
    if cmd.graph is not None:
        kind = GraphKind(args.graph) if cmd.graph == CHOSEN else cmd.graph
        subject = build_graph(subject, kind)
        for message in subject.warnings:
            print("warning: %s" % message, file=sys.stderr)
    paths = [getattr(args, name.lstrip("-")) for name in cmd.files]
    blobs = [None if path is None else _read(path) for path in paths]
    inputs.update((path, _digest(b)) for path, b in zip(paths, blobs) if path is not None)
    return Report(cmd.name, inputs, *cmd.run(subject, *blobs))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linestab",
        description="Exact stabiliser and linking invariants of line-arrangement graphs.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="canonical JSON output")
    graphed = argparse.ArgumentParser(add_help=False, parents=[common])
    graphed.add_argument(
        "--graph",
        choices=[k.value for k in GraphKind],
        default=GraphKind.REDUCED.value,
        help="incidence graph flavour (default: reduced)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in COMMANDS:
        p = sub.add_parser(
            cmd.name, parents=[graphed if cmd.graph == CHOSEN else common], help=cmd.help
        )
        p.add_argument("combinatorics")
        for name in cmd.files:
            if name.startswith("--"):
                p.add_argument(name, help="%s file (default: canonical)" % name[2:])
            else:
                p.add_argument(name)
        p.set_defaults(func=functools.partial(_run, cmd))
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    start = time.perf_counter()
    try:
        report = args.func(args)
        elapsed = time.perf_counter() - start
        if args.json:
            print(report.to_json())
        else:
            for line in report.lines:
                print(line)
            print("elapsed: %.2fs" % elapsed)
        sys.stdout.flush()
    except NotSupportedError as exc:
        print("not supported: %s" % exc, file=sys.stderr)
        return 4
    except ValidationError as exc:
        print("invalid: %s" % exc, file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        if isinstance(exc, BrokenPipeError):
            # Nobody reads stdout any more: point it at devnull, so that the
            # interpreter's flush at exit does not fail a second time.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
