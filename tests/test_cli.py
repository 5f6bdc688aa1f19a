"""End-to-end tests of the command-line frontend via subprocess."""

import json
import os
import subprocess
import sys
from importlib.resources import files

import pytest

from conftest import reduced_graph
from linestab import cli, datasets
from linestab.combinatorics import GraphKind, build_graph
from linestab.datasets import generic, maclane
from linestab.inclusion import BASIS_TAG
from linestab.stabiliser import stabiliser

MACLANE = str(files("linestab") / "data" / "maclane.json")
QUADRUPLET = str(files("linestab") / "data" / "quadruplet.json")


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "linestab.cli", *args],
        capture_output=True,
        text=True,
    )


def write_incl(path, g, matrix, **extra):
    rank = g.edge_count - g.vertex_count + 1
    doc = {"cycles": rank, "matrix": matrix, "basis": BASIS_TAG,
           "graph": g.kind.value}
    doc.update(extra)
    path.write_text(json.dumps(doc))
    return str(path)


def zero_matrix(g):
    rank = g.edge_count - g.vertex_count + 1
    return [[0] * g.vertex_count for _ in range(rank)]


def test_help_exits_zero():
    result = run_cli("--help")
    assert result.returncode == 0
    assert "linestab" in result.stdout


def test_package_runs_as_a_module(tmp_path):
    """`python -m linestab` is the frontend of `python -m linestab.cli`: the
    same report, messages and exit code, for a success and a usage error."""
    results = []
    for args in (("stabiliser", MACLANE, "--json"),
                 ("validate", str(tmp_path / "missing.json"))):
        as_package = subprocess.run(
            [sys.executable, "-m", "linestab", *args], capture_output=True, text=True
        )
        expected = run_cli(*args)
        assert (as_package.returncode, as_package.stdout, as_package.stderr) == (
            expected.returncode, expected.stdout, expected.stderr)
        results.append(as_package)
    report, missing = results
    assert json.loads(report.stdout)["result"]["group"] == "Z/3 ⊕ Z^35"
    assert missing.returncode == 1


def test_validate_quadruplet():
    result = run_cli("validate", QUADRUPLET)
    assert result.returncode == 0
    assert "11 lines, 26 points" in result.stdout


def test_validate_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    result = run_cli("validate", str(bad))
    assert result.returncode == 1


def test_validate_semantic_error(tmp_path):
    dup = tmp_path / "dup.json"
    dup.write_text(json.dumps(
        {"n_lines": 3, "points": [[0, 1], [0, 1], [0, 2], [1, 2]]}
    ))
    result = run_cli("validate", str(dup))
    assert result.returncode == 2
    assert "two points" in result.stderr


def test_validate_non_integer_line_in_process(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n_lines": 3, "points": [[0, "1"], [1, 2], [0, 2]]}))
    assert cli.main(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid:") and err.count("\n") == 1


def test_degree_two_warning_is_one_clean_line(tmp_path, capsys):
    c = generic(3)
    k3 = tmp_path / "k3.json"
    k3.write_text(json.dumps({"n_lines": c.n_lines, "points": [list(p) for p in c.points]}))
    assert cli.main(["graph-info", str(k3), "--json"]) == 0
    out = capsys.readouterr()
    lines = out.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("warning: reduced graph has degree-2")
    assert "UserWarning" not in out.err
    assert json.loads(out.out)["result"]["cycle_rank"] == 1


@pytest.mark.parametrize("argv", [
    ["graph-info"], ["graph-info", "--graph", "full"], ["stabiliser"],
    ["reduce", "-"], ["compare", "-", "-"], ["transition", "-", "-"],
    ["pi1"], ["tlg"], ["lln", "-"],
], ids=["graph-info", "graph-info-full", "stabiliser", "reduce", "compare",
        "transition", "pi1", "tlg", "lln"])
def test_empty_arrangement_not_supported(tmp_path, capsys, argv):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"n_lines": 0, "points": []}))
    command, *rest = argv
    assert cli.main([command, str(empty), *rest]) == 4
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "not supported: graph has no vertices\n"


def test_closed_stdout_is_one_error_line():
    proc = subprocess.Popen(
        [sys.executable, "-m", "linestab.cli", "validate", MACLANE, "--json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 1
    assert err == "error: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("argv", [["validate"], ["reduce", MACLANE]], ids=["validate", "reduce"])
def test_deeply_nested_json_is_a_parse_error(tmp_path, capsys, argv):
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100000 + "]" * 100000)
    assert cli.main([*argv, str(nested)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: JSON document is nested too deeply\n"


def test_missing_file_is_usage_error():
    result = run_cli("validate", "/nonexistent/input.json")
    assert result.returncode == 1
    # An empty path is a missing file too, also for the optional --ordering.
    assert cli.main(["pi1", MACLANE, "--ordering", ""]) == 1


def test_unknown_command_is_usage_error():
    assert run_cli("frobnicate", MACLANE).returncode == 1
    assert run_cli().returncode == 1


def test_graph_info_both_kinds():
    reduced = run_cli("graph-info", QUADRUPLET)
    assert reduced.returncode == 0
    assert "24 vertices, 53 edges, cycle rank 30" in reduced.stdout
    full = run_cli("graph-info", QUADRUPLET, "--graph", "full")
    assert "37 vertices, 66 edges" in full.stdout


def test_stabiliser_maclane():
    result = run_cli("stabiliser", MACLANE)
    assert result.returncode == 0
    assert "Z/3 ⊕ Z^35" in result.stdout
    assert "ambient rank: 91" in result.stdout


def test_stabiliser_quadruplet():
    result = run_cli("stabiliser", QUADRUPLET)
    assert result.returncode == 0
    assert "Z/5 ⊕ Z^119" in result.stdout


@pytest.mark.parametrize("kind", list(GraphKind), ids=lambda k: k.value)
@pytest.mark.parametrize("name", ["maclane", "quadruplet", "rybnikov"])
def test_stabiliser_report_is_the_library_stabiliser(name, kind, capsys):
    """The command reads its group off the echelon split; every field must
    still be the library stabiliser's, on the report and on the lines."""
    path = str(files("linestab") / "data" / (name + ".json"))
    assert cli.main(["stabiliser", "--graph", kind.value, path, "--json"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    s = stabiliser(build_graph(getattr(datasets, name)(), kind))
    assert result == {"graph": kind.value, "group": str(s.group),
                      "ambient_rank": s.ambient_rank, "relations": s.relations.rows,
                      "cycle_rank": s.basis.rank}
    assert cli.main(["stabiliser", "--graph", kind.value, path]) == 0
    assert capsys.readouterr().out.splitlines()[:4] == [
        "stabiliser group: %s" % s.group, "ambient rank: %d" % s.ambient_rank,
        "relations: %d" % s.relations.rows, "cycle rank: %d" % s.basis.rank]


def test_stabiliser_rejects_pencil(tmp_path):
    pencil = tmp_path / "pencil.json"
    pencil.write_text(json.dumps({"n_lines": 3, "points": [[0, 1, 2]]}))
    result = run_cli("stabiliser", str(pencil))
    assert result.returncode == 4
    assert "not supported" in result.stderr


def _maclane_argv(tmp_path, command):
    """Arguments that run a command on MacLane: zero inclusion data for
    reduce, compare and lln, and the canonical ordering against the one
    with every neighbour list reversed for transition."""
    if command in ("reduce", "compare", "lln"):
        kind = GraphKind.FULL if command == "lln" else GraphKind.REDUCED
        g = build_graph(maclane(), kind)
        zero = write_incl(tmp_path / "zero.json", g, zero_matrix(g))
        return [command, MACLANE] + [zero] * (2 if command == "compare" else 1)
    if command == "transition":
        g = reduced_graph(maclane())
        canonical = tmp_path / "canonical.json"
        canonical.write_text(json.dumps({"order": {}}))
        reversed_ = tmp_path / "reversed.json"
        reversed_.write_text(json.dumps({"order": {
            g.labels[v]: [g.labels[w] for w in reversed(row)]
            for v, row in enumerate(g.neighbours)}}))
        return [command, MACLANE, str(canonical), str(reversed_)]
    return [command, MACLANE]


def _json_under_two_hash_seeds(tmp_path, command):
    """Run a command on MacLane with --json under PYTHONHASHSEED 0 and 1,
    require the same report, messages and exit code, and return the report."""
    argv = [sys.executable, "-m", "linestab.cli",
            *_maclane_argv(tmp_path, command), "--json"]
    first, second = (
        subprocess.run(argv, capture_output=True, text=True,
                       env={**os.environ, "PYTHONHASHSEED": seed})
        for seed in ("0", "1")
    )
    assert first.returncode == 0
    assert (first.stdout, first.stderr, first.returncode) == (
        second.stdout, second.stderr, second.returncode)
    assert "elapsed" not in first.stdout
    doc = json.loads(first.stdout)
    assert doc["command"] == command
    return doc


def test_json_output_is_byte_stable(tmp_path):
    doc = _json_under_two_hash_seeds(tmp_path, "stabiliser")
    assert doc["result"]["group"] == "Z/3 ⊕ Z^35"
    assert doc["result"]["cycle_rank"] == 13
    digest, = doc["inputs"].values()
    assert digest.startswith("sha256:")


@pytest.mark.parametrize(
    "command", [c.name for c in cli.COMMANDS if c.name != "stabiliser"])
def test_json_output_of_every_command_is_byte_stable(tmp_path, command):
    _json_under_two_hash_seeds(tmp_path, command)


def test_reduce_zero_class(tmp_path):
    g = reduced_graph(maclane())
    incl = write_incl(tmp_path / "zero.json", g, zero_matrix(g))
    result = run_cli("reduce", MACLANE, incl, "--json")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["result"]["zero"] is True
    assert set(doc["result"]["coords"]) == {0}


def test_compare_verdict_exit_codes(tmp_path):
    g = reduced_graph(maclane())
    zero = write_incl(tmp_path / "a.json", g, zero_matrix(g))
    bumped = zero_matrix(g)
    bumped[0][0] = 1
    other = write_incl(tmp_path / "b.json", g, bumped)
    equal = run_cli("compare", MACLANE, zero, zero)
    assert equal.returncode == 0
    assert "verdict: Equal" in equal.stdout
    distinct = run_cli("compare", MACLANE, zero, other)
    assert distinct.returncode == 3
    assert "verdict: Distinct" in distinct.stdout


def test_compare_rejects_kind_mismatch(tmp_path):
    g = reduced_graph(maclane())
    gf = build_graph(maclane(), GraphKind.FULL)
    zero = write_incl(tmp_path / "a.json", g, zero_matrix(g))
    full = write_incl(tmp_path / "b.json", gf, zero_matrix(gf))
    result = run_cli("compare", MACLANE, zero, full)
    assert result.returncode == 2


def test_transition_rotation_is_zero(tmp_path):
    g = reduced_graph(maclane())
    ord_id = tmp_path / "id.json"
    ord_id.write_text(json.dumps({"order": {}}))
    rotated = [g.labels[w] for w in g.neighbours[0][1:] + g.neighbours[0][:1]]
    ord_rot = tmp_path / "rot.json"
    ord_rot.write_text(json.dumps({"order": {"L0": rotated}}))
    result = run_cli("transition", MACLANE, str(ord_id), str(ord_rot), "--json")
    assert result.returncode == 0
    assert json.loads(result.stdout)["result"]["zero"] is True


def test_pi1_abelianisation():
    result = run_cli("pi1", MACLANE, "--json")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["result"]["abelianisation"] == "Z^20"
    assert len(doc["result"]["generators"]) == 29
    human = run_cli("pi1", MACLANE)
    assert "abelianisation: Z^20" in human.stdout
    assert "generators:" in human.stdout


def test_pi1_with_ordering_file(tmp_path):
    g = reduced_graph(maclane())
    flipped = [g.labels[w] for w in reversed(g.neighbours[0])]
    ord_file = tmp_path / "ord.json"
    ord_file.write_text(json.dumps({"order": {"L0": flipped}}))
    result = run_cli("pi1", MACLANE, "--ordering", str(ord_file), "--json")
    assert result.returncode == 0
    assert json.loads(result.stdout)["result"]["abelianisation"] == "Z^20"


def _ordering_argv(tmp_path, command, order):
    """Arguments that hand {"order": order} to a command: as an ordering
    file to transition and pi1, embedded in an inclusion file to reduce."""
    doc = {"order": order}
    path = tmp_path / "ord.json"
    if command == "reduce":
        g = reduced_graph(maclane())
        return ["reduce", MACLANE, write_incl(path, g, zero_matrix(g), ordering=doc)]
    path.write_text(json.dumps(doc))
    if command == "pi1":
        return ["pi1", MACLANE, "--ordering", str(path)]
    return ["transition", MACLANE, str(path), str(path)]


def _l0_row_with(label):
    g = reduced_graph(maclane())
    row = [g.labels[w] for w in g.neighbours[0]]
    row[1] = label
    return row


@pytest.mark.parametrize("command", ["transition", "pi1", "reduce"])
@pytest.mark.parametrize("label", [None, 0, ["L1"]], ids=["null", "zero", "list"])
def test_ordering_label_that_is_no_string_is_malformed(tmp_path, capsys, command, label):
    argv = _ordering_argv(tmp_path, command, {"L0": _l0_row_with(label)})
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: ordering at L0 must be a list of labels\n"


@pytest.mark.parametrize("command", ["transition", "pi1", "reduce"])
def test_unknown_ordering_label_is_invalid(tmp_path, capsys, command):
    argv = _ordering_argv(tmp_path, command, {"L0": _l0_row_with("L99")})
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "invalid: unknown vertex label 'L99'\n"


def _maclane_file(kind):
    """A valid file of each kind that the CLI reads, for MacLane's reduced graph."""
    g = reduced_graph(maclane())
    order = {"order": {g.labels[v]: [g.labels[w] for w in g.neighbours[v]]
                       for v in range(g.vertex_count)}}
    if kind == "combinatorics":
        return {"n_lines": 8, "points": [list(p) for p in maclane().points]}
    if kind == "ordering":
        return order
    matrix = zero_matrix(g)
    return {"cycles": len(matrix), "matrix": matrix, "basis": BASIS_TAG, "ordering": order}


@pytest.mark.parametrize("kind, key, argv", [
    ("combinatorics", "n_lines", ["validate", "{}"]),
    ("ordering", "order", ["transition", MACLANE, "{}", "{}"]),
    ("ordering", "L0", ["pi1", MACLANE, "--ordering", "{}"]),
    ("inclusion", "cycles", ["reduce", MACLANE, "{}"]),
    ("inclusion", "L0", ["reduce", MACLANE, "{}"]),  # in the embedded ordering
], ids=["combinatorics", "ordering", "ordering-label", "inclusion", "inclusion-ordering"])
@pytest.mark.parametrize("flaw", ["repeat", "NaN", "Infinity", "-Infinity"])
def test_repeated_keys_and_non_json_constants_are_parse_errors(tmp_path, capsys, kind, key,
                                                               argv, flaw):
    path = tmp_path / "flawed.json"
    text = json.dumps(_maclane_file(kind))
    path.write_text(text)
    argv = [str(path) if a == "{}" else a for a in argv]
    assert cli.main(argv) == 0
    capsys.readouterr()
    member = '"%s": ' % key
    if flaw == "repeat":
        spliced, message = member + "0, " + member, "JSON object repeats the key %r" % key
    else:
        spliced, message = '"note": %s, ' % flaw + member, "%s is not a JSON number" % flaw
    path.write_text(text.replace(member, spliced, 1))
    assert cli.main(argv) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: %s\n" % message


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_non_json_constant_for_a_number_is_a_parse_error(tmp_path, constant):
    path = tmp_path / "comb.json"
    path.write_text('{"n_lines": %s, "points": [[0, 1], [0, 2], [1, 2]]}' % constant)
    result = run_cli("validate", str(path))
    assert result.returncode == 1
    assert result.stderr == "error: %s is not a JSON number\n" % constant


def test_tlg_maclane():
    result = run_cli("tlg", MACLANE, "--json")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["result"]["rank"] == 3
    assert doc["result"]["ambient_rank"] == 91
    assert doc["result"]["generator_forms"] == 216


def test_lln_zero_inclusion(tmp_path):
    gf = build_graph(maclane(), GraphKind.FULL)
    incl = write_incl(tmp_path / "zero.json", gf, zero_matrix(gf))
    result = run_cli("lln", MACLANE, incl, "--json")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["result"]["zero"] is True
    assert doc["result"]["values"] == [0, 0, 0]


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
