"""Fuzzing `cli.main`: every command, fed arbitrary JSON or an empty path
as each file argument, ends with one of the documented exit codes and
never raises."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linestab import cli, datasets
from linestab.inclusion import BASIS_TAG


def _comb_text(c):
    return json.dumps({"n_lines": c.n_lines, "points": [list(p) for p in c.points]})


scalars = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
)
values = st.recursive(
    scalars,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=4), kids, max_size=4),
    max_leaves=10,
)
# Plausible small integers, or anything at all.
small = st.integers(-1, 6) | values
labels = st.sampled_from(["L0", "L1", "L2", "L3", "P0", "P5", "X"])

combinatorics_docs = st.fixed_dictionaries(
    {"n_lines": small, "points": st.lists(st.lists(small, max_size=4), max_size=8) | values}
)
ordering_docs = st.fixed_dictionaries(
    {"order": st.dictionaries(labels | st.text(max_size=3),
                              st.lists(labels | values, max_size=5) | values, max_size=3)
     | values}
)
# Matrices of generic(4)'s shapes: 3 cycles by 4 (reduced) or 10 (full)
# vertices, of integers only or of anything.
matrices = st.tuples(
    st.sampled_from([4, 10]), st.sampled_from([st.integers(-2, 2), small])
).flatmap(
    lambda shape: st.lists(
        st.lists(shape[1], min_size=shape[0], max_size=shape[0]), min_size=3, max_size=3
    )
)
inclusion_docs = st.fixed_dictionaries(
    {"cycles": st.just(3) | small, "matrix": matrices | values,
     "basis": st.just(BASIS_TAG) | values},
    optional={
        "graph": st.sampled_from(["reduced", "full"]) | values,
        "ordering": ordering_docs | values,
    },
)
# Drawn in place of a document: the file argument is the empty path "".
EMPTY_PATH = object()
documents = st.one_of(
    values.map(json.dumps),
    combinatorics_docs.map(json.dumps),
    ordering_docs.map(json.dumps),
    inclusion_docs.map(json.dumps),
    st.just("[" * 100000 + "]" * 100000),
    st.text(max_size=8),
    st.just(EMPTY_PATH),
)


def half(a, b):
    """`a` half of the time, else `b` (`a | b` would flatten b's branches)."""
    return st.booleans().flatmap(lambda first: a if first else b)


# Valid arrangements half of the time (generic(3) warns, the pencil is
# unsupported), so that the other file arguments get parsed too.
combinatorics_files = half(
    st.sampled_from([_comb_text(datasets.generic(n)) for n in (3, 4)]
                    + [json.dumps({"n_lines": 3, "points": [[0, 1, 2]]})]),
    documents,
)
# Each other file argument gets a document of its own shape half of the time.
shaped = {"inclusion": half(inclusion_docs.map(json.dumps), documents),
          "ordering": half(ordering_docs.map(json.dumps), documents)}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_main_maps_every_input_to_an_exit_code(workdir, data):
    cmd = data.draw(st.sampled_from(cli.COMMANDS), label="command")
    argv = [cmd.name]

    def write(name, text):
        if text is EMPTY_PATH:
            return ""
        path = workdir / ("%s.json" % name)
        path.write_text(text, encoding="utf-8")
        return str(path)

    argv.append(write("combinatorics", data.draw(combinatorics_files, label="combinatorics")))
    for name in cmd.files:
        if name.startswith("--"):
            text = data.draw(st.none() | shaped[name[2:]], label=name)
            if text is not None:
                argv += [name, write(name[2:], text)]
        else:
            argv.append(write(name, data.draw(shaped[name.split("_")[0]], label=name)))
    if cmd.graph == cli.CHOSEN:
        argv += ["--graph", data.draw(st.sampled_from(["reduced", "full"]), label="graph")]
    if data.draw(st.booleans(), label="json"):
        argv.append("--json")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code in range(5)
