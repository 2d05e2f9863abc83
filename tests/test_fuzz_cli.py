"""Grammar-biased fuzzing of every literal the command line reads.

Set, region, graph (text and JSON) and wedge literals and the rational flags
go through ``cli.run``.  Each run must print an answer or one ``error
kind=...`` line, with exit code 0-4; exit code 5 marks an internal error,
which is a bug.  Literals are built from the grammar's atoms and statements
with fuzzed numbers, ids and fragments mixed in, so many of them parse and
reach the commands behind the parsers.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rayspace.cli import run

from conftest import GRAPH_TEXTS

NUMBER_PARTS = ["0", "1", "2", "3", "12", "/", ".", "e", "E", "-", "+", "_", "inf"]
SET_PARTS = NUMBER_PARTS + ["E1", "R1", "X", ":", "[", "]", "{", "}", ")", ",", " "]


def _fuzz(parts: list[str], max_size: int):
    return st.one_of(
        st.lists(st.sampled_from(parts), max_size=max_size).map("".join),
        st.text(alphabet="".join(sorted(set("".join(parts)))), max_size=max_size),
    )


def _mostly(valid, wild):
    """Draw from ``valid`` about nine times in ten, else from ``wild``."""
    return st.integers(0, 9).flatmap(lambda k: wild if k == 7 else valid)


wild_rationals = st.one_of(
    st.sampled_from(["0.5", ".25", "1.", "-1", "1/0", "1e2", "inf", ""]), _fuzz(NUMBER_PARTS, 6)
)


def _rationals(top):
    return _mostly(st.fractions(min_value=0, max_value=top, max_denominator=6).map(str),
                   wild_rationals)


rationals = _rationals(2)
# valid resolutions, and malformed or out-of-range ones
resolutions = st.one_of(
    st.sampled_from(["1/2", "1/10", "1/64", "0.05", "0", "-1/8", "1e-3", "x"]),
    st.lists(st.sampled_from(NUMBER_PARTS), min_size=1, max_size=4).map("".join),
)


def _atoms(eid: str, length: str | None):
    """Point, interval and (on a ray) tail atoms on one element."""
    coord = _rationals(length or 3)
    atoms = [st.builds(f"{eid}:{{{{{{}}}}}}".format, coord),
             st.builds(f"{eid}:[{{}},{{}}]".format, coord, coord)]
    if length is None:
        atoms.append(st.builds(f"{eid}:[{{}},inf)".format, coord))
    return st.one_of(atoms)


def _literals(elements: dict[str, str | None]):
    """Set literals over the given elements (id -> edge length, None for a ray)."""
    atom = _mostly(
        st.sampled_from(sorted(elements.items())).flatmap(lambda el: _atoms(*el)),
        _fuzz(SET_PARTS, 10),
    )
    return st.lists(atom, min_size=1, max_size=3).map(" ".join)


mixed_sets = _literals({"E1": "1", "E2": "3/2", "L1": "2", "R1": None, "R2": None})
line_sets = _literals({"R1": None, "R2": None})
regions = st.lists(
    _mostly(
        st.builds("ball {}:{} {}".format, st.sampled_from(["R1", "R2"]), rationals, rationals),
        st.one_of(st.just("all"), _fuzz(NUMBER_PARTS + ["ball", "R1", ":", " "], 8)),
    ),
    min_size=1,
    max_size=3,
).map(" ".join)
ids = _mostly(st.sampled_from(["u", "v", "w"]), _fuzz(SET_PARTS, 3))
graph_texts = st.builds(
    "{}{}".format,
    st.sampled_from(["vertex u v w\nedge E0 u v\nedge E9 v w\n", ""]),
    st.lists(
        _mostly(
            st.one_of(
                st.builds("vertex {}".format, ids),
                st.builds("edge E{} {} {}".format, st.integers(1, 3), ids, ids),
                st.builds("edge E{} {} {} length {}".format, st.integers(1, 3), ids, ids,
                          rationals),
                st.builds("ray R{} {}".format, st.integers(1, 2), ids),
            ),
            _fuzz(NUMBER_PARTS + ["vertex", "edge", "ray", "length", "u", " ", "#"], 8),
        ),
        max_size=5,
    ).map(lambda stmts: "\n".join(s.replace(";", "") for s in stmts)),
)
wedges = _mostly(
    st.recursive(
        st.sampled_from(["interval", "circle", "ray"]),
        lambda inner: st.builds("({} {} {})".format, inner, st.sampled_from(["∨", "v"]), inner),
        max_leaves=5,
    ),
    _fuzz(["(", ")", "∨", "v", " ", "interval", "circle", "ray", "x"], 14),
)


@pytest.fixture(scope="module")
def graph_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    paths = {}
    for name in ("G_R", "G_LINE", "G_MIXED"):
        paths[name] = root / f"{name}.graph"
        paths[name].write_text(GRAPH_TEXTS[name].replace("; ", "\n") + "\n")
    paths["text"] = root / "fuzzed.graph"
    paths["json"] = root / "fuzzed.json"
    return {name: str(p) for name, p in paths.items()}


def _check(argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    lines = err.getvalue().splitlines()
    assert 0 <= code <= 4 and len(lines) <= 1, (argv, code, lines)
    assert (code == 0) == (lines == []), (argv, code, lines)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(a=mixed_sets, b=mixed_sets, n=st.integers(min_value=-1, max_value=3))
def test_fuzzed_set_literals(graph_files, a, b, n):
    g = graph_files["G_MIXED"]
    _check(["dist", "--graph", g, f"--a={a}", f"--b={b}"])
    _check(["path", "--graph", g, f"--a={a}", "-n", str(n)])
    _check(["classify", "--graph", g, f"--a={a}", f"--b={b}", "-n", str(n)])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(region=regions, a=line_sets, t0=rationals, res=resolutions)
def test_fuzzed_regions_and_witness_flags(graph_files, region, a, t0, res):
    g = graph_files["G_LINE"]
    _check(["vietoris", "--graph", g, f"--a={a}", f"--open={region}"])
    _check(["vietoris", "--graph", g, "--a=R1:[0,1]", f"--open={region}",
            f"--witness={t0}", f"--res={res}"])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(step=_mostly(st.sampled_from(["1", "1/2", "1/3"]), rationals),
       trunc=_mostly(st.sampled_from(["1", "2", "3/2"]), rationals),
       delta=_mostly(st.sampled_from(["3/5", "6/5", "2"]), rationals),
       n=st.integers(min_value=-1, max_value=3))
def test_fuzzed_oracle_flags(graph_files, step, trunc, delta, n):
    _check(["oracle", "--graph", graph_files["G_R"], f"--step={step}", f"--trunc={trunc}",
            f"--delta={delta}", "-n", str(n), "--cap", "500"])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(text=graph_texts, a=mixed_sets)
def test_fuzzed_graph_text(graph_files, text, a):
    path = graph_files["text"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    _check(["validate", "--graph", path])
    _check(["dist", "--graph", path, f"--a={a}", "--b=E0:{0}"])


_json_leaf = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), rationals)
_json_value = st.recursive(
    _json_leaf,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["id", "u", "v", "length", "attach"]), inner, max_size=5),
    ),
    max_leaves=8,
)
_json_edge = st.fixed_dictionaries(
    {"id": st.sampled_from(["E1", "E2", "R1", "u", 5]), "u": st.sampled_from(["u", "v", "w"]),
     "v": st.sampled_from(["u", "v"])},
    optional={"length": _json_leaf},
)
_json_docs = st.one_of(
    _json_value,
    st.fixed_dictionaries(
        {"vertices": st.one_of(st.just(["u", "v"]), _json_value)},
        optional={
            "edges": st.one_of(st.lists(_json_edge, max_size=3), _json_value),
            "rays": st.one_of(st.just([{"id": "R1", "attach": "v"}]), _json_value),
        },
    ),
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(doc=_json_docs)
def test_fuzzed_json_graphs(graph_files, doc):
    path = graph_files["json"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))
    _check(["validate", "--graph", path])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(expr=wedges)
def test_fuzzed_wedge_expressions(expr):
    _check(["wedge", f"--expr={expr}"])
