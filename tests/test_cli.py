import json
import subprocess
import sys
import textwrap
import time

import pytest

from rayspace import RayspaceError, cli
from rayspace.cli import MAX_PATH_SAMPLES, run

from conftest import GRAPH_TEXTS, child_env


@pytest.fixture
def graph_file(tmp_path):
    def write(name: str):
        p = tmp_path / f"{name}.graph"
        p.write_text(GRAPH_TEXTS[name].replace("; ", "\n") + "\n")
        return str(p)

    return write


def test_dist_infinite_pair(graph_file, capsys):
    gf = graph_file("G_R")
    code = run(["dist", "--graph", gf, "--a", "R1:[1/4,1/2]", "--b", "R1:[1/4,inf)"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "inf"


def test_dist_rational_output(graph_file, capsys):
    gf = graph_file("G_I")
    assert run(["dist", "--graph", gf, "--a", "E1:[0,1]", "--b", "E1:{1/2}"]) == 0
    assert capsys.readouterr().out.strip() == "1/2"
    assert run(["dist", "--graph", gf, "--a", "E1:{0}", "--b", "E1:[0,1]", "--directed"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_wedge_real_line(capsys):
    assert run(["wedge", "--expr", "(ray ∨ ray)"]) == 0
    out = capsys.readouterr().out
    assert "components 4" in out


def test_classify_self_constant_path(graph_file, capsys, tmp_path):
    gf = graph_file("G_LINE")
    dump = tmp_path / "path.tsv"
    code = run(
        ["classify", "--graph", gf, "--a", "R1:[0,2]", "--b", "R1:[0,2]", "-n", "1",
         "--emit-path", str(dump), "--samples", "8"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "same=true" in out and "path_stages=1" in out
    lines = dump.read_text().strip().splitlines()
    assert lines[0] == "t\tset"
    assert len(lines) == 1 + 9  # header + M+1 samples
    assert all(line.split("\t")[1] == "R1:[0,2]" for line in lines[1:])


def test_classify_witness_ray(graph_file, capsys):
    gf = graph_file("G_LINE")
    code = run(["classify", "--graph", gf, "--a", "R1:[0,inf)", "--b", "R2:[0,inf)", "-n", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "same=false" in out
    assert "witness_ray=1" in out
    assert "delta_a={1}" in out and "delta_b={2}" in out


def test_path_subcommand(graph_file, capsys):
    gf = graph_file("G_R")
    assert run(["path", "--graph", gf, "--a", "R1:[2,inf)", "-n", "1"]) == 0
    out = capsys.readouterr().out
    assert "stages=3" in out
    assert "kind=F0" in out and "lipschitz=2" in out
    assert "end=R1:[0,inf)" in out

    assert run(["path", "--graph", gf, "--a", "R1:{1}", "-n", "1", "--vietoris"]) == 0
    out = capsys.readouterr().out
    assert "stages=4" in out and "kind=GAMMA" in out


def test_vietoris_subcommand(graph_file, capsys):
    gf = graph_file("G_I")
    code = run(
        ["vietoris", "--graph", gf, "--a", "E1:[3/10,2/5]",
         "--open", "ball E1:1/2 3/10"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "upper=true" in out and "lower 1=true" in out and "basic=true" in out


def test_vietoris_witness(graph_file, capsys):
    gf = graph_file("G_LINE")
    code = run(
        ["vietoris", "--graph", gf, "--a", "R1:{0}",
         "--open", "all", "--witness", "1/2", "--res", "1/1000"]
    )
    assert code == 0
    assert "witness delta=1/2" in capsys.readouterr().out


@pytest.mark.parametrize(
    "spot, msg",
    [
        ("NOPE:0", "unknown element id 'NOPE'"),
        ("E1:-1", "negative coordinate on E1"),
        ("E1:2", "coordinate 2 exceeds length 1 of edge E1"),
    ],
)
def test_vietoris_bad_ball_center_is_parse_error(graph_file, capsys, spot, msg):
    gf = graph_file("G_I")
    code = run(["vietoris", "--graph", gf, "--a", "E1:{0}", "--open", f"ball {spot} 1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error kind=parse") and f"{msg} (at token 2)" in err


@pytest.mark.parametrize(
    "atom, msg",
    [
        ("ball E1:0 -1", "ball radius must be positive (at token 3)"),
        ("ball E1:0 0", "ball radius must be positive (at token 3)"),
        ("ball E1:0 1/0", "bad rational '1/0' (at token 3)"),
        ("ball E1:1/2 1 ball E1:x 1", "bad rational 'x' (at token 5)"),
    ],
)
def test_vietoris_bad_ball_radius_or_rational_has_position(graph_file, capsys, atom, msg):
    gf = graph_file("G_I")
    code = run(["vietoris", "--graph", gf, "--a", "E1:{0}", "--open", atom])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error kind=parse") and msg in err


# Each command on G_LINE, with the package modules it loads besides the CLI and
# what ``import rayspace`` loads (errors, graph, wedge and the record helper).
_COMMAND_MODULES = [
    (["validate"], set()),
    (["wedge", "--expr", "(circle ∨ ray)"], set()),
    (["dist", "--a", "R1:[0,1]", "--b", "R2:{1}"], {"sets", "metric"}),
    (["classify", "--a", "R1:[0,1]", "--b", "R1:[0,2]", "-n", "1"], {"sets", "metric", "paths"}),
    (["path", "--a", "R1:[0,1]", "-n", "1"], {"sets", "metric", "paths"}),
    (["vietoris", "--a", "R1:[0,1]", "--open", "all"], {"sets", "metric", "paths", "vietoris"}),
    (["oracle", "--step", "1/2", "--trunc", "1", "--delta", "3/5", "-n", "1"],
     {"sets", "metric", "oracle", "_kernels"}),
]


def test_each_command_loads_only_the_modules_it_runs(graph_file):
    gf = graph_file("G_LINE")
    script = textwrap.dedent("""
        import sys
        import rayspace.cli

        code = rayspace.cli.run(sys.argv[1:])
        print(code, *sorted(m for m in sys.modules if m.startswith("rayspace.") or m == "numpy"))
    """)
    base = {"rayspace._record", "rayspace.cli", "rayspace.errors", "rayspace.graph",
            "rayspace.wedge"}
    for argv, modules in _COMMAND_MODULES:
        if argv[0] != "wedge":
            argv = [argv[0], "--graph", gf, *argv[1:]]
        out = subprocess.run([sys.executable, "-c", script, *argv], env=child_env(),
                             capture_output=True, text=True, check=True).stdout.splitlines()
        code, *loaded = out[-1].split()
        expected = base | {f"rayspace.{m}" for m in modules}
        if argv[0] == "oracle":  # numpy loads with the oracle and with nothing else
            expected.add("numpy")
        assert (argv[0], code, set(loaded)) == (argv[0], "0", expected)


def test_a_cli_start_loads_no_heavy_stdlib(graph_file):
    # under -S, site's own imports do not count; json and traceback load only
    # for a JSON graph or an internal error, numpy only for the oracle
    gf = graph_file("G_LINE")
    script = textwrap.dedent(f"""
        import sys
        import rayspace.cli

        rayspace.cli.run(["dist", "--graph", {gf!r}, "--a", "R1:[0,1]", "--b", "R2:{{1}}"])
        print([m for m in ("dataclasses", "inspect", "json", "traceback", "numpy", "pathlib",
                           "typing")
               if m in sys.modules])
    """)
    out = subprocess.run([sys.executable, "-S", "-c", script], env=child_env(),
                         capture_output=True, text=True, check=True).stdout.splitlines()
    assert out == ["2", "[]"]


@pytest.mark.parametrize("suffix", [".graph", ".json"])
def test_a_graph_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys, suffix):
    p = tmp_path / f"g{suffix}"
    p.write_bytes(b'{"vertices": ["v\xff"]}' if suffix == ".json" else b"vertex v\xff\n")
    assert run(["validate", "--graph", str(p)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error kind=parse")
    assert "cannot read graph file" in err[0] and "can't decode byte 0xff" in err[0]


def test_oracle_subcommand(graph_file, capsys):
    gf = graph_file("G_LINE")
    code = run(
        ["oracle", "--graph", gf, "--step", "1/2", "--trunc", "2", "--delta", "3/5", "-n", "1"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "components=4" in out
    assert out.count("component ") == 4


def test_validate_subcommand(graph_file, capsys):
    gf = graph_file("G_NOOSE")
    assert run(["validate", "--graph", gf]) == 0
    out = capsys.readouterr().out
    assert "ok=true" in out and "loop" in out and "ray 1=R1 at v" in out


def test_json_graph_input(tmp_path, capsys):
    doc = {
        "vertices": ["u", "v"],
        "edges": [{"id": "E1", "u": "u", "v": "v", "length": "3/2"}],
        "rays": [{"id": "R1", "attach": "v"}],
    }
    p = tmp_path / "g.json"
    p.write_text(json.dumps(doc))
    assert run(["dist", "--graph", str(p), "--a", "E1:{0}", "--b", "R1:{1}"]) == 0
    assert capsys.readouterr().out.strip() == "5/2"


_JSON_EDGE = '{"id": "E1", "u": "u", "v": "v", "length": %s}'


@pytest.mark.parametrize("text, msg", [
    ("[]", "the top level is not an object"),
    ('{"vertices": ["u", "v"], "edges": [%s]}' % (_JSON_EDGE % '"1/0"'),
     "bad rational '1/0' (at edges[0])"),
    ('{"vertices": ["u", "v"], "edges": [%s]}' % (_JSON_EDGE % "1e400"),
     "bad rational 'inf' (at edges[0])"),
    ('{"vertices": [5]}', "bad identifier 5 (at vertices[0])"),
    ('{"vertices": ["u", "v"], "edges": [{"id": "E 1", "u": "u", "v": "v"}]}',
     "bad identifier 'E 1' (at edges[0])"),
    ("[" * 100_000 + "]" * 100_000, "bad JSON graph file: maximum recursion depth"),
    ('{"vertices": ["u", "v"], "edges": [%s]}' % (_JSON_EDGE % ("1" * 5000)),
     "bad JSON graph file: Exceeds the limit (4300 digits)"),
    ('{"vertices": ["u", "v"], "edges": [%s]}' % (_JSON_EDGE % "1e300"),
     "bad rational '1e+300' (at edges[0])"),
], ids=["top-level-list", "length-1/0", "length-1e400", "int-id", "spaced-id", "deep-nesting",
        "length-5000-digits", "length-1e300"])
def test_json_graph_errors_are_parse_errors(tmp_path, capsys, text, msg):
    p = tmp_path / "g.json"
    p.write_text(text)
    assert run(["validate", "--graph", str(p)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error kind=parse") and msg in err[0]


def test_oracle_cap_refused_before_building(tmp_path, capsys):
    import rayspace.oracle  # noqa: F401  (numpy's import is not what this times)

    p = tmp_path / "rays.graph"
    p.write_text("vertex v; ray R1 v; ray R2 v\n")
    for step in ("1/1000", "1/100000", "1/1000000000"):
        start = time.perf_counter()
        code = run(["oracle", "--graph", str(p), "--step", step, "--trunc", "1",
                    "--delta", "1/2", "-n", "1"])
        assert time.perf_counter() - start < 0.5  # building every layout at 1/1000 takes seconds
        err = capsys.readouterr().err.splitlines()
        assert code == 4 and len(err) == 1 and err[0].startswith("error kind=cap")


def test_oracle_fine_grid_refused_without_recursion(tmp_path, capsys):
    # 1201 grid points and up to 1200 pieces: the layouts are counted, not built
    import rayspace.oracle  # noqa: F401  (numpy's import is not what this times)

    p = tmp_path / "edge.graph"
    p.write_text("vertex u v\nedge E1 u v\n")
    start = time.perf_counter()
    code = run(["oracle", "--graph", str(p), "--step", "1/1200", "--trunc", "1",
                "--delta", "1/2", "-n", "1", "--max-pieces", "1200", "--cap", "800000"])
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err.splitlines()
    assert code == 4 and len(err) == 1 and err[0].startswith("error kind=cap")


@pytest.mark.parametrize("delta", ["1/2", "-1"])
def test_oracle_delta_below_margin_exits_3(tmp_path, capsys, delta):
    p = tmp_path / "rays.graph"
    p.write_text("vertex v; ray R1 v; ray R2 v\n")
    code = run(["oracle", "--graph", str(p), "--step", "1/2", "--trunc", "1",
                "--delta", delta, "-n", "1", "--cap", "10"])
    err = capsys.readouterr().err.splitlines()
    assert code == 3 and len(err) == 1
    assert err[0].startswith("error kind=precondition") and "connectivity margin" in err[0]


def test_invalid_graph_exits_2(tmp_path, capsys):
    p = tmp_path / "dup.graph"
    p.write_text("vertex u u\n")
    assert run(["validate", "--graph", str(p)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error kind=parse") and "duplicate vertex" in err[0]


@pytest.mark.parametrize("argv", [
    ["validate"], ["oracle", "--step", "1", "--trunc", "1", "--delta", "6/5", "-n", "1"],
    ["dist", "--a", "E1:{0}", "--b", "E1:{0}"],
], ids=["validate", "oracle", "dist"])
def test_graph_without_elements_exits_2(tmp_path, capsys, argv):
    p = tmp_path / "lone.graph"
    p.write_text("vertex u\n")
    assert run([argv[0], "--graph", str(p), *argv[1:]]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error kind=parse")
    assert "needs an edge or a ray" in err[0]


def test_exit_codes(graph_file, tmp_path, capsys):
    gf = graph_file("G_I")
    assert run(["dist", "--graph", gf]) == 1  # usage: missing --a/--b
    assert run(["dist", "--graph", gf, "--a", "E1:[oops]", "--b", "E1:{0}"]) == 2
    bad = tmp_path / "bad.graph"
    bad.write_text("vertex u\nvertex w\n")
    assert run(["validate", "--graph", str(bad)]) == 2  # disconnected
    assert run(["path", "--graph", gf, "--a", "E1:{0} E1:{1/2} E1:{1}", "-n", "2"]) == 3
    gs = graph_file("G_STAR3")
    assert (
        run(["oracle", "--graph", gs, "--step", "1/4", "--trunc", "2", "--delta", "3/5",
             "-n", "2", "--max-pieces", "3", "--cap", "100"])
        == 4
    )
    err = capsys.readouterr().err
    assert 'error kind=cap' in err


def test_wedge_nesting_depth_cap(capsys):
    expr = "interval"
    for _ in range(1200):
        expr = f"({expr} v interval)"
    assert run(["wedge", "--expr", expr]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error kind=parse") and "deeper than" in err


def test_wedge_locus_product_cap(capsys):
    expr = "ray"
    for _ in range(14):
        expr = f"({expr} v ray)"
    assert run(["wedge", "--expr", expr]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error kind=cap") and "8192 product pieces" in err


def test_deterministic_output(graph_file, capsys):
    gf = graph_file("G_LINE")
    args = ["oracle", "--graph", gf, "--step", "1/2", "--trunc", "1", "--delta", "3/5", "-n", "1"]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    assert capsys.readouterr().out == first


def test_path_vietoris_emit(graph_file, capsys, tmp_path):
    gf = graph_file("G_LINE")
    dump = tmp_path / "vp.tsv"
    code = run(["path", "--graph", gf, "--a", "R1:{0}", "-n", "1", "--vietoris",
                "--emit-path", str(dump), "--samples", "4"])
    assert code == 0
    lines = dump.read_text().strip().splitlines()
    assert len(lines) == 6
    assert lines[-1] == "1\tR1:[0,inf) R2:[0,inf)"  # the whole space at t=1


def test_vietoris_witness_failure_output(graph_file, capsys):
    # the composite path sits at {v} when t0=1/2, inside the tiny ball, but
    # every window down to delta 1/4 holds values escaping it
    gf = graph_file("G_LINE")
    code = run(["vietoris", "--graph", gf, "--a", "R1:[0,1]",
                "--open", "ball R1:0 1/1000",
                "--witness", "1/2", "--res", "1/4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "witness=failure" in out and "first_bad_t=" in out


def test_vietoris_witness_fine_resolution_is_fast(graph_file, capsys):
    # the resolution only sets the smallest delta reported; nothing is sampled
    gf = graph_file("G_LINE")
    start = time.perf_counter()
    code = run(["vietoris", "--graph", gf, "--a", "R1:{0}", "--open", "all",
                "--witness", "1/2", "--res", "1/1000000000"])
    assert code == 0
    assert time.perf_counter() - start < 1
    assert "witness delta=1/2" in capsys.readouterr().out


@pytest.mark.parametrize("region, t0, res, code", [
    ("all", "abc", "1/4", 2),
    ("all", "1/2", "x", 2),
    ("ball R1:5 1/10", "1/2", "1/4", 3),  # the value at t0 is outside the basic open
    ("all", "0", "2", 3),  # a resolution above the largest delta is refused
])
def test_failed_witness_prints_only_its_error_line(graph_file, capsys, region, t0, res, code):
    argv = ["vietoris", "--graph", graph_file("G_LINE"), "--a", "R1:[0,1]", "--open", region,
            "--witness", t0, "--res", res]
    assert run(argv) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error kind=")


def test_emit_path_samples_cap(graph_file, capsys, tmp_path):
    gf = graph_file("G_LINE")
    dump = tmp_path / "p.tsv"
    code = run(["path", "--graph", gf, "--a", "R1:{0}", "-n", "1",
                "--emit-path", str(dump), "--samples", str(MAX_PATH_SAMPLES + 1)])
    assert code == 4
    assert capsys.readouterr().err.startswith("error kind=cap")
    assert not dump.exists()


@pytest.mark.parametrize("command", [
    ["path", "--a", "R1:[0,1]", "-n", "1"],
    ["classify", "--a", "R1:[0,2]", "--b", "R1:[0,2]", "-n", "1"],
])
@pytest.mark.parametrize("target", ["missing/x.tsv", "."])  # no such folder; a directory
def test_failed_path_write_is_a_precondition_error(graph_file, capsys, tmp_path, command, target):
    argv = [*command, "--graph", graph_file("G_LINE"), "--emit-path", str(tmp_path / target)]
    assert run(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith('error kind=precondition msg="cannot write path file ')


@pytest.mark.parametrize("exc", [RayspaceError("stage invariant broken"), ZeroDivisionError("boom")])
def test_internal_errors_exit_5(monkeypatch, capsys, exc):
    def broken(args):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "wedge", broken)
    assert run(["wedge", "--expr", "ray"]) == 5
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f'error kind=internal msg="{type(exc).__name__} at test_cli.py:')
    assert err[0].endswith(f'{exc}"')


@pytest.mark.parametrize("argv, msg", [
    (["dist", "--a", "R1:{1e5000}", "--b", "R2:{0}"], "bad rational '1e5000' (at atom 1"),
    (["dist", "--a", "R1:[0,1E2]", "--b", "R2:{0}"], "bad rational '1E2' (at atom 1"),
    (["vietoris", "--a", "R1:{0}", "--open", "ball R1:1e3 1"], "bad rational '1e3' (at token 2)"),
    (["vietoris", "--a", "R1:{0}", "--open", "all", "--witness", "1/2", "--res", "1e10000000"],
     "bad rational '1e10000000' (at --res)"),
    (["oracle", "--step", "1e-1", "--trunc", "1", "--delta", "1/2", "-n", "1"],
     "bad rational '1e-1' (at --step)"),
], ids=["set-point", "set-interval", "ball-center", "res", "step"])
def test_exponent_notation_is_refused(graph_file, capsys, argv, msg):
    # 1e10000000 took seconds to build as a Fraction, and 1e5000 printed past
    # the interpreter's 4300-digit limit
    start = time.perf_counter()
    assert run([argv[0], "--graph", graph_file("G_LINE"), *argv[1:]]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error kind=parse") and msg in err[0]


def test_exponent_notation_is_refused_in_graph_lengths(tmp_path, capsys):
    p = tmp_path / "g.graph"
    p.write_text("vertex u v\nedge E1 u v length 1e10000000\n")
    assert run(["validate", "--graph", str(p)]) == 2
    assert "bad rational '1e10000000' (at line 2)" in capsys.readouterr().err


def test_decimals_are_still_read_exactly(graph_file, capsys):
    assert run(["dist", "--graph", graph_file("G_LINE"), "--a", "R1:{0.25}", "--b", "R2:{.5}"]) == 0
    assert capsys.readouterr().out.strip() == "3/4"


@pytest.mark.parametrize("argv", [
    ["dist", "--graph", "G_LINE", "--a=--", "--b", "R1:{0}"],
    ["path", "--graph", "G_LINE", "--a", "R1:{0}", "-n=--"],
    ["vietoris", "--graph", "G_LINE", "--a", "R1:{0}", "--open=--"],
    ["wedge", "--expr=--"],
], ids=["set", "int", "append", "wedge"])
def test_double_dash_as_option_value_is_usage_error(graph_file, capsys, argv):
    # argparse drops a '--' written as '--opt=--' and stores [] in its place
    argv = [graph_file(a) if a == "G_LINE" else a for a in argv]
    assert run(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error kind=usage") and "expected one argument" in err[0]


def test_result_past_the_int_string_limit_is_a_cap_error(tmp_path, capsys):
    # two short point literals whose distance has a 4401-digit denominator;
    # the interpreter's own limit stays as it is
    limit = sys.get_int_max_str_digits()
    gf = tmp_path / "line.graph"
    gf.write_text("vertex v\nray R1 v\nray R2 v\n")
    a, b = (f"R1:{{1/{10**2200 + k}}}" for k in (1, 3))
    assert run(["dist", "--graph", str(gf), "--a", a, "--b", b]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error kind=cap")
    assert "about 4401 digits" in err
    assert sys.get_int_max_str_digits() == limit
    # a result just inside the limit still prints in full
    a, b = (f"R1:{{1/{10**2149 + k}}}" for k in (1, 3))
    assert run(["dist", "--graph", str(gf), "--a", a, "--b", b]) == 0
    assert len(capsys.readouterr().out.strip()) == 1 + 1 + 4299
