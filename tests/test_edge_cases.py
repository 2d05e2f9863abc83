"""Adversarial canonicalization cases, cross-module consistency, concurrency smoke,
the public refusals no other test reaches, and the package's public names."""

import pkgutil
import random
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as F
from types import ModuleType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rayspace
from rayspace import (
    CapExceededError,
    ClosedSubset,
    Edge,
    InvalidGraphError,
    OpenRegion,
    ParseError,
    PreconditionError,
    RayGraph,
    ball,
    canonical_element,
    component_count,
    component_count_formula,
    continuity_witness,
    direction_set,
    enumerate_sets,
    base_model,
    eval_path,
    gamma_path,
    graph_from_parts,
    hausdorff,
    in_cn,
    is_infinite,
    lipschitz_bound,
    member_basic,
    member_upper,
    model_report,
    oracle_components,
    oracle_hausdorff,
    parse_graph,
    parse_region,
    parse_set,
    parse_wedge_expr,
    path_to_canonical,
    point_distance,
    same_component_hausdorff,
    union,
    union_regions,
    wedge,
)
from rayspace.cli import run
from rayspace.graph import GraphPoint
from rayspace.paths import F2, covering_walk

from conftest import GRAPH_TEXTS, child_env, random_ray_graph, random_subset


def test_loop_degenerate_aliases(graphs):
    g = graphs["G_LOOP"]
    # coord 0 and coord 1 are the same vertex on a loop
    assert parse_set("E1:{0}", g) == parse_set("E1:{1}", g)
    assert parse_set("E1:{1}", g).render() == "E1:{0}"
    assert parse_set("E1:{1} E1:[0,1/4]", g) == parse_set("E1:[0,1/4]", g)
    assert union(parse_set("E1:[0,1/2]", g), parse_set("E1:[1/2,1]", g)).render() == "E1:[0,1]"


def test_tail_chain_absorption(graphs):
    g = graphs["G_R"]
    A = parse_set("R1:[0,1] R1:[3/2,2] R1:[2,inf)", g)
    assert A.render() == "R1:[0,1] R1:[3/2,inf)"
    B = union(A, parse_set("R1:[1,3/2]", g))
    assert B.render() == "R1:[0,inf)"


def test_degenerate_interior_points_survive(graphs):
    g = graphs["G_I"]
    A = parse_set("E1:{1/3} E1:{2/3}", g)
    assert A.render() == "E1:{1/3} E1:{2/3}"
    assert hausdorff(g, A, parse_set("E1:{1/3}", g)) == F(1, 3)


def test_render_parse_roundtrip_random(graphs):
    rng = random.Random(321)
    for g in graphs.values():
        for _ in range(30):
            A = random_subset(g, rng)
            assert parse_set(A.render(), g) == A


def test_full_connecting_path_traversal(graphs):
    g = graphs["G_MIXED"]
    rng = random.Random(8)
    for _ in range(8):
        A = random_subset(g, rng, tails_on=frozenset({1}))
        B = random_subset(g, rng, tails_on=frozenset({1}))
        res = same_component_hausdorff(g, A, B, 8)
        assert res.same_component
        P = res.path
        assert eval_path(P, 0) == A
        assert eval_path(P, 1) == B
        for k in range(13):
            val = eval_path(P, F(k, 12))
            assert direction_set(g, val) == frozenset({1})


def test_classification_matches_direction_comparison(graphs):
    rng = random.Random(4711)
    g = graphs["G_NOOSE"]
    for _ in range(40):
        A = random_subset(g, rng)
        B = random_subset(g, rng)
        res = same_component_hausdorff(g, A, B, 10)
        same_dirs = direction_set(g, A) == direction_set(g, B)
        assert res.same_component == same_dirs
        assert res.same_component == (not is_infinite(hausdorff(g, A, B)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_classification_matches_direction_comparison_on_random_graphs(seed):
    rng = random.Random(seed)
    g = random_ray_graph(rng)
    A = random_subset(g, rng)
    B = random_subset(g, rng)
    res = same_component_hausdorff(g, A, B, max(component_count(g, A), component_count(g, B)))
    same_dirs = direction_set(g, A) == direction_set(g, B)
    assert res.same_component == same_dirs
    assert res.same_component == (not is_infinite(hausdorff(g, A, B)))


def test_covering_walk_from_interior_point(graphs):
    g = graphs["G_I"]
    legs = covering_walk(g, GraphPoint("E1", F(1, 4)))
    assert legs[0] == ("E1", F(1, 4), F(0))
    assert sum(abs(b - a) for _, a, b in legs) == F(1, 4) + 2
    full = F2(g, parse_set("E1:{1/4}", g), legs).at(1)
    assert full == parse_set("E1:[0,1]", g)


def test_interior_start_path_reaches_core(graphs):
    g = graphs["G_I"]
    A = parse_set("E1:[3/8,5/8]", g)
    P = path_to_canonical(g, A, 1)
    assert eval_path(P, 1) == parse_set("E1:[0,1]", g)
    for k in range(9):
        assert direction_set(g, eval_path(P, F(k, 8))) == frozenset()


def test_mixed_graph_census_matches_formula(graphs):
    g = graphs["G_MIXED"]
    res = oracle_components(g, F(1, 2), F(1), F(3, 5), 2, 1)
    assert res.count == 4  # two rays: 2^2 classes, each one component
    assert all(c == 1 for c in res.group_counts.values())


def test_concurrent_evaluation_is_deterministic(graphs):
    g = graphs["G_MIXED"]
    rng = random.Random(99)
    sets = [random_subset(g, rng) for _ in range(12)]
    pairs = [(a, b) for a in sets for b in sets]
    serial = [hausdorff(g, a, b) for a, b in pairs]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(lambda ab: hausdorff(g, *ab), pairs))
    assert serial == threaded

    A = random_subset(g, rng, tails_on=frozenset({2}))
    P = path_to_canonical(g, A, 8)
    ts = [F(k, 96) for k in range(97)]
    serial_vals = [eval_path(P, t) for t in ts]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded_vals = list(pool.map(lambda t: eval_path(P, t), ts))
    assert serial_vals == threaded_vals


def test_point_distance_on_long_loop(graphs):
    g = graphs["G_MIXED"]  # loop L1 at v has length 2
    p, q = GraphPoint("L1", F(1, 4)), GraphPoint("L1", F(7, 4))
    assert point_distance(g, p, q) == F(1, 2)  # through v, not the long way
    assert point_distance(g, p, GraphPoint("L1", F(1))) == F(3, 4)


# ---- refusals --------------------------------------------------------------
# Each case takes the fixture graphs; G_LINE has two rays, so index 7 is unknown.


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        (lambda gs: union_regions([]), PreconditionError, "union of zero regions"),
        (lambda gs: union_regions([ball(gs["G_LINE"], GraphPoint("R1", 1), 1),
                                   ball(gs["G_STAR3"], GraphPoint("R1", 1), 1)]),
         PreconditionError, "OpenRegion does not belong"),
        (lambda gs: member_basic(parse_set("R1:[0,1]", gs["G_LINE"]), []),
         PreconditionError, "at least one region"),
        (lambda gs: parse_region("", gs["G_LINE"]), ParseError, "empty open-region literal"),
        (lambda gs: parse_region("ball E1 1", gs["G_LINE"]), ParseError, "(at token 2)"),
        (lambda gs: covering_walk(gs["G_LINE"], GraphPoint("R1", 1)),
         PreconditionError, "inside the rayless subgraph"),
        (lambda gs: component_count_formula(gs["G_LINE"], 0), PreconditionError, "positive integer"),
        (lambda gs: parse_set("R1:[1,2)", gs["G_LINE"]), ParseError, "half-open atom"),
        (lambda gs: canonical_element(gs["G_LINE"], frozenset({7})),
         PreconditionError, "unknown ray indices [7]"),
        (lambda gs: gamma_path(gs["G_LINE"], frozenset({7})),
         PreconditionError, "unknown ray indices [7]"),
        (lambda gs: oracle_hausdorff(gs["G_I"], parse_set("E1:[0,1]", gs["G_I"]),
                                     parse_set("E1:{0}", gs["G_I"]), F(0), F(4)),
         PreconditionError, "grid step h must be positive"),
        (lambda gs: parse_wedge_expr("(interval ray)"), ParseError, "expected '∨'"),
        (lambda gs: parse_wedge_expr("(interval v ray"), ParseError, "expected ')'"),
        # inputs of the wrong kind: each escaped or gave an inexact answer before
        (lambda gs: canonical_element(gs["G_LINE"], 7), PreconditionError, "is a set, got int"),
        (lambda gs: gamma_path(gs["G_LINE"], 7), PreconditionError, "a direction set is a set"),
        (lambda gs: canonical_element(gs["G_LINE"], {True}),
         PreconditionError, "unknown ray indices [True]"),
        (lambda gs: ball(gs["G_LINE"], GraphPoint("R1", 0.1), F(1)),
         PreconditionError, "an int or a Fraction, got float"),
        (lambda gs: OpenRegion(gs["G_LINE"], ((GraphPoint("R1", F(1)), 0.5),)),
         PreconditionError, "expected an int or a Fraction"),
        (lambda gs: in_cn(gs["G_LINE"], parse_set("R1:[0,1]", gs["G_LINE"]), 2.5),
         PreconditionError, "n must be a positive integer"),
        (lambda gs: eval_path(gamma_path(gs["G_LINE"], frozenset()), 0.5),
         PreconditionError, "got float"),
        (lambda gs: ClosedSubset.from_pieces(gs["G_LINE"], {"R1": [(0.0, 1.5)]}),
         PreconditionError, "Fraction, got float"),
        (lambda gs: oracle_components(gs["G_R"], 0.5, F(2), F(3, 5), 1, 1),
         PreconditionError, "or a Fraction, got float"),
        # escapes the library fuzzer (test_fuzz_api.py) found
        (lambda gs: union(None, parse_set("R1:[0,1]", gs["G_LINE"])),
         PreconditionError, "expected a RayGraph, got NoneType"),
        (lambda gs: point_distance(None, GraphPoint("R1", 1), GraphPoint("R2", 1)),
         PreconditionError, "expected a RayGraph"),
        (lambda gs: member_upper(parse_set("R1:[0,1]", gs["G_LINE"]), None),
         PreconditionError, "a RayGraph, got NoneType"),
        (lambda gs: union_regions([None]), PreconditionError, "RayGraph, got NoneType"),
        (lambda gs: RayGraph(("u", "v"), (Edge("E1", "u", "v", 0.5),), ()),
         PreconditionError, "int or a Fraction, got float"),
        (lambda gs: enumerate_sets(gs["G_R"], F(1, 2), F(1), 1, 1, None),
         PreconditionError, "cap must be a positive integer"),
        (lambda gs: oracle_hausdorff(gs["G_R"], parse_set("R1:[1,inf)", gs["G_R"]),
                                     parse_set("R1:[2,inf)", gs["G_R"]), F(1, 2), F(10**30)),
         CapExceededError, "over 4000000 samples"),
        # a text that is not a str, a lone region where a list belongs, and
        # a model, path or edge of the wrong shape
        (lambda gs: parse_graph(5), PreconditionError, "graph text must be a str, got int"),
        (lambda gs: parse_set(5, gs["G_LINE"]), PreconditionError, "set literal must be a str"),
        (lambda gs: parse_region(5, gs["G_LINE"]),
         PreconditionError, "region literal must be a str"),
        (lambda gs: parse_wedge_expr(5), PreconditionError, "wedge expression must be a str"),
        (lambda gs: member_basic(parse_set("R1:[0,1]", gs["G_LINE"]),
                                 ball(gs["G_LINE"], GraphPoint("R1", 1), 1)),
         PreconditionError, "list or tuple, got OpenRegion"),
        (lambda gs: union_regions(ball(gs["G_LINE"], GraphPoint("R1", 1), 1)),
         PreconditionError, "list or tuple, got OpenRegion"),
        (lambda gs: continuity_witness(gamma_path(gs["G_LINE"], frozenset()), F(1, 2),
                                       ball(gs["G_LINE"], GraphPoint("R1", 1), 1), F(1, 8)),
         PreconditionError, "list or tuple, got OpenRegion"),
        (lambda gs: union_regions([ball(gs["G_LINE"], GraphPoint("R1", 1), 1),
                                   parse_set("R1:[0,1]", gs["G_LINE"])]),
         PreconditionError, "list or tuple of OpenRegions"),
        (lambda gs: wedge(None, base_model("ray")), PreconditionError, "an HModel, got NoneType"),
        (lambda gs: model_report(None), PreconditionError, "expected an HModel"),
        (lambda gs: lipschitz_bound(None), PreconditionError, "a HyperPath or a Stage"),
        (lambda gs: eval_path(None, 0), PreconditionError, "a HyperPath, got NoneType"),
        (lambda gs: graph_from_parts(["u", "v"], [("E1", "u")]),
         InvalidGraphError, "an edge is (id, u, v[, length])"),
        (lambda gs: graph_from_parts(["u", "v"], [("E1", "u", "v")], [None]),
         InvalidGraphError, "a ray is (id, v)"),
        # ids that are not identifiers, and no parts at all
        (lambda gs: graph_from_parts([5]), InvalidGraphError, "bad identifier 5"),
        (lambda gs: graph_from_parts(["u", "v"], [(5, "u", "v")]),
         InvalidGraphError, "bad identifier 5"),
        (lambda gs: graph_from_parts(None), InvalidGraphError, "each come as an iterable"),
    ],
)
def test_public_refusals(graphs, call, error, fragment):
    with pytest.raises(error) as info:
        call(graphs)
    assert fragment in str(info.value)


@pytest.mark.parametrize(
    "argv, code, fragment",
    [
        (["validate", "--graph", "{dir}/missing.graph"], 2, "cannot read graph file"),
        (["validate", "--graph", "{dir}"], 2, "cannot read graph file"),
        (["path", "--graph", "{graph}", "--a", "R1:{{0}}", "-n", "1",
          "--emit-path", "{dir}/p.tsv", "--samples", "0"], 3, "--samples must be at least 1"),
    ],
)
def test_cli_refusals(tmp_path, capsys, argv, code, fragment):
    graph = tmp_path / "line.graph"
    graph.write_text(GRAPH_TEXTS["G_LINE"].replace("; ", "\n") + "\n")
    assert run([a.format(dir=tmp_path, graph=graph) for a in argv]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error kind=") and fragment in err[0]


def test_a_star_import_gives_every_public_name():
    # in a fresh process, where no module outside the three loaded at import is bound yet
    script = "import rayspace\nfrom rayspace import *\n" \
             "print([n for n in rayspace.__all__ if n not in globals()])"
    out = subprocess.run([sys.executable, "-c", script], env=child_env(), capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["[]"]


def test_each_public_name_is_its_defining_modules():
    assert len(rayspace.__all__) == len(set(rayspace.__all__))
    assert set(rayspace.__all__) <= set(dir(rayspace))
    for name in rayspace.__all__:
        value = getattr(rayspace, name)
        owner = getattr(value, "__module__", "")
        if not owner.startswith("rayspace."):  # INF and ExtendedDistance name no module of ours
            owner = f"rayspace.{rayspace._MODULE_OF[name]}"
        assert getattr(sys.modules[owner], name) is value, name


def test_the_public_names_hold_no_submodule():
    # ``wedge`` names a submodule and a public function; the package binds the function
    submodules = {m.name for m in pkgutil.iter_modules(rayspace.__path__)}
    assert submodules & set(rayspace.__all__) == {"wedge"}
    assert [n for n in rayspace.__all__ if isinstance(getattr(rayspace, n), ModuleType)] == []
