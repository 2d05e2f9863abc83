"""Wrong-kind fuzzing of every public library call: the twin of test_fuzz_cli.

Each case is a public callable with a valid call.  One argument of a gated
kind (a rational, a count, a direction set, a text, a list of regions, a
path's stages, a region's balls, or a graph, set, region, point, path or
wedge model) is replaced by a drawn wrong
value of that kind.  The call must still return an exact answer or raise a
``RayspaceError``: any other exception escapes the input gates, and a float
anywhere in a result other than ``INF`` means an exact layer went inexact.
``is_infinite``, which takes any value, is left out.
"""

from fractions import Fraction as F
from typing import Callable, NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rayspace as rs
from rayspace import INF, RayspaceError
from rayspace.graph import Edge, GraphPoint, RayGraph

from conftest import GRAPH_TEXTS

G = rs.parse_graph(GRAPH_TEXTS["G_MIXED"])  # edges u-v, a loop at v, rays R1 at u, R2 at v
OTHER = rs.parse_graph(GRAPH_TEXTS["G_STAR3"])  # rays R1-R3 at one vertex
SMALL = rs.parse_graph(GRAPH_TEXTS["G_R"])  # the oracle's graph: one ray

A = rs.parse_set("E1:[0,1/2] L1:{1} R1:[1,inf)", G)
B = rs.parse_set("E2:[1/2,1] R1:[2,inf) R2:[0,1]", G)
P_, Q = GraphPoint("E2", F(1, 2)), GraphPoint("R2", F(3))
U = rs.ball(G, GraphPoint("E1", F(0)), F(5))
V = rs.parse_region("ball R1:1 1/2", G)
PATH = rs.gamma_path(G, frozenset())
MODEL = rs.parse_wedge_expr("(ray ∨ interval)")
ORACLE_SET = rs.parse_set("R1:[0,1/2] R1:[1,inf)", SMALL)


class Case(NamedTuple):
    call: Callable
    kinds: tuple[str, ...]  # the kind of each positional argument
    args: tuple  # a valid call


CASES = {
    "point_distance": Case(rs.point_distance, ("graph", "point", "point"), (G, P_, Q)),
    "graph_from_parts length": Case(
        lambda x: rs.graph_from_parts(["u", "v"], [("E1", "u", "v", x)], [("R1", "v")]),
        ("number",), (F(3, 2),)),
    "RayGraph length": Case(
        lambda x: RayGraph(("u", "v"), (Edge("E1", "u", "v", x),), ()), ("number",), (F(2),)),
    "from_pieces": Case(
        lambda g, a, b, s: rs.ClosedSubset.from_pieces(g, {"E2": [(a, b)]}, {"R2": s}),
        ("graph", "number", "number", "number"), (G, F(1, 3), F(1), F(2))),
    "canonical_element": Case(rs.canonical_element, ("graph", "dirs"), (G, frozenset({2}))),
    "whole_space": Case(rs.whole_space, ("graph",), (G,)),
    "component_count": Case(rs.component_count, ("graph", "set"), (G, A)),
    "in_cn": Case(rs.in_cn, ("graph", "set", "count"), (G, A, 2)),
    "direction_set": Case(rs.direction_set, ("graph", "set"), (G, A)),
    "contains_point": Case(rs.contains_point, ("graph", "set", "point"), (G, A, P_)),
    "point coordinate": Case(
        lambda c: rs.contains_point(G, B, GraphPoint("R2", c)), ("number",), (F(1, 2),)),
    "is_subset": Case(rs.is_subset, ("graph", "set", "set"), (G, A, B)),
    "union": Case(rs.union, ("set", "set"), (A, B)),
    "parse_set": Case(rs.parse_set, ("text", "graph"), ("E1:[0,1] R2:{2}", G)),
    "dist_point_to_set": Case(rs.dist_point_to_set, ("graph", "point", "set"), (G, Q, A)),
    "directed_hausdorff": Case(rs.directed_hausdorff, ("graph", "set", "set"), (G, A, B)),
    "hausdorff": Case(rs.hausdorff, ("graph", "set", "set"), (G, A, B)),
    "path_to_canonical": Case(rs.path_to_canonical, ("graph", "set", "count"), (G, A, 3)),
    "vietoris_path": Case(rs.vietoris_path, ("graph", "set", "count"), (G, B, 3)),
    "same_component_hausdorff": Case(
        rs.same_component_hausdorff, ("graph", "set", "set", "count"), (G, A, B, 3)),
    "gamma_path": Case(rs.gamma_path, ("graph", "dirs"), (G, frozenset({1}))),
    "component_count_formula": Case(
        rs.component_count_formula, ("graph", "count"), (G, 2)),
    "eval_path": Case(rs.eval_path, ("path", "number"), (PATH, F(1, 3))),
    "lipschitz_bound": Case(rs.lipschitz_bound, ("path",), (PATH,)),
    "ball": Case(rs.ball, ("graph", "point", "number"), (G, P_, F(1))),
    "OpenRegion": Case(
        lambda g, p, r: rs.OpenRegion(g, ((p, r),)), ("graph", "point", "number"), (G, Q, F(2))),
    "OpenRegion balls": Case(rs.OpenRegion, ("graph", "balls"), (G, ((Q, F(2)), (P_, 1)))),
    "HyperPath": Case(rs.HyperPath, ("graph", "stages"), (G, PATH.stages)),
    "parse_region": Case(rs.parse_region, ("text", "graph"), ("ball E2:1/2 1", G)),
    "union_regions": Case(lambda u, v: rs.union_regions([u, v]), ("region", "region"), (U, V)),
    "union_regions list": Case(rs.union_regions, ("regions",), ([U, V],)),
    "member_upper": Case(rs.member_upper, ("set", "region"), (A, U)),
    "member_lower": Case(rs.member_lower, ("set", "region"), (B, V)),
    "member_basic": Case(
        lambda a, u, v: rs.member_basic(a, [u, v]), ("set", "region", "region"), (A, U, V)),
    "member_basic list": Case(rs.member_basic, ("set", "regions"), (A, (U, V))),
    "continuity_witness": Case(
        rs.continuity_witness, ("path", "number", "regions", "number"),
        (PATH, F(1, 2), [U], F(1, 8))),
    "enumerate_sets": Case(
        rs.enumerate_sets, ("graph", "number", "number", "count", "count", "count"),
        (SMALL, F(1, 2), F(1), 1, 1, 500)),
    "oracle_components": Case(
        rs.oracle_components,
        ("graph", "number", "number", "number", "count", "count", "count"),
        (SMALL, F(1, 2), F(1), F(3, 5), 1, 1, 500)),
    "oracle_hausdorff": Case(
        rs.oracle_hausdorff, ("graph", "set", "set", "number", "number"),
        (SMALL, ORACLE_SET, rs.parse_set("R1:[1/4,inf)", SMALL), F(1, 4), F(2))),
    "parse_graph": Case(rs.parse_graph, ("text",), (GRAPH_TEXTS["G_MIXED"],)),
    "base_model": Case(rs.base_model, ("text",), ("circle",)),
    "parse_wedge_expr": Case(rs.parse_wedge_expr, ("text",), ("((ray ∨ ray) ∨ circle)",)),
    "wedge": Case(rs.wedge, ("model", "model"), (MODEL, rs.base_model("circle"))),
    "model_report": Case(rs.model_report, ("model",), (MODEL,)),
    "model_stats": Case(rs.model_stats, ("model",), (MODEL,)),
    "model_components": Case(rs.model_components, ("model",), (MODEL,)),
}

_ints = st.integers(-10**6, 10**6)
WRONG = {
    "number": st.one_of(
        st.floats(),
        st.booleans(),
        st.none(),
        st.text(max_size=4),
        st.fractions(max_value=F(-1, 12), max_denominator=12),
        st.builds(lambda k, e, d: F(k * 10**e, d), st.integers(1, 9), st.integers(12, 40),
                  st.sampled_from([1, 3, 7])),
    ),
    "count": st.one_of(
        st.integers(max_value=0), st.booleans(), st.floats(), st.text(max_size=3), st.none()),
    "dirs": st.one_of(
        _ints,
        st.text(max_size=3),
        st.none(),
        st.sampled_from([{True}, frozenset({False}), {1.0}, [1], (2,)]),
        st.sets(st.text(max_size=2), min_size=1, max_size=2),
        st.sets(st.one_of(_ints.filter(lambda i: i not in (1, 2)), st.sampled_from([1, 2])),
                min_size=1, max_size=3).filter(lambda s: not s <= {1, 2}),
    ),
    "graph": st.sampled_from([None, OTHER]),
    "set": st.sampled_from(
        [None, rs.parse_set("R1:[0,1]", OTHER), rs.parse_set("R3:[0,inf)", OTHER)]),
    "region": st.sampled_from(
        [None, rs.ball(OTHER, GraphPoint("R3", F(1)), F(1)), rs.OpenRegion(OTHER, (), True)]),
    "point": st.sampled_from([None, GraphPoint("R3", F(1)), GraphPoint("L9", F(0))]),
    "text": st.one_of(
        st.text(alphabet="EVLR12:[],{}()/ -infbalvertxydgyc∨\n;#", max_size=12),
        st.integers(), st.floats(), st.none(), st.binary(max_size=4),
        st.lists(st.text(max_size=3), max_size=2)),
    "regions": st.sampled_from(
        [U, None, "ball R1:1 1", 7, [], [None], [A], [U, A], (U, rs.OpenRegion(OTHER, (), True)),
         {0: U}, {U}, iter([U])]),
    "path": st.sampled_from(
        [None, "gamma", 0, A, U, PATH.stages[0], rs.gamma_path(OTHER, frozenset({3}))]),
    "stages": st.sampled_from(
        [None, (1, 2), "ab", (), list(PATH.stages), (PATH.stages[0], None), (PATH,),
         rs.gamma_path(OTHER, frozenset({3})).stages]),
    "balls": st.sampled_from(
        [None, "ab", (1, 2), [(Q, F(1))], ((Q,),), ((Q, F(1), F(2)),), ((None, F(1)),),
         ((A, F(1)),), ((GraphPoint("R3", F(1)), F(1)),), ((Q, F(-1)),), ((Q, 0.5),)]),
    "model": st.sampled_from([None, "ray", 3, A, PATH, rs.model_stats(MODEL)]),
}

calls = st.sampled_from(sorted(CASES)).flatmap(
    lambda name: st.integers(0, len(CASES[name].kinds) - 1).flatmap(
        lambda i: st.tuples(st.just(name), st.just(i), WRONG[CASES[name].kinds[i]])))


def _floats(value, seen=None) -> list:
    """Every float other than INF reachable from a result."""
    seen = set() if seen is None else seen
    if isinstance(value, float):
        return [] if value == INF else [value]
    if isinstance(value, (str, int, F, type(None))) or callable(value):
        return []
    if id(value) in seen:
        return []
    seen.add(id(value))
    if isinstance(value, dict):
        parts = [*value.keys(), *value.values()]
    elif isinstance(value, (list, tuple, set, frozenset)):
        parts = list(value)
    elif hasattr(value, "__match_args__"):
        parts = [getattr(value, name) for name in value.__match_args__]
        if isinstance(value, rs.OpenRegion) and not value.all_space:
            parts.append(value.derived)
        if isinstance(value, rs.HyperPath):
            parts.append(value.at(F(1, 3)))
    else:
        raise TypeError(f"unexpected result part {value!r}")
    return [x for part in parts for x in _floats(part, seen)]


def check_wrong_argument(name: str, i: int, wrong) -> None:
    case = CASES[name]
    args = list(case.args)
    args[i] = wrong
    try:
        result = case.call(*args)
    except RayspaceError:
        return
    assert _floats(result) == [], (name, i, wrong)


@pytest.mark.parametrize("name", sorted(CASES))
def test_valid_calls_answer_exactly(name):
    case = CASES[name]
    assert len(case.kinds) == len(case.args)
    assert _floats(case.call(*case.args)) == []


@settings(max_examples=400, deadline=None, derandomize=True)
@given(call=calls)
def test_wrong_arguments_are_refused_or_answered_exactly(call):
    check_wrong_argument(*call)


@pytest.mark.parametrize("make", [
    lambda: rs.HyperPath(G, (1, 2)),
    lambda: rs.HyperPath(G, [*PATH.stages]),
    lambda: rs.HyperPath(G, rs.gamma_path(OTHER, frozenset({3})).stages),
    lambda: rs.HyperPath(OTHER, PATH.stages),
    lambda: rs.OpenRegion(G, "ab"),
    lambda: rs.OpenRegion(G, ((Q, F(1), F(2)),)),
    lambda: rs.OpenRegion(G, ((A, F(1)),)),
], ids=["not-stages", "stage-list", "stages-of-another-graph", "graph-of-other-stages",
        "text-balls", "triple-ball", "set-centre"])
def test_constructors_refuse_malformed_arguments(make):
    with pytest.raises(rs.PreconditionError):
        make()
