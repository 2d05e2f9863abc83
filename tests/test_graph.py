import random
import re
import tracemalloc
from fractions import Fraction as F

import pytest

from rayspace import (
    GraphPoint,
    InvalidGraphError,
    ParseError,
    PreconditionError,
    RayGraph,
    ball,
    graph_from_parts,
    hausdorff,
    parse_graph,
    parse_set,
    point_distance,
)
from rayspace.graph import Ray
from rayspace.oracle import oracle_hausdorff

from conftest import brute_force_vertex_distance, random_point, random_ray_graph


def test_parse_minimal_ray_graph():
    g = parse_graph("vertex v\nray R1 at_v".replace("at_v", "v"))
    assert len(g.vertices) == 1 and len(g.edges) == 0 and len(g.rays) == 1


def test_parse_minimal_edge_graph():
    g = parse_graph("vertex u v\nedge E1 u v")
    assert g.element_length("E1") == 1


def test_parse_disconnected_rejected():
    with pytest.raises(InvalidGraphError, match="not connected"):
        parse_graph("vertex u\nvertex v")


def test_parse_duplicate_id_rejected():
    with pytest.raises(InvalidGraphError, match="duplicate"):
        parse_graph("vertex u v\nedge E1 u v\nray E1 v")


def test_parse_nonpositive_length_rejected():
    with pytest.raises(ParseError, match="nonpositive"):
        parse_graph("vertex u v\nedge E1 u v length 0")


def test_parse_syntax_error_reports_position():
    with pytest.raises(ParseError, match="line 2"):
        parse_graph("vertex u v\nedgy E1 u v")


@pytest.mark.parametrize(
    "text, match",
    [
        ("", "at least one vertex"),
        ("vertex u u", "duplicate vertex id"),
        ("vertex u v; edge u u v", "collides with a vertex id"),
        ("vertex u; edge E1 u w", "unknown vertex"),
        ("vertex u; ray R1 w", "unknown vertex"),
    ],
)
def test_invalid_graph_rejected(text, match):
    with pytest.raises(InvalidGraphError, match=match):
        parse_graph(text)


def test_graph_without_elements_rejected():
    # a set lives on elements, so a lone vertex would hold no set at all
    for build in (lambda: parse_graph("vertex u"), lambda: graph_from_parts(["u"]),
                  lambda: RayGraph(("u",), (), ())):
        with pytest.raises(InvalidGraphError, match="needs an edge or a ray"):
            build()
    with pytest.raises(InvalidGraphError, match="not connected"):
        parse_graph("vertex u v")


def test_graph_from_parts_checks_lengths():
    with pytest.raises(InvalidGraphError, match="nonpositive length"):
        graph_from_parts(["u", "v"], [("E1", "u", "v", 0)])
    with pytest.raises(InvalidGraphError, match="at least one vertex"):
        graph_from_parts([])


@pytest.mark.parametrize(
    "text, match",
    [
        ("vertex", "vertex statement needs at least one id"),
        ("vertex u v; edge E1 u", "edge statement is"),
        ("vertex u; ray R1", "ray statement is"),
    ],
)
def test_malformed_statement_rejected(text, match):
    with pytest.raises(ParseError, match=match):
        parse_graph(text)


def test_parse_comments_and_lengths():
    g = parse_graph("# a graph\nvertex u v\nedge E1 u v length 7/2  # long edge")
    assert g.element_length("E1") == F(7, 2)


def test_same_edge_segment_distance(graphs):
    g = graphs["G_I"]
    assert point_distance(g, GraphPoint("E1", F(1, 4)), GraphPoint("E1", F(3, 4))) == F(1, 2)


def test_loop_wraparound_distance(graphs):
    g = graphs["G_LOOP"]
    assert point_distance(g, GraphPoint("E1", F(1, 10)), GraphPoint("E1", F(9, 10))) == F(1, 5)


def test_distance_through_vertex_on_rays(graphs):
    g = graphs["G_LINE"]
    assert point_distance(g, GraphPoint("R1", F(2)), GraphPoint("R2", F(3))) == 5


def test_parallel_edge_shortcut(graphs):
    # going around through the shorter parallel edge beats staying on E2
    g = graphs["G_MIXED"]
    p, q = GraphPoint("E2", F(1, 8)), GraphPoint("E2", F(11, 8))
    assert point_distance(g, p, q) == F(1, 8) + 1 + F(1, 8)


def test_vertex_distance_table_examples(graphs):
    assert dict(graphs["G_I"].vertex_distances)[("u", "v")] == 1
    assert dict(graphs["G_LOOP"].vertex_distances)[("v", "v")] == 0


def test_vertex_distance_triangle_matches_brute_force():
    g = parse_graph("vertex a b c\nedge E1 a b\nedge E2 b c\nedge E3 c a")
    table = dict(g.vertex_distances)
    for u in "abc":
        for v in "abc":
            assert table[(u, v)] == brute_force_vertex_distance(g, u, v)
    assert table[("a", "b")] == 1


def test_vertex_distance_tables_match_brute_force_everywhere(graphs):
    for g in graphs.values():
        for u in g.vertices:
            for v in g.vertices:
                assert g.vertex_distance(u, v) == brute_force_vertex_distance(g, u, v)


def test_point_normalization_picks_least_representation(graphs):
    g = graphs["G_LINE"]
    assert g.normalize_point(GraphPoint("R2", F(0))) == GraphPoint("R1", F(0))
    g2 = graphs["G_I"]
    assert g2.normalize_point(GraphPoint("E1", F(1, 3))) == GraphPoint("E1", F(1, 3))


def test_invalid_points_rejected(graphs):
    g = graphs["G_I"]
    with pytest.raises(PreconditionError):
        point_distance(g, GraphPoint("E9", F(0)), GraphPoint("E1", F(0)))
    with pytest.raises(PreconditionError):
        point_distance(g, GraphPoint("E1", F(3, 2)), GraphPoint("E1", F(0)))


def test_point_metric_axioms_on_random_triples(graphs):
    rng = random.Random(20817)
    for g in graphs.values():
        for _ in range(60):
            p, q, r = (random_point(g, rng) for _ in range(3))
            dpq = point_distance(g, p, q)
            assert dpq == point_distance(g, q, p)
            assert dpq >= 0
            assert (dpq == 0) == (g.normalize_point(p) == g.normalize_point(q))
            assert dpq <= point_distance(g, p, r) + point_distance(g, r, q)


def _floyd_warshall(g):
    """Reference vertex table: the O(V^3) Fraction Floyd-Warshall relaxation."""
    verts = g.vertices
    dist = {(a, b): (F(0) if a == b else None) for a in verts for b in verts}
    for e in g.edges:
        for a, b in ((e.u, e.v), (e.v, e.u)):
            if a != b and (dist[(a, b)] is None or e.length < dist[(a, b)]):
                dist[(a, b)] = e.length
    for k in verts:
        for i in verts:
            if dist[(i, k)] is None:
                continue
            for j in verts:
                if dist[(k, j)] is not None:
                    cand = dist[(i, k)] + dist[(k, j)]
                    if dist[(i, j)] is None or cand < dist[(i, j)]:
                        dist[(i, j)] = cand
    return dist


def test_vertex_tables_match_floyd_warshall_on_seeded_rings():
    rng = random.Random(4099)
    for n in (1, 2, 3, 5, 8, 13, 21, 30):
        lines = ["vertex " + " ".join(f"v{i}" for i in range(n))]
        for i in range(n):
            length = F(rng.randint(1, 24), rng.choice((1, 2, 3, 4, 7)))
            lines.append(f"edge e{i} v{i} v{(i + 1) % n} length {length}")  # n = 1: a loop
        for j in range(n // 2 + 1):
            a, b = rng.randrange(n), rng.randrange(n)  # a == b makes a loop
            chord = F(rng.randint(1, 60), rng.choice((1, 3, 5)))
            lines.append(f"edge c{j} v{a} v{b} length {chord}")
            k = rng.randrange(n)  # a parallel copy of a ring edge, sometimes shorter
            lines.append(f"edge p{j} v{k} v{(k + 1) % n} length {F(rng.randint(1, 30), 4)}")
        lines.append(f"ray R1 v{rng.randrange(n)}")
        g = parse_graph("\n".join(lines))
        table = dict(g.vertex_distances)
        assert table == _floyd_warshall(g)
        assert list(table) == [(a, b) for a in g.vertices for b in g.vertices]


def _path_graph_text(n):
    """A path v0 - v1 - ... - v{n-1} of unit edges E{i} = (v{i}, v{i+1}), and a ray R1 at v0."""
    edges = "\n".join(f"edge E{i} v{i} v{i + 1}" for i in range(n - 1))
    return "vertex " + " ".join(f"v{i}" for i in range(n)) + "\n" + edges + "\nray R1 v0"


def test_rows_are_built_only_when_read():
    # each query builds the rows of the end vertices of the elements its
    # pieces, centre or first point sit on, and never the all-pairs table
    text = _path_graph_text(3000)
    set_ends = {"v10", "v11", "v0", "v2000", "v2001"}  # of E10, R1 and E2000
    queries = [
        (hausdorff, set_ends),
        (lambda g, A, B: oracle_hausdorff(g, A, B, F(1, 4), F(2)), set_ends),
        (lambda g, A, B: ball(g, GraphPoint("E1200", F(1, 2)), F(3)).derived, {"v1200", "v1201"}),
        (lambda g, A, B: point_distance(g, GraphPoint("E7", F(1, 3)), GraphPoint("E1200", F(0))),
         {"v7", "v8"}),
    ]
    for query, ends in queries:
        g = parse_graph(text)
        query(g, parse_set("E10:[1/4,1/2] R1:[0,2]", g), parse_set("E2000:[0,1]", g))
        built = set(vars(g)["_dijkstra"][2])  # the row cache
        assert built and built <= ends
        assert "vertex_distances" not in vars(g)


def test_memory_grows_about_linearly_in_the_vertex_count():
    # an all-pairs table would make the peak 16 times larger at 4 times the vertices
    def peak(n):
        tracemalloc.start()
        try:
            g = parse_graph(_path_graph_text(n))
            hausdorff(g, parse_set("E1:[0,1/2]", g), parse_set(f"E{n - 3}:[1/2,1]", g))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4000) / peak(1000) < 6


def test_unknown_vertex_is_refused_and_builds_no_row(graphs):
    g = graphs["G_I"]
    calls = [lambda: g.vertex_distance("nope", "u"), lambda: g.vertex_distance("u", "nope"),
             lambda: g.vertex_row("nope")]
    for call in calls:
        with pytest.raises(PreconditionError, match="unknown vertex 'nope'"):
            call()
        assert "nope" not in g._dijkstra[2]
    assert g.vertex_distance("u", "v") == 1 and g.vertex_row("v") == [1, 0]


def _check_accessors_against_fields(g):
    """Every element accessor agrees with the element's own Edge or Ray fields."""
    for el in g.edges + g.rays:
        ray = type(el) is Ray
        first, far, length = (el.attach, None, None) if ray else (el.u, el.v, el.length)
        inner = F(5, 2) if ray else length / 3
        assert g.element(el.id) is el
        assert g.is_ray(el.id) is ray
        assert g.element_length(el.id) == length
        assert g.element_end_vertices(el.id) == (first, far)
        assert g.vertex_at(el.id, F(0)) == first
        assert g.vertex_at(el.id, inner) is None
        exits = [(first, inner)] + ([] if ray else [(far, length - inner)])
        assert g.exit_costs(GraphPoint(el.id, inner)) == exits
        if ray:
            g.validate_point(GraphPoint(el.id, F(10**6)))
        else:
            assert g.vertex_at(el.id, length) == far
            past = GraphPoint(el.id, length + F(1, 7))
            with pytest.raises(PreconditionError, match=re.escape(
                    f"coordinate {past.coord} exceeds length {length} of edge {el.id}")):
                g.validate_point(past)
    for accessor in (g.element, g.is_ray, g.element_length, g.element_end_vertices,
                     lambda eid: g.vertex_at(eid, F(0)),
                     lambda eid: g.exit_costs(GraphPoint(eid, F(0))),
                     lambda eid: g.validate_point(GraphPoint(eid, F(0)))):
        with pytest.raises(PreconditionError, match="unknown element id 'Z9'"):
            accessor("Z9")


def test_element_accessors_agree_with_the_element_fields(graphs):
    _check_accessors_against_fields(graphs["G_MIXED"])  # a loop, parallel edges, two rays
    for seed in range(60):
        _check_accessors_against_fields(random_ray_graph(random.Random(seed)))
