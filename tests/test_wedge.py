from collections import Counter
from fractions import Fraction as F

import pytest

from rayspace import (
    ParseError,
    PreconditionError,
    base_model,
    component_count_formula,
    enumerate_sets,
    model_components,
    model_report,
    model_stats,
    oracle_components,
    parse_graph,
    parse_wedge_expr,
    wedge,
)


def test_base_models():
    interval = base_model("interval")
    assert model_components(interval) == 1
    assert model_stats(interval).dims == (2,)
    assert model_stats(interval).compact

    circle = base_model("circle")
    assert model_components(circle) == 1
    assert model_stats(circle).dims == (2,)

    ray = base_model("ray")
    assert model_components(ray) == 2
    assert model_stats(ray).max_dim == 2
    assert not model_stats(ray).compact
    assert len(ray.containment) == 2

    with pytest.raises(PreconditionError):
        base_model("torus")


def test_two_od_is_triangle_like():
    m = wedge(base_model("interval"), base_model("interval"))
    assert model_components(m) == 1
    assert model_stats(m).max_dim == 2
    assert model_stats(m).dims == (2, 2, 2)  # two triangles and the square
    assert model_stats(m).compact


def test_noose_dims():
    m = wedge(base_model("circle"), base_model("interval"))
    assert model_components(m) == 1
    assert model_stats(m).dims == (3, 2, 2)


def test_triod_cube_with_three_fins():
    m = wedge(wedge(base_model("interval"), base_model("interval")), base_model("interval"))
    assert model_components(m) == 1
    assert model_stats(m).dims == (3, 2, 2, 2)


def test_infinite_noose_two_components():
    m = wedge(base_model("circle"), base_model("ray"))
    assert model_components(m) == 2


def test_real_line_four_components():
    m = wedge(base_model("ray"), base_model("ray"))
    assert model_components(m) == 4
    # a half-plane, two lines, and a point
    assert Counter(p.dim for p in m.pieces) == {2: 3, 1: 4, 0: 1}


def test_census_matches_hausdorff_component_formula():
    cases = [
        ("interval", "vertex u v; edge E1 u v"),
        ("(ray ∨ ray)", "vertex v; ray R1 v; ray R2 v"),
        ("(circle ∨ ray)", "vertex v; edge E1 v v; ray R1 v"),
        ("((ray ∨ ray) ∨ ray)", "vertex v; ray R1 v; ray R2 v; ray R3 v"),
        ("((interval ∨ ray) ∨ ray)", "vertex u v; edge E1 u v; ray R1 u; ray R2 v"),
    ]
    for expr, graph_text in cases:
        m = parse_wedge_expr(expr)
        g = parse_graph(graph_text)
        assert model_components(m) == component_count_formula(g, 1)


def test_wedge_commutative_up_to_renaming():
    pairs = [
        ("circle", "ray"),
        ("interval", "ray"),
        ("(ray ∨ ray)", "circle"),
    ]
    for left, right in pairs:
        a = wedge(parse_wedge_expr(left), parse_wedge_expr(right))
        b = wedge(parse_wedge_expr(right), parse_wedge_expr(left))
        assert model_components(a) == model_components(b)
        assert model_stats(a).dims == model_stats(b).dims


def test_dimension_additivity():
    m = wedge(base_model("circle"), base_model("ray"))
    by_id = {p.id: p for p in m.pieces}
    for c in m.containment:
        piece = by_id[c.piece]
        assert piece.dim == sum(cell.dim for cell in piece.factors)


def test_iterated_interval_wedges_stay_connected_compact():
    m = base_model("interval")
    for _ in range(3):
        m = wedge(m, base_model("interval"))
    assert model_components(m) == 1
    assert model_stats(m).max_dim == 4
    assert model_stats(m).compact


def test_parse_wedge_expr_errors():
    with pytest.raises(ParseError):
        parse_wedge_expr("(circle ∨ ")
    with pytest.raises(ParseError):
        parse_wedge_expr("blob")
    with pytest.raises(ParseError):
        parse_wedge_expr("circle ray")
    assert model_components(parse_wedge_expr("( circle v ray )")) == 2


def test_report_mentions_counts():
    rep = model_report(parse_wedge_expr("(ray ∨ ray)"))
    assert "components 4" in rep
    assert "marker" in rep


def test_model_marker_invariant_enforced():
    from rayspace.wedge import HModel, LocusComponent, Piece, SEG, TRI

    t = Piece("T", (TRI,))
    unmarked = LocusComponent("Cp", "T", "left edge", (SEG,))
    with pytest.raises(PreconditionError, match="marker"):
        HModel("broken", (t,), (unmarked,), ())
    with pytest.raises(PreconditionError):
        HModel("no locus", (t,), (), ())


def _star_graph(expr: str):
    """The star ray-graph a wedge expression draws, every atom wedged at p.

    ``interval`` is an edge from p to a new leaf, ``circle`` a loop at p and
    ``ray`` a ray at p.
    """
    vertices, elements = ["p"], []
    atoms = expr.replace("(", " ").replace(")", " ").split()
    for k, atom in enumerate(a for a in atoms if a in ("interval", "circle", "ray")):
        if atom == "interval":
            vertices.append(f"L{k}")
            elements.append(f"edge E{k} p L{k}")
        elif atom == "circle":
            elements.append(f"edge E{k} p p")
        else:
            elements.append(f"ray R{k} p")
    return parse_graph("; ".join([f"vertex {' '.join(vertices)}"] + elements))


def _differences(values: list[int], order: int) -> list[int]:
    for _ in range(order):
        values = [b - a for a, b in zip(values, values[1:])]
    return values


STAR_EXPRESSIONS = [
    "interval",
    "circle",
    "ray",
    "(interval v interval)",
    "(circle v ray)",
    "(ray v ray)",
    "((interval v interval) v interval)",
    "((ray v ray) v ray)",
]
# Four-atom stars reach the enumeration cap before the polynomial has enough
# points, so they are held to the component and compactness checks.
FOUR_ATOM_EXPRESSIONS = [
    "((circle v ray) v (interval v ray))",
    "((ray v ray) v (ray v ray))",
    "((circle v interval) v (interval v interval))",
]


def test_models_match_their_star_graphs():
    """Each model agrees with the star ray-graph it draws.

    Components: the model's count, the Hausdorff formula and the grid census
    at n = 1.  Dimension: the order of p, or 2 for an arc or a circle (Duda,
    Fund. Math. 62, 1968: dim C(G) is the largest vertex order), and the
    number of connected grid subsets at step 1/m is a polynomial in m of that
    degree.  Compactness: no ray.  Loops need two pieces to wrap through p.
    """
    for expr in STAR_EXPRESSIONS + FOUR_ATOM_EXPRESSIONS:
        m, g = parse_wedge_expr(expr), _star_graph(expr)
        max_pieces = 2 if "circle" in expr else 1
        census = oracle_components(g, F(1, 2), F(1), F(3, 5), 1, max_pieces).count
        assert model_components(m) == component_count_formula(g, 1) == census, expr
        stats = model_stats(m)
        assert stats.compact == (g.ray_count == 0), expr
        order = sum((e.u == "p") + (e.v == "p") for e in g.edges) + g.ray_count
        assert stats.max_dim == max(order, 2), expr
        if expr in FOUR_ATOM_EXPRESSIONS:
            continue
        counts = [
            len(enumerate_sets(g, F(1, k), F(1), 1, max_pieces))
            for k in range(1, stats.max_dim + 4)
        ]
        assert all(d != 0 for d in _differences(counts, stats.max_dim)), (expr, counts)
        assert _differences(counts, stats.max_dim + 1) == [0, 0], (expr, counts)
