import random
from fractions import Fraction as F

import pytest

from rayspace import (
    GraphPoint,
    OpenRegion,
    PreconditionError,
    ball,
    continuity_witness,
    gamma_path,
    member_basic,
    member_lower,
    member_upper,
    parse_region,
    parse_set,
    point_distance,
    union,
    union_regions,
    whole_space,
)
from rayspace.paths import F0, HyperPath

from conftest import random_point, random_subset


def test_ball_on_edge(graphs):
    g = graphs["G_I"]
    U = ball(g, GraphPoint("E1", F(1, 2)), F(3, 10))
    assert U.derived == {"E1": ((F(1, 5), True, F(4, 5), True),)}


def test_ball_at_vertex_spans_rays(graphs):
    g = graphs["G_LINE"]
    U = ball(g, GraphPoint("R1", F(0)), F(1))
    assert U.derived == {
        "R1": ((F(0), False, F(1), True),),
        "R2": ((F(0), False, F(1), True),),
    }


def test_ball_wraps_loop_pointwise(graphs):
    g = graphs["G_LOOP"]
    center = GraphPoint("E1", F(0))
    U = ball(g, center, F(3, 5))
    for k in range(21):
        x = GraphPoint("E1", F(k, 20))
        assert U.contains_point(x) == (point_distance(g, x, center) < F(3, 5))
    # every loop point is within 3/5 of the vertex, so the ball is the whole loop
    assert U.derived == {"E1": ((F(0), False, F(1), False),)}


def test_ball_correctness_random(graphs):
    rng = random.Random(808)
    for name in ("G_LOOP", "G_MIXED", "G_STAR3"):
        g = graphs[name]
        for _ in range(15):
            p = random_point(g, rng)
            r = F(rng.randint(1, 8), 4)
            U = ball(g, p, r)
            for _ in range(25):
                x = random_point(g, rng)
                in_derived = any(
                    (lo < x.coord or (lo == x.coord and not lo_open))
                    and (hi is None or x.coord < hi or (x.coord == hi and not hi_open))
                    for lo, lo_open, hi, hi_open in U.derived.get(x.element, ())
                )
                assert in_derived == (point_distance(g, x, p) < r)


def test_member_upper_examples(graphs):
    g = graphs["G_I"]
    U = ball(g, GraphPoint("E1", F(1, 2)), F(3, 10))
    assert member_upper(parse_set("E1:[3/10,2/5]", g), U)
    assert not member_upper(parse_set("E1:[0,1/4]", g), U)
    all_x = OpenRegion(g, (), all_space=True)
    assert member_upper(parse_set("E1:[0,1]", g), all_x)


def test_member_lower_examples(graphs):
    g = graphs["G_I"]
    V = ball(g, GraphPoint("E1", F(1, 2)), F(3, 10))
    assert member_lower(parse_set("E1:[0,1/4]", g), V)
    assert not member_lower(parse_set("E1:{0}", g), V)
    assert member_lower(parse_set("E1:[0,1]", g), OpenRegion(g, (), all_space=True))


def test_member_basic_examples(graphs):
    g = graphs["G_I"]
    A = parse_set("E1:[1/4,3/4]", g)
    Us = [
        ball(g, GraphPoint("E1", F(1, 4)), F(3, 5)),
        ball(g, GraphPoint("E1", F(3, 4)), F(3, 5)),
    ]
    assert member_basic(A, Us)
    assert not member_basic(parse_set("E1:{0}", g), [ball(g, GraphPoint("E1", F(1)), F(1, 10))])
    # single-region case is exactly upper and lower together
    U = Us[0]
    assert member_basic(A, [U]) == (member_upper(A, U) and member_lower(A, U))


def test_member_basic_definitional_coherence_random(graphs):
    rng = random.Random(2024)
    g = graphs["G_NOOSE"]
    for _ in range(40):
        A = random_subset(g, rng)
        Us = [ball(g, random_point(g, rng), F(rng.randint(1, 6), 3)) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.3:
            Us.append(OpenRegion(g, (), all_space=True))
        expected = member_upper(A, union_regions(Us)) and all(member_lower(A, u) for u in Us)
        assert member_basic(A, Us) == expected


def test_upper_lower_monotone_random(graphs):
    rng = random.Random(515)
    g = graphs["G_MIXED"]
    for _ in range(40):
        A = random_subset(g, rng)
        B = union(A, random_subset(g, rng))  # A subset of B
        U = ball(g, random_point(g, rng), F(rng.randint(1, 8), 3))
        if member_upper(B, U):
            assert member_upper(A, U)
        if member_lower(A, U):
            assert member_lower(B, U)


def test_gamma_upper_continuity_direction(graphs):
    g = graphs["G_LINE"]
    P = gamma_path(g, frozenset())
    U = ball(g, GraphPoint("R1", F(0)), F(3))
    ts = [F(k, 10) for k in range(11)]
    for s, t in zip(ts, ts[1:]):
        if member_upper(P.at(t), U):
            assert member_upper(P.at(s), U)


def test_witness_whole_domain(graphs):
    g = graphs["G_LINE"]
    P = gamma_path(g, frozenset())
    res = continuity_witness(P, F(1, 2), [OpenRegion(g, (), all_space=True)], F(1, 1000))
    assert res.ok and res.delta == F(1, 2)


def test_witness_bounded_ball(graphs):
    g = graphs["G_LINE"]
    P = gamma_path(g, frozenset())
    res = continuity_witness(P, F(1, 2), [ball(g, GraphPoint("R1", F(0)), F(10))], F(1, 1000))
    assert res.ok and res.delta == F(1, 4)  # t=1 escapes any ball; first halving passes


def test_witness_constant_path(graphs):
    g = graphs["G_R"]
    X = whole_space(g)
    P = HyperPath(g, (F0(g, X, ()),))
    res = continuity_witness(P, F(0), [OpenRegion(g, (), all_space=True)], F(1, 100))
    assert res.ok and res.delta == 1


def test_witness_precondition(graphs):
    g = graphs["G_LINE"]
    P = gamma_path(g, frozenset())
    tiny = ball(g, GraphPoint("R1", F(2)), F(1, 10))
    with pytest.raises(PreconditionError):
        continuity_witness(P, F(1, 2), [tiny], F(1, 100))


def test_witness_failure_reported(graphs):
    g = graphs["G_LINE"]
    P = gamma_path(g, frozenset())
    # lower constraint satisfied only exactly at t0: ball around the moving
    # front at t0=1/2 with tiny radius fails for any sampled neighborhood
    front = ball(g, GraphPoint("R1", F(1)), F(1, 2000))
    res = continuity_witness(P, F(1, 2), [OpenRegion(g, (), all_space=True), front], F(1, 8))
    assert not res.ok
    assert res.failed_at is not None


def test_parse_region(graphs):
    g = graphs["G_I"]
    U = parse_region("ball E1:1/2 3/10", g)
    assert U.balls[0][1] == F(3, 10)
    assert parse_region("all", g).all_space
    two = parse_region("ball E1:0 1/4 ball E1:1 1/4", g)
    assert len(two.balls) == 2
