import random
import warnings
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rayspace.vietoris
from rayspace import (
    ClosedSubset,
    GraphPoint,
    OpenRegion,
    PreconditionError,
    ball,
    continuity_witness,
    directed_hausdorff,
    dist_point_to_set,
    gamma_path,
    is_infinite,
    member_basic,
    member_lower,
    member_upper,
    parse_region,
    parse_set,
    point_distance,
    union,
    union_regions,
    vietoris_path,
    whole_space,
)
from rayspace.graph import RayGraph
from rayspace.paths import F0, HyperPath, Motion, Stage
from rayspace.vietoris import WitnessResult

from conftest import _ref_profile, random_in_c3, random_point, random_ray_graph, random_subset


def _in_derived(derived, x: GraphPoint) -> bool:
    return any(lo < x.coord < hi for lo, hi in derived.get(x.element, ()))


def test_ball_on_edge(graphs):
    g = graphs["G_I"]
    U = ball(g, GraphPoint("E1", F(1, 2)), F(3, 10))
    assert U.derived == {"E1": ((F(1, 5), F(4, 5)),)}


def test_ball_at_vertex_spans_rays(graphs):
    g = graphs["G_LINE"]
    U = ball(g, GraphPoint("R1", F(0)), F(1))
    assert U.derived == {"R1": ((F(-1), F(1)),), "R2": ((F(-1), F(1)),)}


def test_ball_wraps_loop_pointwise(graphs):
    g = graphs["G_LOOP"]
    center = GraphPoint("E1", F(0))
    U = ball(g, center, F(3, 5))
    for k in range(21):
        x = GraphPoint("E1", F(k, 20))
        assert U.contains_point(x) == (point_distance(g, x, center) < F(3, 5))
    # every loop point is within 3/5 of the vertex, so the ball is the whole
    # loop: (-3/5, 3/5) around one end and (2/5, 8/5) around the other
    assert U.derived == {"E1": ((F(-3, 5), F(8, 5)),)}


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
                assert _in_derived(U.derived, x) == (point_distance(g, x, p) < r)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_ball_correctness_on_random_graphs(seed):
    """Centres are a random point and every alias of a random vertex; test
    points are every element end and random points.  One radius is a
    distance to an element end, which puts that end on the sphere."""
    rng = random.Random(seed)
    g = random_ray_graph(rng)
    ends = [GraphPoint(e.id, F(0)) for e in g.edges + g.rays]
    ends += [GraphPoint(e.id, e.length) for e in g.edges]
    centers = [random_point(g, rng)]
    centers += [GraphPoint(eid, c) for eid, c in g.vertex_representations(rng.choice(g.vertices))]
    for p in centers:
        radii = [F(rng.randint(1, 8), rng.choice((1, 2, 4))), point_distance(g, rng.choice(ends), p)]
        for r in filter(None, radii):
            U = ball(g, p, r)
            for x in ends + [random_point(g, rng) for _ in range(8)]:
                inside = point_distance(g, x, p) < r
                assert U.contains_point(x) == inside
                assert _in_derived(U.derived, x) == inside


# ---- reference: the distance-envelope route to a ball ------------------------


def _ref_sublevel_segment(x1, v1, x2, v2, r, acc) -> None:
    """Append the open sublevel {v < r} of one linear segment to acc."""
    if v1 < r and v2 < r:
        acc.append((x1, False, x2, False))
    elif v1 < r <= v2:
        cut = x1 + (r - v1) * (x2 - x1) / (v2 - v1)
        acc.append((x1, False, cut, True))
    elif v2 < r <= v1:
        cut = x2 - (r - v2) * (x2 - x1) / (v1 - v2)
        acc.append((cut, True, x2, False))


def _ref_merge_open(ivs):
    """Merge coordinate intervals, honoring open/closed endpoint flags (None: unbounded)."""
    ivs = sorted(ivs, key=lambda iv: (iv[0], iv[1]))
    out = []
    for lo, lo_open, hi, hi_open in ivs:
        if out:
            plo, plo_open, prev_hi, prev_hi_open = out[-1]
            touches = prev_hi is None or lo < prev_hi or (lo == prev_hi and not (lo_open and prev_hi_open))
            if touches:
                if prev_hi is None or (hi is None):
                    nhi, nhi_open = None, False
                elif hi > prev_hi:
                    nhi, nhi_open = hi, hi_open
                elif hi < prev_hi:
                    nhi, nhi_open = prev_hi, prev_hi_open
                else:
                    nhi, nhi_open = hi, hi_open and prev_hi_open
                out[-1] = (plo, plo_open, nhi, nhi_open)
                continue
        out.append((lo, lo_open, hi, hi_open))
    return [iv for iv in out if iv[2] is None or iv[0] < iv[2] or (not iv[1] and not iv[3])]


def _ref_ball_intervals(g, center, radius):
    """B(center, radius) per element, cut from the reference envelope to {center}."""
    target = ClosedSubset.from_pieces(g, {center.element: [(center.coord, center.coord)]})
    out = {}
    for eid in [e.id for e in g.edges] + [r.id for r in g.rays]:
        prof = _ref_profile(g, eid, target)
        xs, vals = prof.xs, prof.vals
        if min(vals) >= radius:
            continue
        ivs = []
        for k in range(len(xs) - 1):
            _ref_sublevel_segment(xs[k], vals[k], xs[k + 1], vals[k + 1], radius, ivs)
        if g.element_length(eid) is None and vals[-1] < radius:
            assert prof.final_slope == 1
            ivs.append((xs[-1], False, xs[-1] + (radius - vals[-1]), True))
        merged = _ref_merge_open(ivs)
        if merged:
            out[eid] = list(merged)
    return out


def _ref_derived(g, balls):
    raw = {}
    for center, radius in balls:
        for eid, ivs in _ref_ball_intervals(g, center, radius).items():
            raw.setdefault(eid, []).extend(ivs)
    return {eid: tuple(_ref_merge_open(ivs)) for eid, ivs in raw.items() if ivs}


def _random_balls(graphs, seed):
    """(graph, centre, radius) on the fixture graphs and 20 random ray-graphs.

    Centres are a random point and every alias of a random vertex.
    """
    rng = random.Random(seed)
    for g in list(graphs.values()) + [random_ray_graph(rng) for _ in range(20)]:
        for _ in range(6):
            vertex = rng.choice(g.vertices)
            centers = [random_point(g, rng)]
            centers += [GraphPoint(eid, c) for eid, c in g.vertex_representations(vertex)]
            for center in centers:
                yield g, center, F(rng.randint(1, 24), rng.choice((1, 2, 3, 4, 6)))


def _clipped(g, derived):
    """The derived form cut to each element, an end closed where the cut applies,
    in the reference's flagged form (lo, lo_open, hi, hi_open)."""
    out = {}
    for eid, ivs in derived.items():
        length = g.element_length(eid)
        cut = []
        for lo, hi in ivs:
            hi_open = length is None or hi <= length
            cut.append((max(lo, F(0)), lo >= 0, hi if hi_open else length, hi_open))
        out[eid] = tuple(_ref_merge_open(cut))
    return out


def test_derived_matches_envelope_reference(graphs):
    for g, center, r in _random_balls(graphs, 90210):
        assert _clipped(g, ball(g, center, r).derived) == _ref_derived(g, [(center, r)])
    rng = random.Random(4711)
    for g in list(graphs.values()) + [random_ray_graph(rng) for _ in range(20)]:
        for _ in range(4):
            balls = [(random_point(g, rng), F(rng.randint(1, 12), 4)) for _ in range(3)]
            region = union_regions([ball(g, c, r) for c, r in balls])
            assert _clipped(g, region.derived) == _ref_derived(g, balls)


def test_derived_endpoints_pointwise(graphs):
    for g, center, r in _random_balls(graphs, 31337):
        derived = ball(g, center, r).derived
        points = [GraphPoint(e.id, F(0)) for e in g.edges + g.rays]
        points += [GraphPoint(e.id, e.length) for e in g.edges]
        for eid, ivs in derived.items():
            length = g.element_length(eid)
            for lo, hi in ivs:
                hi = hi if length is None else min(hi, length)
                points += [GraphPoint(eid, max(lo, F(0))), GraphPoint(eid, hi)]
        for x in points:
            assert _in_derived(derived, x) == (point_distance(g, x, center) < r)


def test_a_ball_reads_only_the_elements_within_its_radius(monkeypatch):
    # the reaches come in ints from the rows of the centre's end vertices, and
    # spots are built only on the elements at a vertex the ball reaches
    n = 3000
    edges = "\n".join(f"edge E{i} v{i} v{i + 1}" for i in range(n - 1))
    g = rayspace.parse_graph("vertex " + " ".join(f"v{i}" for i in range(n)) + "\n" + edges
                             + "\nray R1 v0")
    read = []
    end_vertices = RayGraph.element_end_vertices

    def reading(self, eid):
        read.append(eid)
        return end_vertices(self, eid)

    def no_distance(*args):
        raise AssertionError("a ball asked for a vertex distance")

    monkeypatch.setattr(RayGraph, "element_end_vertices", reading)
    monkeypatch.setattr(RayGraph, "vertex_distance", no_distance)
    derived = ball(g, GraphPoint("E1500", F(1, 2)), F(3)).derived
    near = [f"E{i}" for i in range(1497, 1504)]
    assert list(derived) == read == near
    assert derived["E1497"] == ((F(1, 2), F(3, 2)),) and derived["E1503"] == ((F(-1, 2), F(1, 2)),)
    assert derived["E1500"] == ((F(-5, 2), F(7, 2)),)


def test_derived_of_whole_space_raises(graphs):
    with pytest.raises(PreconditionError):
        OpenRegion(graphs["G_MIXED"], (), all_space=True).derived


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


# ---- reference: the lower test as a point-to-set distance ---------------------


def _ref_lower(A, V) -> bool:
    """A meets V when some ball centre lies closer to A than the ball's radius."""
    if V.all_space:
        return True
    return any(dist_point_to_set(V.graph, c, A) < r for c, r in V.balls)


def _boundary_sets(g, V):
    """Sets that touch V's derived interval ends, cut to the element: points
    on each end, pieces running up to a start or out of an end, and tails out
    of an end on rays.  At an open end such a set lies at distance exactly r
    from its ball."""
    raws = []
    for eid, ivs in V.derived.items():
        length = g.element_length(eid)
        for lo, hi in ivs:
            lo, hi = max(lo, F(0)), hi if length is None else min(hi, length)
            raws += [({eid: [(lo, lo)]}, {}), ({eid: [(hi, hi)]}, {})]
            if lo > 0:
                raws.append(({eid: [(lo / 2, lo)]}, {}))
            if length is None:
                raws += [({eid: [(hi, hi + 1)]}, {}), ({}, {eid: hi})]
            elif hi < length:
                raws.append(({eid: [(hi, length)]}, {}))
    return [ClosedSubset.from_pieces(g, ivs, tails) for ivs, tails in raws]


def _vertex_sets(g):
    """Each vertex as a single point, entered on every representation; the set
    stores it on the least one, which the ball's centre need not be on."""
    return [
        ClosedSubset.from_pieces(g, {eid: [(c, c)]})
        for v in g.vertices
        for eid, c in g.vertex_representations(v)
    ]


def _check_lower_against_reference(g, rng):
    centers = [random_point(g, rng) for _ in range(3)]
    centers.append(GraphPoint(*g.vertex_representations(rng.choice(g.vertices))[-1]))
    balls = [ball(g, c, F(rng.randint(1, 12), rng.choice((1, 2, 3, 4)))) for c in centers]
    regions = balls + [union_regions(balls[:2]), union_regions(balls)]
    # a radius equal to a vertex's distance puts that vertex on the boundary
    x = GraphPoint(*g.vertex_representations(rng.choice(g.vertices))[0])
    regions.append(ball(g, centers[0], point_distance(g, x, centers[0]) or F(1)))
    sets = [random_subset(g, rng) for _ in range(6)] + _vertex_sets(g)
    for V in regions:
        for A in sets + _boundary_sets(g, V):
            assert member_lower(A, V) == _ref_lower(A, V), (A, V.balls)


def test_member_lower_matches_distance_reference(graphs):
    rng = random.Random(6060)
    for g in graphs.values():
        for _ in range(3):
            _check_lower_against_reference(g, rng)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_member_lower_matches_distance_reference_on_random_graphs(seed):
    rng = random.Random(seed)
    _check_lower_against_reference(random_ray_graph(rng), rng)


def test_member_upper_matches_distance_reference(graphs):
    """A lies in one ball exactly when its farthest point is nearer the centre
    than the radius; the boundary sets put a piece end on each open end."""
    rng = random.Random(7070)
    for g in list(graphs.values()) + [random_ray_graph(rng) for _ in range(10)]:
        for _ in range(3):
            c, r = random_point(g, rng), F(rng.randint(1, 12), rng.choice((1, 2, 3, 4)))
            U = ball(g, c, r)
            center = ClosedSubset.from_pieces(g, {c.element: [(c.coord, c.coord)]})
            sets = [random_subset(g, rng, bounded=True) for _ in range(4)] + _vertex_sets(g)
            for A in sets + _boundary_sets(g, U):
                far = directed_hausdorff(g, A, center)
                assert member_upper(A, U) == (not is_infinite(far) and far < r), (A, c, r)


# ---- reference: membership on the sets' Fraction pieces ----------------------


def _ref_member_upper(A, U) -> bool:
    """The upper test on A's Fraction pieces and U's derived Fraction intervals."""
    if U.all_space:
        return True
    derived = U.derived
    for eid, ep in A.pieces:
        if ep.tail is not None:
            return False
        ivs = derived.get(eid, ())
        for a, b in ep.intervals:
            if not any(lo < a and b < hi for lo, hi in ivs):
                return False
    return True


def _ref_member_lower(A, V) -> bool:
    """The lower test on A's Fraction pieces and V's derived Fraction intervals."""
    if V.all_space:
        return True
    derived = V.derived
    for eid, ep in A.pieces:
        ivs = derived.get(eid)
        if ivs is None:
            continue
        if ep.tail is not None and ep.tail < ivs[-1][1]:
            return True
        if any(a < hi and lo < b for a, b in ep.intervals for lo, hi in ivs):
            return True
    return False


def _tie_ball(g, A, rng):
    """A ball whose derived interval ends exactly at a piece end of A: centred on
    that piece's element, with radius the distance along it to the end."""
    eid, ep = rng.choice(A.pieces)
    x = rng.choice([c for iv in ep.intervals for c in iv] + [ep.tail] * (ep.tail is not None))
    length = g.element_length(eid)
    c = x + 1 if length is None and rng.random() < 0.5 else F(rng.randint(0, 4), 4) * (length or x)
    return ball(g, GraphPoint(eid, c), abs(x - c) or F(1, 2))


def test_membership_matches_the_fraction_reference_on_random_graphs():
    rng = random.Random(1951)
    ties = 0
    for _ in range(70):
        g = random_ray_graph(rng)
        for _ in range(3):  # 210 draws
            A = random_in_c3(g, rng)
            balls = [ball(g, random_point(g, rng), F(rng.randint(1, 12), rng.choice((1, 2, 3, 4))))
                     for _ in range(rng.randint(1, 3))] + [_tie_ball(g, A, rng)]
            everything = OpenRegion(g, (), all_space=True)
            for U in balls + [union_regions(balls), everything]:
                sets = [A] if U.all_space else [A] + _boundary_sets(g, U)
                for S in sets:
                    assert member_upper(S, U) == _ref_member_upper(S, U), (S, U.balls)
                    assert member_lower(S, U) == _ref_member_lower(S, U), (S, U.balls)
                if not U.all_space:  # the boundary sets meet those ends by construction
                    ties += any(c == d for eid, ep in A.pieces for c in sum(ep.intervals, ())
                                for d in sum(U.derived.get(eid, ()), ()))
                points = [GraphPoint(eid, c) for eid, ep in A.pieces for iv in ep.intervals
                          for c in (iv[0], (iv[0] + iv[1]) / 2)]
                for x in points:
                    assert U.contains_point(x) == (U.all_space or _in_derived(U.derived, x))
    assert ties > 150  # A itself has a piece end on a derived end: the strict tests decide


def test_member_lower_boundary_examples(graphs):
    g = graphs["G_LINE"]
    V = ball(g, GraphPoint("R1", F(1)), F(1, 2))  # R1 (1/2, 3/2)
    assert not member_lower(parse_set("R1:[0,1/2]", g), V)  # ends on the open end
    assert not member_lower(parse_set("R1:[3/2,inf)", g), V)
    assert member_lower(parse_set("R1:[0,2/3]", g), V)
    W = ball(g, GraphPoint("R2", F(1, 2)), F(1))  # holds the vertex, stored on R1
    assert W.derived["R1"] == ((F(-1, 2), F(1, 2)),)
    assert member_lower(parse_set("R2:{0}", g), W)
    assert not member_lower(parse_set("R2:{0}", g), ball(g, GraphPoint("R2", F(1, 2)), F(1, 2)))


def test_all_space_contains_point_validates_the_point(graphs):
    g = graphs["G_LINE"]
    everything = OpenRegion(g, (), all_space=True)
    assert everything.contains_point(GraphPoint("R2", F(5)))
    with pytest.raises(PreconditionError, match="unknown element"):
        everything.contains_point(GraphPoint("NOPE", F(-1)))


@pytest.mark.parametrize(
    "center, radius, msg",
    [
        (GraphPoint("R1", F(-3)), F(1), "negative coordinate"),
        (GraphPoint("R1", F(1)), F(-1), "ball radius must be positive"),
        (GraphPoint("R1", F(1)), F(0), "ball radius must be positive"),
    ],
)
def test_open_region_validates_its_balls_when_built(graphs, center, radius, msg):
    g = graphs["G_LINE"]
    with pytest.raises(PreconditionError, match=msg):
        OpenRegion(g, ((center, radius),))


def _regions_on(g):
    return [ball(g, GraphPoint("R1", F(0)), F(2)), OpenRegion(g, (), all_space=True)]


def test_member_upper_refuses_a_set_of_another_graph(graphs):
    A = parse_set("R1:[0,1]", graphs["G_STAR3"])
    for U in _regions_on(graphs["G_LINE"]):
        with pytest.raises(PreconditionError, match="given graph"):
            member_upper(A, U)


def test_member_lower_refuses_a_set_of_another_graph(graphs):
    A = parse_set("R1:[0,1]", graphs["G_STAR3"])
    for V in _regions_on(graphs["G_LINE"]):
        with pytest.raises(PreconditionError, match="given graph"):
            member_lower(A, V)


def _ref_ok(P, t, Us):
    """P(t) lies in <Us>, with the lower test measured by point-to-set distance."""
    g = P.graph
    if any(u.all_space for u in Us):
        union_all = OpenRegion(g, (), all_space=True)
    else:
        union_all = OpenRegion(g, tuple(b for u in Us for b in u.balls))
    A = P.at(t)
    return member_upper(A, union_all) and all(_ref_lower(A, u) for u in Us)


def _ref_witness(P, t0, Us, resolution):
    """The sampled witness: every multiple of the resolution within delta of
    t0, and delta itself, is checked with ``_ref_ok``.

    None when the value at t0 is not in the basic open."""
    if not _ref_ok(P, t0, Us):
        return None
    delta, last_bad = max(t0, 1 - t0), None
    while delta >= resolution:
        offsets = [delta] + [k * resolution for k in range(int(delta / resolution), 0, -1)]
        ts = [t for off in offsets for t in (t0 - off, t0 + off) if 0 <= t <= 1]
        bad = next((t for t in ts if not _ref_ok(P, t, Us)), None)
        if bad is None:
            return WitnessResult(True, delta=delta)
        last_bad, delta = bad, delta / 2
    return WitnessResult(False, failed_at=last_bad)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_witness_matches_distance_reference_on_random_graphs(seed):
    rng = random.Random(seed)
    g = random_ray_graph(rng)
    P = vietoris_path(g, random_in_c3(g, rng), 3)
    t0 = F(rng.randint(0, 8), 8)
    val = P.at(t0)
    ends = [GraphPoint(eid, c) for eid, ep in val.pieces for iv in ep.intervals for c in iv]
    if ends and all(ep.tail is None for _, ep in val.pieces) and rng.random() < 0.5:
        # a bounded cover: one ball around a vertex that holds the whole value
        v = GraphPoint(*g.vertex_representations(rng.choice(g.vertices))[0])
        reach = max(point_distance(g, v, x) for x in ends)
        Us = [ball(g, v, reach + F(rng.randint(1, 4), 4))]
    else:
        Us = [OpenRegion(g, (), all_space=True)]
    for _ in range(rng.randint(1, 3)):
        # centres on the value keep most lower tests true at t0, and small
        # radii around moving ends make some witnesses fail
        eid, ep = rng.choice(val.pieces)
        c = rng.choice([a for iv in ep.intervals for a in iv] or [ep.tail])
        center = GraphPoint(eid, c) if rng.random() < 0.8 else random_point(g, rng)
        Us.append(ball(g, center, F(rng.randint(1, 4), rng.choice((1, 4, 16, 64)))))
    resolution = F(1, 16)
    expected = _ref_witness(P, t0, Us, resolution)
    if expected is None:
        with pytest.raises(PreconditionError):
            continuity_witness(P, t0, Us, resolution)
        return
    got = continuity_witness(P, t0, Us, resolution)
    assert got.ok == expected.ok
    if got.ok and got.delta != expected.delta:
        # the exact preimage is smaller than the sampled one: the exact route
        # must name a bad point inside the sampled window
        missed = continuity_witness(P, t0, Us, expected.delta)
        assert not missed.ok and abs(missed.failed_at - t0) <= expected.delta
        assert not _ref_ok(P, missed.failed_at, Us)
        warnings.warn(f"the sampler missed the bad t={missed.failed_at} (seed {seed})")
    if not got.ok:
        smallest = max(t0, 1 - t0)
        while smallest / 2 >= resolution:
            smallest /= 2
        assert 0 <= got.failed_at <= 1 and abs(got.failed_at - t0) <= smallest
        assert not _ref_ok(P, got.failed_at, Us)


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


def test_witness_window_is_closed(graphs):
    # the front leaves the ball at t = 2/3, exactly the first halving 1/3 away from t0
    g = graphs["G_LINE"]
    P = gamma_path(g, frozenset())
    res = continuity_witness(P, F(1, 3), [ball(g, GraphPoint("R1", F(0)), F(2))], F(1, 100))
    assert res == WitnessResult(True, delta=F(1, 6))


def test_witness_ball_work_does_not_grow_with_resolution(graphs, monkeypatch):
    g = graphs["G_LINE"]
    P = vietoris_path(g, parse_set("R1:[0,1]", g), 1)
    calls = []
    ball_intervals = rayspace.vietoris._ball_intervals

    def counting(*args):
        calls.append(args)
        return ball_intervals(*args)

    monkeypatch.setattr(rayspace.vietoris, "_ball_intervals", counting)
    counts = []
    for res in (F(1, 100), F(1, 1000)):
        calls.clear()
        U = ball(g, GraphPoint("R1", F(0)), F(10))  # fresh, so nothing is cached yet
        assert continuity_witness(P, F(1, 2), [U], res).ok
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 2


def test_witness_path_work_does_not_depend_on_resolution(graphs, monkeypatch):
    g = graphs["G_MIXED"]
    P = vietoris_path(g, parse_set("R1:[2,inf) R2:[1,2] E2:[1/2,1]", g), 3)
    # F1 slides R2:[1,2] down through the ball for t in (5/16, 15/32)
    Us = [OpenRegion(g, (), all_space=True), parse_region("ball R2:1/2 1/4", g)]
    calls = []
    stage_at = Stage._at

    def counting(self, p, q):
        calls.append((p, q))
        return stage_at(self, p, q)

    monkeypatch.setattr(Stage, "_at", counting)
    counts, answers = [], []
    for res in (F(1, 100), F(1, 10**6)):
        calls.clear()
        answers.append(continuity_witness(P, F(3, 8), Us, res))
        counts.append(len(calls))
    assert counts[0] == counts[1]
    assert counts[0] > 0  # every path value goes through Stage._at
    assert answers == [WitnessResult(True, delta=F(5, 128))] * 2


def test_witness_works_out_each_ball_once(graphs, monkeypatch):
    g = graphs["G_LINE"]
    calls = []
    ball_intervals = rayspace.vietoris._ball_intervals

    def counting(*args):
        calls.append(args)
        return ball_intervals(*args)

    monkeypatch.setattr(rayspace.vietoris, "_ball_intervals", counting)
    Us = [parse_region(text, g) for text in ("ball R1:0 2", "ball R1:1/2 1", "ball R2:1 1")]
    assert continuity_witness(gamma_path(g, frozenset()), F(1, 2), Us, F(1, 100)).ok
    assert len(calls) == 3  # the t0 check, the union and every lower test share them


def test_witness_constant_path(graphs):
    g = graphs["G_R"]
    X = whole_space(g)
    P = HyperPath(g, (F0(g, X, ()),))
    res = continuity_witness(P, F(0), [OpenRegion(g, (), all_space=True)], F(1, 100))
    assert res.ok and res.delta == 1


def test_witness_resolution_above_the_largest_delta_is_refused(graphs):
    g = graphs["G_LINE"]
    P = vietoris_path(g, parse_set("R1:[0,1]", g), 1)
    all_x = [OpenRegion(g, (), all_space=True)]
    with pytest.raises(PreconditionError, match="exceeds the largest delta 1"):
        continuity_witness(P, F(0), all_x, F(2))  # no round would be sampled
    with pytest.raises(PreconditionError, match="exceeds the largest delta 1/2"):
        continuity_witness(P, F(1, 2), all_x, F(3, 4))
    assert continuity_witness(P, F(1, 2), all_x, F(1, 2)) == WitnessResult(True, delta=F(1, 2))


def test_witness_precondition(graphs):
    g = graphs["G_LINE"]
    P = gamma_path(g, frozenset())
    tiny = ball(g, GraphPoint("R1", F(2)), F(1, 10))
    with pytest.raises(PreconditionError):
        continuity_witness(P, F(1, 2), [tiny], F(1, 100))


def test_witness_failure_reported(graphs):
    g = graphs["G_LINE"]
    P = gamma_path(g, frozenset())
    # the front t/(1-t) meets the tiny ball around its value at t0 = 1/2 only
    # after t = 1999/3999, and every window down to delta 1/8 reaches back there
    front = ball(g, GraphPoint("R1", F(1)), F(1, 2000))
    res = continuity_witness(P, F(1, 2), [OpenRegion(g, (), all_space=True), front], F(1, 8))
    assert res == WitnessResult(False, failed_at=F(1999, 3999))


class _Jump(Stage):
    """R1:[0,1] up to t = 1/4, then R1:[0,3]: a path that is not continuous."""

    def _at(self, p, q):
        return parse_set("R1:[0,1]" if 4 * p <= q else "R1:[0,3]", self.graph)


def test_witness_does_not_assume_a_continuous_path(graphs):
    # the motion puts a critical time at 1/4, where the value is still good;
    # only the gap after it, read at its midpoint, shows the jump out of the
    # ball, and a failure names the midpoint of the gap's part in the window
    g = graphs["G_LINE"]
    P = HyperPath(g, (_Jump("JUMP", g, None, "jump", ((Motion("R1", F(1), F(4)), None),)),))
    Us = [ball(g, GraphPoint("R1", F(0)), F(2))]
    assert continuity_witness(P, F(0), Us, F(1, 8)) == WitnessResult(True, delta=F(1, 4))
    assert continuity_witness(P, F(0), Us, F(1, 2)) == WitnessResult(False, failed_at=F(3, 8))


def test_parse_region(graphs):
    g = graphs["G_I"]
    U = parse_region("ball E1:1/2 3/10", g)
    assert U.balls[0][1] == F(3, 10)
    assert parse_region("all", g).all_space
    two = parse_region("ball E1:0 1/4 ball E1:1 1/4", g)
    assert len(two.balls) == 2
