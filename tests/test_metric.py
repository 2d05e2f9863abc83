import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rayspace import (
    INF,
    ClosedSubset,
    GraphPoint,
    PreconditionError,
    direction_set,
    directed_hausdorff,
    dist_point_to_set,
    hausdorff,
    is_infinite,
    is_subset,
    oracle_hausdorff,
    parse_graph,
    parse_set,
    point_distance,
    union,
)

from rayspace.metric import _vertex_to_set, distance_profile
from rayspace.paths import vietoris_path

from conftest import (
    _ref_profile,
    _ref_vertex_to_set,
    random_in_c3,
    random_point,
    random_ray_graph,
    random_subset,
)


def test_dist_point_to_set_examples(graphs):
    gr = graphs["G_R"]
    assert dist_point_to_set(gr, GraphPoint("R1", F(5)), parse_set("R1:{0}", gr)) == 5
    assert dist_point_to_set(gr, GraphPoint("R1", F(0)), parse_set("R1:[1,inf)", gr)) == 1
    gl = graphs["G_LOOP"]
    assert dist_point_to_set(gl, GraphPoint("E1", F(1, 2)), parse_set("E1:{0}", gl)) == F(1, 2)


def test_distances_refuse_a_set_of_another_graph(graphs):
    g, other = graphs["G_LINE"], graphs["G_STAR3"]
    mine, theirs = parse_set("R1:[0,1]", g), parse_set("R1:[0,1]", other)
    with pytest.raises(PreconditionError, match="given graph"):
        dist_point_to_set(g, GraphPoint("R1", F(5)), theirs)
    for A, B in ((mine, theirs), (theirs, mine)):
        with pytest.raises(PreconditionError, match="given graph"):
            hausdorff(g, A, B)


def test_directed_hausdorff_examples(graphs):
    g = graphs["G_I"]
    arc, pt = parse_set("E1:[0,1]", g), parse_set("E1:{0}", g)
    assert directed_hausdorff(g, arc, pt) == 1
    assert directed_hausdorff(g, pt, arc) == 0
    gr = graphs["G_R"]
    assert is_infinite(
        directed_hausdorff(gr, parse_set("R1:[1/4,inf)", gr), parse_set("R1:[1/4,1/2]", gr))
    )


def test_hausdorff_examples(graphs):
    g = graphs["G_I"]
    assert hausdorff(g, parse_set("E1:[0,1]", g), parse_set("E1:{0}", g)) == 1
    gr = graphs["G_R"]
    assert hausdorff(gr, parse_set("R1:[1/4,1/2]", gr), parse_set("R1:[1/4,inf)", gr)) == INF


def test_hausdorff_loop_against_grid_oracle(graphs):
    g = graphs["G_LOOP"]
    loop, pt = parse_set("E1:[0,1]", g), parse_set("E1:{0}", g)
    # independent grid oracle: max over loop samples of distance to the vertex
    h = F(1, 100)
    grid_value = max(
        point_distance(g, GraphPoint("E1", k * h), GraphPoint("E1", F(0)))
        for k in range(101)
    )
    assert abs(grid_value - F(1, 2)) <= h
    assert hausdorff(g, loop, pt) == F(1, 2)
    assert abs(oracle_hausdorff(g, loop, pt, h, F(2)) - F(1, 2)) <= h


def test_shared_tails_contribute_finitely(graphs):
    gr = graphs["G_R"]
    A = parse_set("R1:[0,inf)", gr)
    B = parse_set("R1:[5,inf)", gr)
    assert hausdorff(gr, A, B) == 5
    assert directed_hausdorff(gr, B, A) == 0


def test_two_rays_with_far_pieces(graphs):
    g = graphs["G_LINE"]
    A = parse_set("R1:{2}", g)
    B = parse_set("R2:{3}", g)
    assert hausdorff(g, A, B) == 5


def test_infinite_iff_direction_mismatch_random(graphs):
    rng = random.Random(90125)
    for name in ("G_LINE", "G_NOOSE", "G_MIXED"):
        g = graphs[name]
        for _ in range(80):
            A = random_subset(g, rng)
            B = random_subset(g, rng)
            d = hausdorff(g, A, B)
            assert is_infinite(d) == (direction_set(g, A) != direction_set(g, B))


def test_metric_axioms_random(graphs):
    rng = random.Random(61331)
    for g in graphs.values():
        for _ in range(40):
            A, B, C = (random_subset(g, rng) for _ in range(3))
            dab = hausdorff(g, A, B)
            assert dab == hausdorff(g, B, A)
            assert (dab == 0) == (A == B)
            dac, dcb = hausdorff(g, A, C), hausdorff(g, C, B)
            if not is_infinite(dac) and not is_infinite(dcb):
                assert dab <= dac + dcb
            assert hausdorff(g, A, A) == 0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_metric_axioms_on_random_graphs(seed):
    """Criterion 3's extended metric axioms, INF included, on a random graph;
    C shares A's direction set, so one side of the triangle is finite."""
    rng = random.Random(seed)
    g = random_ray_graph(rng)
    A, B = random_subset(g, rng), random_subset(g, rng)
    C = random_subset(g, rng, tails_on=direction_set(g, A))
    dab = hausdorff(g, A, B)
    assert dab == hausdorff(g, B, A)
    assert (dab == 0) == (A == B)
    assert hausdorff(g, A, A) == 0
    dac, dcb = hausdorff(g, A, C), hausdorff(g, C, B)
    assert not is_infinite(dac)
    if not is_infinite(dcb):
        assert not is_infinite(dab)
        assert dab <= dac + dcb


def test_vertex_to_set_matches_the_reference_on_path_values_and_unions(graphs):
    # the integer vertex-to-set against the least distance to a piece end;
    # path values and unions lie on scales other than the graph's
    rng = random.Random(3131)
    cases = [*graphs.values()] + [random_ray_graph(rng) for _ in range(200)]
    off_scale = 0
    for g in cases:
        A, B = random_in_c3(g, rng), random_subset(g, rng)
        P = vietoris_path(g, A, 3)
        for S in (B, union(A, B), P.at(F(1, 3)), P.at(F(5, 7))):
            off_scale += S.scale != g.scale
            for v in g.vertices:
                d = _vertex_to_set(g, v, S)
                assert type(d) is F and d == _ref_vertex_to_set(g, v, S)
    assert off_scale > 2 * len(cases)


def test_directed_zero_iff_subset(graphs):
    rng = random.Random(5150)
    for g in graphs.values():
        for _ in range(40):
            A = random_subset(g, rng)
            B = random_subset(g, rng)
            AB = union(A, B)
            assert directed_hausdorff(g, A, AB) == 0
            d = directed_hausdorff(g, A, B)
            if not is_infinite(d):
                assert (d == 0) == is_subset(g, A, B)


def test_profile_invariants(graphs):
    rng = random.Random(777)
    for name in ("G_I", "G_LOOP", "G_MIXED"):
        g = graphs[name]
        for _ in range(20):
            B = random_subset(g, rng)
            for e in list(g.edges) + list(g.rays):
                prof = distance_profile(g, e.id, B)
                span = g.element_length(e.id) or F(4)
                xs = [F(k, 7) * span / 2 for k in range(15)]
                xs = [x for x in xs if x <= span]
                vals = {x: prof.eval(x) for x in xs}
                for x in xs:
                    p = GraphPoint(e.id, x)
                    assert vals[x] == dist_point_to_set(g, p, B)
                    assert vals[x] >= 0
                for x in xs:
                    for y in xs:
                        assert abs(vals[x] - vals[y]) <= abs(x - y)  # 1-Lipschitz


def test_oracle_agreement_on_bounded_pairs(graphs):
    rng = random.Random(424242)
    h = F(1, 50)
    for name in ("G_I", "G_LOOP", "G_LINE"):
        g = graphs[name]
        for _ in range(30):
            A = random_subset(g, rng, bounded=True)
            B = random_subset(g, rng, bounded=True)
            exact = hausdorff(g, A, B)
            approx = oracle_hausdorff(g, A, B, h, F(4))
            assert abs(approx - exact) <= h


# ---- reference: the pairwise-crossing envelope of conftest.py ---------------


def _ref_directed(g, A, B):
    """sup of the reference profile at span ends and interior breakpoints."""
    if any(ep.tail is not None and B.tail_on(eid) is None for eid, ep in A.pieces):
        return INF
    best = F(0)
    for eid, ep in A.pieces:
        prof = _ref_profile(g, eid, B)
        spans = list(ep.intervals)
        if ep.tail is not None:
            spans.append((ep.tail, max(ep.tail, B.tail_on(eid))))
        for a, b in spans:
            inner = [v for x, v in zip(prof.xs, prof.vals) if a < x < b]
            best = max([best, prof.eval(a), prof.eval(b), *inner])
    return best


def test_profile_matches_pairwise_reference(graphs):
    rng = random.Random(31337)
    for g in graphs.values():
        for max_pieces in (1, 2, 3, 4):
            for _ in range(6):
                B = random_subset(g, rng, max_pieces=max_pieces)
                for eid in [e.id for e in g.edges] + [r.id for r in g.rays]:
                    prof, ref = distance_profile(g, eid, B), _ref_profile(g, eid, B)
                    far = max([*prof.xs, *ref.xs]) + 2
                    for x in set(prof.xs) | set(ref.xs) | {far}:
                        if g.element_length(eid) is None or x <= g.element_length(eid):
                            assert prof.eval(x) == ref.eval(x), (eid, B, x)


def test_profile_candidates_are_the_reference_peaks(graphs):
    """``xs`` holds every interior strict local max of the reference envelope,
    strictly increasing inside (0, L), at most one more than B's spans there."""
    rng = random.Random(8128)
    cases = [(g, m) for g in graphs.values() for m in (1, 2, 3, 4)]
    cases += [(random_ray_graph(rng), 3) for _ in range(20)]
    for g, max_pieces in cases:
        for _ in range(4):
            B = random_subset(g, rng, max_pieces=max_pieces)
            for eid in [e.id for e in g.edges] + [r.id for r in g.rays]:
                xs, ref = distance_profile(g, eid, B).xs, _ref_profile(g, eid, B)
                length = g.element_length(eid)
                spans = len(B.intervals_on(eid)) + (B.tail_on(eid) is not None)
                assert len(xs) <= spans + 1, (eid, B, xs)
                assert all(x < y for x, y in zip(xs, xs[1:])), (eid, B, xs)
                assert all(0 < x and (length is None or x < length) for x in xs), (eid, B, xs)
                v = ref.vals
                peaks = {ref.xs[i] for i in range(1, len(v) - 1) if v[i - 1] < v[i] > v[i + 1]}
                assert peaks <= set(xs), (eid, B, peaks, xs)


def test_directed_hausdorff_matches_pairwise_reference(graphs):
    rng = random.Random(27182)
    for g in graphs.values():
        for max_pieces in (1, 2, 3, 4):
            for _ in range(8):
                A = random_subset(g, rng, max_pieces=max_pieces)
                B = random_subset(g, rng, max_pieces=max_pieces)
                assert directed_hausdorff(g, A, B) == _ref_directed(g, A, B), (A, B)


def _interleaved_set(g, rng, m):
    """m short intervals alternating between E1 and E2, plus a tail on R1."""
    pos = {"E1": F(0), "E2": F(0)}
    intervals = {"E1": [], "E2": []}
    for i in range(m):
        eid = "E1" if i % 2 == 0 else "E2"
        a = pos[eid] + F(rng.randint(1, 40), rng.choice((1, 2, 3, 4)))
        pos[eid] = b = a + F(rng.randint(1, 20), rng.choice((1, 2, 4)))
        intervals[eid].append((a, b))
    tail = F(rng.randint(0, 20), rng.choice((1, 2)))
    return ClosedSubset.from_pieces(g, intervals, {"R1": tail})


def test_directed_hausdorff_matches_reference_on_32_piece_sets():
    g = parse_graph("vertex u v; edge E1 u v length 1000; edge E2 u v length 999; "
                    "ray R1 u; ray R2 v")
    rng = random.Random(1618)
    for _ in range(2):
        A, B = _interleaved_set(g, rng, 32), _interleaved_set(g, rng, 32)
        assert directed_hausdorff(g, A, B) == _ref_directed(g, A, B)
        assert directed_hausdorff(g, B, A) == _ref_directed(g, B, A)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_metric_matches_reference_on_random_graphs(seed):
    rng = random.Random(seed)
    g = random_ray_graph(rng)
    A, B = random_subset(g, rng, max_pieces=3), random_subset(g, rng, max_pieces=3)
    assert directed_hausdorff(g, A, B) == _ref_directed(g, A, B), (g, A, B)
    for _ in range(8):
        p = random_point(g, rng)
        assert dist_point_to_set(g, p, B) == _ref_profile(g, p.element, B).eval(p.coord), (g, p, B)
