"""Acceptance suite: one test per criterion, exact tolerances, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import random
from contextlib import contextmanager
from fractions import Fraction as F

from rayspace import (
    GraphPoint,
    ball,
    canonical_element,
    component_count,
    continuity_witness,
    direction_set,
    eval_path,
    gamma_path,
    hausdorff,
    in_cn,
    is_infinite,
    is_subset,
    member_basic,
    oracle_components,
    oracle_hausdorff,
    parse_graph,
    parse_wedge_expr,
    path_to_canonical,
    whole_space,
)
from rayspace.vietoris import OpenRegion
from rayspace.wedge import model_components, model_stats

from conftest import GRAPH_TEXTS, random_subset

CENSUS_GRAPHS = {
    "G_I": 0,
    "G_LOOP": 0,
    "G_R": 1,
    "G_NOOSE": 1,
    "G_LINE": 2,
    "G_STAR3": 3,
}


@contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num} ({title}): FAIL")
        raise
    print(f"[acceptance] criterion {num} ({title}): PASS")


def _graph(name):
    return parse_graph(GRAPH_TEXTS[name])


def test_criterion_1_component_census():
    with criterion(1, "component census 2^k"):
        for name, k in CENSUS_GRAPHS.items():
            g = _graph(name)
            for n in (1, 2):
                res = oracle_components(g, F(1, 2), F(2), F(3, 5), n, max_pieces=1)
                assert res.count == 2**k, (name, n, res.count)
                # the partition refines exactly by direction set: every one of
                # the 2^k direction classes is a single component
                assert len(res.group_counts) == 2**k
                assert all(c == 1 for c in res.group_counts.values())
                for rep, ds in zip(res.representatives, res.directions):
                    assert direction_set(g, rep) == ds


def test_criterion_2_infinite_iff_direction_mismatch():
    with criterion(2, "d_H infinite iff direction sets differ"):
        rng = random.Random(112)
        for name in ("G_LINE", "G_NOOSE"):
            g = _graph(name)
            checked_mixed = checked_same = 0
            for _ in range(200):
                A = random_subset(g, rng)
                B = random_subset(g, rng)
                mism = direction_set(g, A) != direction_set(g, B)
                assert is_infinite(hausdorff(g, A, B)) == mism
                checked_mixed += mism
                checked_same += not mism
            assert checked_mixed > 20 and checked_same > 20  # both cases exercised


def test_criterion_3_metric_axioms():
    with criterion(3, "extended metric axioms, exact"):
        rng = random.Random(113)
        for name in CENSUS_GRAPHS:
            g = _graph(name)
            for _ in range(200):
                A, B, C = (random_subset(g, rng) for _ in range(3))
                dab = hausdorff(g, A, B)
                assert dab == hausdorff(g, B, A)
                assert (dab == 0) == (A == B)
                dac = hausdorff(g, A, C)
                dcb = hausdorff(g, C, B)
                if is_infinite(dac) or is_infinite(dcb):
                    continue  # infinite right side absorbs the inequality
                assert not is_infinite(dab)
                assert dab <= dac + dcb


def _random_in_c3(g, rng):
    while True:
        A = random_subset(g, rng, max_pieces=2)
        if in_cn(g, A, 3):
            return A


def test_criterion_4_hausdorff_path_suite():
    with criterion(4, "three-stage path suite"):
        rng = random.Random(114)
        ts_membership = [F(k, 99) for k in range(100)]
        stage_grid = [F(k, 25) for k in range(26)]
        for name in ("G_LINE", "G_STAR3"):
            g = _graph(name)
            for _ in range(50):
                A = _random_in_c3(g, rng)
                P = path_to_canonical(g, A, 3)
                delta = direction_set(g, A)
                assert eval_path(P, 0) == A
                assert eval_path(P, 1) == canonical_element(g, delta)
                for t in ts_membership:
                    assert in_cn(g, eval_path(P, t), 3)
                for stage in P.stages[:2]:
                    counts = [component_count(g, stage.at(t)) for t in stage_grid]
                    assert all(c1 >= c2 for c1, c2 in zip(counts, counts[1:]))
                assert component_count(g, P.stages[2].at(1)) == 1
                for stage in P.stages:
                    L = stage.lipschitz_bound
                    cache = {t: stage.at(t) for t in stage_grid}
                    for _ in range(100):
                        s, t = rng.choice(stage_grid), rng.choice(stage_grid)
                        assert hausdorff(g, cache[s], cache[t]) <= L * abs(s - t)


def _random_basic_open_containing(g, val, rng, bounded_val: bool):
    """A random basic open <U1..Uk> guaranteed to contain the set ``val``."""
    regions = []
    if bounded_val and rng.random() < 1 / 2:
        # bounded cover: one generous ball around the attachment vertex
        top = max(
            [b for _, ep in val.pieces for _, b in ep.intervals] or [F(0)]
        )
        margin = F(rng.randint(1, 8), 4)
        regions.append(ball(g, GraphPoint(g.rays[0].id, F(0)), top + margin))
    else:
        regions.append(OpenRegion(g, (), all_space=True))
    for _ in range(rng.randint(1, 3)):
        # lower constraints: balls centered on points of the value
        eid, ep = rng.choice(val.pieces)
        if ep.intervals:
            a, b = rng.choice(ep.intervals)
            span = b - a
            c = a + span * F(rng.randint(0, 4), 4)
        else:
            c = ep.tail + F(rng.randint(0, 4), 4)
        regions.append(ball(g, GraphPoint(eid, c), F(rng.randint(1, 6), 4)))
    return regions


def test_criterion_5_vietoris_path_suite():
    with criterion(5, "Vietoris growth path suite"):
        rng = random.Random(115)
        g = _graph("G_LINE")
        deltas = [frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})]
        # structural monotonicity at 100 sampled pairs
        pool = [F(k, 40) for k in range(41)]
        for delta in deltas:
            P = gamma_path(g, delta)
            cache = {t: eval_path(P, t) for t in pool}
            for _ in range(25):
                s, t = sorted((rng.choice(pool), rng.choice(pool)))
                assert is_subset(g, cache[s], cache[t])
            assert eval_path(P, 1) == whole_space(g)
        # exact continuity witnesses
        searches = 0
        for t0 in (F(1, 4), F(1, 2), F(3, 4)):
            for delta in (frozenset(), frozenset({1})):
                P = gamma_path(g, delta)
                val = eval_path(P, t0)
                for _ in range(4):
                    Us = _random_basic_open_containing(
                        g, val, rng, bounded_val=(delta == frozenset())
                    )
                    assert member_basic(val, Us)
                    res = continuity_witness(P, t0, Us, F(1, 1000))
                    assert res.ok and res.delta > 0, (t0, delta)
                    searches += 1
        assert searches >= 20


def test_criterion_6_wedge_models():
    with criterion(6, "wedge composer reproduces the five models"):
        two_od = parse_wedge_expr("(interval ∨ interval)")
        assert model_components(two_od) == 1
        assert model_stats(two_od).max_dim == 2

        noose = parse_wedge_expr("(circle ∨ interval)")
        assert model_stats(noose).dims == (3, 2, 2)

        triod = parse_wedge_expr("((interval ∨ interval) ∨ interval)")
        assert model_stats(triod).dims == (3, 2, 2, 2)

        infinite_noose = parse_wedge_expr("(circle ∨ ray)")
        assert model_components(infinite_noose) == 2

        real_line = parse_wedge_expr("(ray ∨ ray)")
        assert model_components(real_line) == 4


def test_criterion_7_oracle_metric_cross_validation():
    with criterion(7, "oracle vs exact metric within h=1/100"):
        rng = random.Random(117)
        h = F(1, 100)
        for name in CENSUS_GRAPHS:
            g = _graph(name)
            for _ in range(200):
                A = random_subset(g, rng, bounded=True, span=F(2))
                B = random_subset(g, rng, bounded=True, span=F(2))
                exact = hausdorff(g, A, B)
                approx = oracle_hausdorff(g, A, B, h, F(2))
                assert abs(approx - exact) <= h
