import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rayspace import (
    INF,
    ClosedSubset,
    PreconditionError,
    canonical_element,
    component_count,
    component_count_formula,
    contains_point,
    direction_set,
    eval_path,
    gamma_path,
    hausdorff,
    in_cn,
    is_subset,
    lipschitz_bound,
    parse_graph,
    parse_set,
    path_to_canonical,
    same_component_hausdorff,
    union,
    vietoris_path,
    whole_space,
)
import rayspace.paths
from rayspace.paths import F0, F2, HyperPath, Motion, Stage, covering_walk
from rayspace.graph import GraphPoint, as_fraction

from conftest import rational, random_in_c3, random_ray_graph, random_subset


def test_f0_formula_example(graphs):
    g = graphs["G_R"]
    P = path_to_canonical(g, parse_set("R1:[2,inf)", g), 1)
    assert P.stages[0].at(F(1, 2)) == parse_set("R1:[1,inf)", g)


def test_f1_shrink_slide_example(graphs):
    g = graphs["G_LINE"]
    A = parse_set("R1:[0,inf) R2:[1,2]", g)
    P = path_to_canonical(g, A, 2)
    f1 = P.stages[1]
    assert f1.at(F(1, 2)) == parse_set("R1:[0,inf) R2:[1/2,1]", g)
    assert f1.at(1) == parse_set("R1:[0,inf)", g)  # vertex point absorbed


def test_f2_covers_core_from_vertex(graphs):
    g = graphs["G_TRIOD"]
    A = parse_set("E1:{0}", g)  # just the center vertex
    P = path_to_canonical(g, A, 1)
    assert P.stages[0].at(1) == A and P.stages[1].at(1) == A  # identities
    assert P.stages[2].at(1) == canonical_element(g, frozenset())


def test_path_endpoints_and_eval(graphs):
    g = graphs["G_R"]
    A = parse_set("R1:[2,inf)", g)
    P = path_to_canonical(g, A, 1)
    assert eval_path(P, 0) == A
    assert eval_path(P, 1) == whole_space(g)  # canonical element for {1} on G_R
    with pytest.raises(PreconditionError):
        eval_path(P, F(3, 2))


def test_gamma_stage_example(graphs):
    g = graphs["G_LINE"]
    P = gamma_path(g, frozenset())
    assert eval_path(P, F(1, 2)) == parse_set("R1:[0,1] R2:[0,1]", g)  # f(1/2)=1
    assert eval_path(P, 0) == canonical_element(g, frozenset())
    assert eval_path(P, 1) == whole_space(g)


def test_vietoris_path_examples(graphs):
    g = graphs["G_LINE"]
    A = parse_set("R1:{0}", g)  # {v}
    P = vietoris_path(g, A, 1)
    assert eval_path(P, 0) == A
    assert eval_path(P, 1) == whole_space(g)
    gamma = P.stages[-1]
    assert gamma.at(F(2, 3)) == parse_set("R1:[0,2] R2:[0,2]", g)

    gr = graphs["G_R"]
    X = whole_space(gr)
    PX = vietoris_path(gr, X, 1)
    for t in (0, F(1, 3), F(2, 3), 1):
        assert eval_path(PX, t) == X  # direction set full: constant throughout


def test_gamma_monotone_growth(graphs):
    g = graphs["G_NOOSE"]
    P = gamma_path(g, frozenset())
    ts = [F(k, 12) for k in range(13)]
    for s, t in zip(ts, ts[1:]):
        assert is_subset(g, eval_path(P, s), eval_path(P, t))


def test_same_component_examples(graphs):
    g = graphs["G_LINE"]
    A = parse_set("R1:[0,inf)", g)
    B = parse_set("R2:[0,inf)", g)
    res = same_component_hausdorff(g, A, B, 1)
    assert not res.same_component
    assert res.witness_ray == 1
    assert res.path is None

    v = parse_set("R1:{0}", g)
    C = parse_set("R1:[0,3]", g)
    res2 = same_component_hausdorff(g, v, C, 1)
    assert res2.same_component
    assert eval_path(res2.path, 0) == v
    assert eval_path(res2.path, 1) == C

    res3 = same_component_hausdorff(g, A, A, 1)
    assert res3.same_component
    assert len(res3.path.stages) == 1
    for t in (0, F(1, 7), 1):
        assert eval_path(res3.path, t) == A
    assert lipschitz_bound(res3.path) == 0


def test_same_component_rejects_too_many_components(graphs):
    g = graphs["G_LINE"]
    two = parse_set("R1:{1} R1:{2}", g)  # two components, so not in C_1
    one = parse_set("R1:{1}", g)
    mismatch = parse_set("R2:[0,inf)", g)
    cases = [
        (two, mismatch),  # direction sets differ
        (mismatch, two),
        (two, two),  # A == B
        (two, one),  # the general path
        (one, two),
    ]
    for A, B in cases:
        with pytest.raises(PreconditionError, match="set has more than 1 components"):
            same_component_hausdorff(g, A, B, 1)
    assert same_component_hausdorff(g, two, one, 2).same_component


def test_component_count_formula(graphs):
    assert component_count_formula(graphs["G_I"], 1) == 1
    assert component_count_formula(graphs["G_LINE"], 5) == 4
    assert component_count_formula(graphs["G_STAR3"], 2) == 8


def test_component_bound_enforced(graphs):
    g = graphs["G_TRIOD"]
    leaves = parse_set("E1:{1} E2:{1} E3:{1}", g)
    with pytest.raises(PreconditionError):
        path_to_canonical(g, leaves, 2)
    assert path_to_canonical(g, leaves, 3) is not None


def test_lipschitz_bound_examples(graphs):
    g = graphs["G_R"]
    P = path_to_canonical(g, parse_set("R1:[2,inf)", g), 1)
    assert P.stages[0].lipschitz_bound == 2
    constant = HyperPath(g, (F0(g, whole_space(g), ()),))
    assert lipschitz_bound(constant) == 0
    assert lipschitz_bound(gamma_path(g, frozenset())) == INF
    assert lipschitz_bound(gamma_path(g, frozenset({1}))) == 0  # full: constant


def test_walk_length_six_lipschitz(graphs):
    # triod doubled walk has length 6; check d_H(f2(s),f2(t)) <= 6|s-t| exactly
    g = graphs["G_TRIOD"]
    A = parse_set("E1:{0}", g)
    P = path_to_canonical(g, A, 1)
    f2 = P.stages[2]
    assert f2.lipschitz_bound == 6
    rng = random.Random(33)
    for _ in range(100):
        s = F(rng.randint(0, 60), 60)
        t = F(rng.randint(0, 60), 60)
        d = hausdorff(g, f2.at(s), f2.at(t))
        assert d <= 6 * abs(s - t)


def test_walk_covers_all_edges(graphs):
    for name in ("G_I", "G_LOOP", "G_TRIOD", "G_MIXED"):
        g = graphs[name]
        start = GraphPoint(*g.vertex_representations(g.vertices[0])[0])
        legs = covering_walk(g, start)
        seen = {}
        for eid, a, b in legs:
            lo, hi = min(a, b), max(a, b)
            cur = seen.get(eid)
            seen[eid] = (min(lo, cur[0]), max(hi, cur[1])) if cur else (lo, hi)
        for e in g.edges:
            assert seen[e.id] == (0, e.length)
        assert sum(abs(b - a) for _, a, b in legs) == 2 * sum(e.length for e in g.edges)


def test_covering_walk_on_long_path_graph():
    # 1500 edges in a row: deeper than the interpreter's recursion limit
    n = 1500
    g = parse_graph(
        "vertex " + " ".join(f"v{i}" for i in range(n + 1)) + "\n"
        + "\n".join(f"edge E{i} v{i} v{i + 1}" for i in range(n))
    )
    P = path_to_canonical(g, parse_set("E0:{0}", g), 1)
    assert P.stages[2].lipschitz_bound == 2 * n
    legs = covering_walk(g, GraphPoint("E0", F(0)))
    assert len(legs) == 3000
    assert legs[0] == ("E0", 0, 1) and legs[-1] == ("E0", 1, 0)
    assert legs[n - 1] == (f"E{n - 1}", 0, 1) and legs[n] == (f"E{n - 1}", 1, 0)


def test_hyperpath_rejects_unchained_stages(graphs):
    g = graphs["G_R"]
    f0 = F0(g, parse_set("R1:{0}", g), ())
    f1 = F0(g, parse_set("R1:{1}", g), ())
    with pytest.raises(PreconditionError, match="stage 1"):
        HyperPath(g, (f0, f1))
    with pytest.raises(PreconditionError):
        HyperPath(g, ())


def test_each_stage_join_checked_once(graphs, monkeypatch):
    """Each builder makes one HyperPath, so the chain check runs once per join."""
    g = graphs["G_STAR3"]
    A = parse_set("R1:[1,inf) R2:[1/2,1] R3:{2}", g)
    B = parse_set("R1:[2,inf) R2:{1}", g)
    calls = []
    at = Stage.at
    monkeypatch.setattr(Stage, "at", lambda self, t: calls.append(t) or at(self, t))
    P = vietoris_path(g, A, 3)
    # F0 and F1 ends while building, then two ends at each of the three joins
    assert len(P.stages) == 4 and len(calls) == 2 + 6
    calls.clear()
    P = same_component_hausdorff(g, A, B, 3).path
    assert len(P.stages) == 6 and len(calls) == 2 * 2 + 10
    assert P.start() == A and P.end() == B


def test_gamma_and_vietoris_paths_make_no_from_pieces_call(graphs, monkeypatch):
    # their stages, bases and values are read off ints, canonical_element's too
    rng = random.Random(4409)
    cases = [(g, random_in_c3(g, rng))
             for g in list(graphs.values()) + [random_ray_graph(rng) for _ in range(20)]]
    calls = []
    from_pieces = ClosedSubset.from_pieces

    def counting(*args):
        calls.append(args)
        return from_pieces(*args)

    monkeypatch.setattr(ClosedSubset, "from_pieces", staticmethod(counting))
    for g, A in cases:
        for P in (vietoris_path(g, A, 3), gamma_path(g, direction_set(g, A))):
            for k in range(17):
                eval_path(P, F(k, 16))
    assert calls == []


def test_path_membership_and_monotone_components(graphs):
    rng = random.Random(1999)
    for name in ("G_LINE", "G_NOOSE", "G_MIXED"):
        g = graphs[name]
        for _ in range(10):
            A = random_subset(g, rng, max_pieces=2)
            n = max(component_count(g, A), 1)
            P = path_to_canonical(g, A, n)
            delta = direction_set(g, A)
            ts = [F(k, 40) for k in range(41)]
            for t in ts:
                val = eval_path(P, t)
                assert in_cn(g, val, n)
                assert direction_set(g, val) == delta  # direction set constant along the path
            # componentwise monotone within F0 and F1
            for stage_idx in (0, 1):
                stage = P.stages[stage_idx]
                counts = [component_count(g, stage.at(F(k, 12))) for k in range(13)]
                assert all(c1 >= c2 for c1, c2 in zip(counts, counts[1:]))
            assert component_count(g, P.stages[2].at(1)) == 1


def test_stagewise_lipschitz_random(graphs):
    rng = random.Random(40)
    g = graphs["G_MIXED"]
    for _ in range(6):
        A = random_subset(g, rng, max_pieces=2)
        n = max(component_count(g, A), 1)
        P = path_to_canonical(g, A, n)
        for stage in P.stages:
            L = stage.lipschitz_bound
            vals = {t: stage.at(t) for t in (F(k, 8) for k in range(9))}
            for s in vals:
                for t in vals:
                    assert hausdorff(g, vals[s], vals[t]) <= L * abs(s - t)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_path_invariants_on_random_graphs(seed):
    rng = random.Random(seed)
    g = random_ray_graph(rng)
    A = random_in_c3(g, rng)
    grid = [F(k, 8) for k in range(9)]
    ends = (
        (path_to_canonical(g, A, 3), canonical_element(g, direction_set(g, A))),
        (vietoris_path(g, A, 3), whole_space(g)),
    )
    for P, end in ends:
        assert eval_path(P, 0) == A and eval_path(P, 1) == end
        for stage, following in zip(P.stages, P.stages[1:]):
            assert stage.at(1) == following.at(0)
        for t in grid:
            assert in_cn(g, eval_path(P, t), 3)
        for stage in P.stages:
            values = {t: stage.at(t) for t in grid}
            for _ in range(4):
                s, t = rng.sample(grid, 2)
                assert hausdorff(g, values[s], values[t]) <= stage.lipschitz_bound * abs(s - t)


def _flips(stage, holds, cells=16):
    """Brackets [lo, hi], each narrower than 2**-20, around every change of
    ``holds(stage.at(t))`` between two neighbouring grid times; ``stage`` may
    be a whole ``HyperPath`` too."""
    out, ts = [], [F(k, cells) for k in range(cells + 1)]
    for lo, hi in zip(ts, ts[1:]):
        before = holds(stage.at(lo))
        if holds(stage.at(hi)) == before:
            continue
        while hi - lo > F(1, 2**20):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if holds(stage.at(mid)) == before else (lo, mid)
        out.append((lo, hi))
    return out


@settings(max_examples=12, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_motions_solve_where_stage_values_change(seed):
    """A point of an element enters or leaves a stage's value only when one
    of the stage's motions on that element solves for it, which makes it a
    critical time of the stage, reversed or not; at every solution the
    moving end, and so the point, lies in the value."""
    rng = random.Random(seed)
    g = random_ray_graph(rng)
    A = random_subset(g, rng)
    P = vietoris_path(g, A, max(component_count(g, A), 1))
    assert [s.kind for s in P.stages] == ["F0", "F1", "F2", "GAMMA"]
    for stage in P.stages:
        for eid in sorted({m.element for m in stage.motions}):
            for _ in range(3):
                point = GraphPoint(eid, F(rng.randint(1, 47), 48) * (g.element_length(eid) or 4))
                for m in stage.motions:
                    if m.element == eid:
                        for t in m.solve(point.coord):
                            assert m.start <= t <= m.stop
                            assert contains_point(g, stage.at(t), point)
                for s in (stage, stage.reversed()):
                    times = s.critical_times({eid: {point.coord}})
                    for lo, hi in _flips(s, lambda val: contains_point(g, val, point)):
                        assert any(lo <= t <= hi for t in times), (s.desc, point, lo, hi)


def test_path_critical_times_map_each_stage_into_its_span(graphs):
    g = graphs["G_LINE"]
    P = vietoris_path(g, parse_set("R1:[0,inf) R2:[1,2]", g), 2)
    assert [s.kind for s in P.stages] == ["F0", "F1", "F2", "GAMMA"]
    # F1 brings R2's upper end to 1 at local 1/2, GAMMA's growing end at local 1/2
    want = [F(0), F(1, 4), F(3, 8), F(1, 2), F(3, 4), F(7, 8), F(1)]
    assert P.critical_times({"R2": {F(1)}}) == want


@settings(max_examples=12, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_path_values_change_only_at_path_critical_times(seed):
    """A point enters or leaves a whole path's value only in a bracket that
    holds one of ``HyperPath.critical_times``; a ``same_component_hausdorff``
    path runs its second half through reversed stages."""
    rng = random.Random(seed)
    g = random_ray_graph(rng)
    A = random_subset(g, rng)
    B = random_subset(g, rng, tails_on=direction_set(g, A))
    n = max(component_count(g, A), component_count(g, B), 1)
    back = same_component_hausdorff(g, A, B, n).path
    assert back.stages[-1].backwards or A == B
    for P in (vietoris_path(g, A, n), back):
        for eid in sorted({m.element for stage in P.stages for m in stage.motions}):
            point = GraphPoint(eid, F(rng.randint(1, 47), 48) * (g.element_length(eid) or 4))
            times = P.critical_times({eid: {point.coord}})
            for lo, hi in _flips(P, lambda val: contains_point(g, val, point), cells=32):
                assert any(lo <= t <= hi for t in times), (point, lo, hi)


def _walk_image(legs, arc):
    """Reference: per-element intervals swept after walking the first ``arc``
    units of the walk, leg by leg."""
    out, remaining = {}, arc
    for eid, a, b in legs:
        step = abs(b - a)
        if remaining >= step:
            lo, hi = min(a, b), max(a, b)
            remaining -= step
        else:
            stop = a + remaining if b >= a else a - remaining
            lo, hi = min(a, stop), max(a, stop)
            remaining = F(0)
        out.setdefault(eid, []).append((lo, hi))
        if remaining == 0:
            break
    return out


def _ref_f2_pieces(legs):
    """Reference: F2's motions worked out in ``Fraction`` arithmetic, leg by leg."""
    length, arc, pieces = sum(abs(b - a) for _, a, b in legs), F(0), []
    for eid, a, b in legs:
        sign = 1 if b >= a else -1
        span = (arc / length, (arc + abs(b - a)) / length)
        near, far = Motion(eid, a, F(0), *span), Motion(eid, a - sign * arc, sign * length, *span)
        pieces.append((near, far) if sign > 0 else (far, near))
        arc += abs(b - a)
    return tuple(pieces)


def _check_f2_against_walk(g, base, legs):
    """F2's motions are the ``Fraction`` reference's, and F2 and its reversal at
    each leg's start, midpoint and stop are the base united with the walk's
    image up to that share of its length."""
    stage, length, arc = F2(g, base, legs), sum(abs(b - a) for _, a, b in legs), F(0)
    assert stage.pieces == _ref_f2_pieces(legs)
    assert stage.desc == f"F2 covering walk of length {length} ({len(legs)} legs)"
    times = set()
    for _, a, b in legs:
        step = abs(b - a)
        times.update((arc / length, (arc + step / 2) / length, (arc + step) / length))
        arc += step
    for t in sorted(times):
        want = union(base, ClosedSubset.from_pieces(g, _walk_image(legs, t * length), {}))
        assert stage.at(t) == want, (legs, t)
        assert stage.reversed().at(1 - t) == want, (legs, t)


def test_f2_follows_the_walk_image_on_fixtures(graphs):
    for name in ("G_I", "G_LOOP", "G_NOOSE", "G_TRIOD", "G_MIXED"):
        g = graphs[name]
        starts = [GraphPoint(*g.vertex_representations(v)[0]) for v in g.vertices]
        starts += [GraphPoint(e.id, e.length / 3) for e in g.edges]
        for p in starts:
            base = ClosedSubset.from_pieces(g, {p.element: [(p.coord, p.coord)]}, {})
            _check_f2_against_walk(g, base, covering_walk(g, p))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_f2_follows_the_walk_image_on_random_graphs(seed):
    rng = random.Random(seed)
    g = random_ray_graph(rng)
    e = rng.choice(g.edges)
    legs = covering_walk(g, GraphPoint(e.id, rational(rng, 0, e.length)))
    _check_f2_against_walk(g, random_subset(g, rng), legs)


def test_exact_values_pass_through_unwrapped(graphs):
    half = F(1, 2)
    assert as_fraction(half) is half
    assert as_fraction(2) == F(2) and type(as_fraction(2)) is F
    for inexact in ("1/2", 0.5, True):
        with pytest.raises(PreconditionError, match="expected an int or a Fraction"):
            as_fraction(inexact)
    g = graphs["G_R"]
    # ints are accepted where a Fraction is expected; strings and floats are not
    A = ClosedSubset.from_pieces(g, {"R1": [(0, half)]}, {"R1": 2})
    assert A == parse_set("R1:[0,1/2] R1:[2,inf)", g)
    P = path_to_canonical(g, parse_set("R1:[2,inf)", g), 1)
    assert eval_path(P, 1) == eval_path(P, F(1))
    for inexact in ("1/6", 1 / 6, False):
        with pytest.raises(PreconditionError):
            eval_path(P, inexact)


# ---- one step from t to a stage value ----------------------------------------


def _drawn_paths(g, rng):
    """path_to_canonical, vietoris_path and same_component_hausdorff paths from a
    drawn set; the last runs to a second draw of the same direction set, or to
    the canonical element when none is drawn."""
    A = random_in_c3(g, rng)
    delta = direction_set(g, A)
    B = next((B for B in (random_in_c3(g, rng) for _ in range(5)) if direction_set(g, B) == delta),
             canonical_element(g, delta))
    return [path_to_canonical(g, A, 3), vietoris_path(g, A, 3),
            same_component_hausdorff(g, A, B, 3).path]


def _check_one_step(P):
    k = len(P.stages)
    for t in sorted({F(j, 97) for j in range(98)} | {F(i, k) for i in range(k + 1)}):
        idx = min(int(t * k), k - 1)
        value, ref = P.at(t), P.stages[idx].at(t * k - idx)
        assert (value.ends, value.scale, value.vertices, value.components) == \
            (ref.ends, ref.scale, ref.vertices, ref.components), (t, P.stages[idx].desc)


def test_path_value_is_the_stage_value_at_the_local_fraction(graphs):
    rng = random.Random(9797)
    for g in graphs.values():
        for P in _drawn_paths(g, rng):
            _check_one_step(P)


def test_path_value_is_the_stage_value_on_random_graphs():
    rng = random.Random(97)
    for _ in range(60):
        for P in _drawn_paths(random_ray_graph(rng), rng):
            _check_one_step(P)


def test_a_path_value_checks_its_parameter_once(graphs, monkeypatch):
    g = graphs["G_MIXED"]
    P = vietoris_path(g, parse_set("R1:[2,inf) R2:[1,2] E2:[1/2,1]", g), 3)
    calls = []
    check_t = rayspace.paths._check_t
    monkeypatch.setattr(rayspace.paths, "_check_t", lambda t: calls.append(t) or check_t(t))
    for t in (F(0), F(3, 8), F(1, 2), F(1)):
        calls.clear()
        P.at(t)
        assert calls == [t]


def test_path_parameter_messages(graphs):
    g = graphs["G_LINE"]
    P = vietoris_path(g, parse_set("R1:[0,1]", g), 1)
    for read, msg in ((lambda: P.at(F(3, 2)), "path parameter 3/2 outside [0,1]"),
                      (lambda: P.at(-1), "path parameter -1 outside [0,1]"),
                      (lambda: P.stages[0].at(2), "path parameter 2 outside [0,1]")):
        with pytest.raises(PreconditionError) as info:
            read()
        assert str(info.value) == msg
