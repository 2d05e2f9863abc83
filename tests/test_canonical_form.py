"""The one-pass canonical form against a two-pass reference.

``_ref_canonicalize`` is the earlier canonicalization kept verbatim in
spirit: merge each element's intervals, let the tail swallow what it
reaches, then resolve vertex aliasing in a second pass over every piece.
Random raw inputs restate vertex points on every incident representation,
put tails at 0, use loops and drop points inside intervals, so every branch
of the aliasing rules runs.  Then tests count canonicalizations: each
set value goes through ``_canonicalize`` exactly once.  The last tests hold
a set to its integer form: one point set reached on different scales is one
value, and a value that is only asked ``in_cn`` builds no ``Fraction`` view.
"""

import random
from fractions import Fraction as F

import pytest

import rayspace.sets
from rayspace import ClosedSubset, PreconditionError, eval_path, in_cn, parse_set, union
from rayspace.paths import (GAMMA, _canonical_stages, path_to_canonical, same_component_hausdorff,
                            vietoris_path)
from rayspace.sets import ElementPieces, canonical_element, component_count, direction_set

from conftest import ints_only, random_ray_graph, random_subset


# ---- the two-pass reference ---------------------------------------------


def _ref_merge_intervals(ivs):
    ivs = sorted(ivs)
    out = []
    for a, b in ivs:
        if out and a <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return out


def _ref_canonicalize(g, raw):
    """Pieces of the canonical form of ``raw`` ({eid: (intervals, tail)})."""
    per = {}
    for eid, (ivs, tail) in raw.items():
        length = g.element_length(eid)
        if tail is not None and length is not None:
            raise PreconditionError(f"tail on edge {eid}; tails only exist on rays")
        for a, b in ivs:
            if a > b:
                raise PreconditionError(f"malformed interval [{a},{b}] on {eid}")
            if a < 0 or (length is not None and b > length):
                raise PreconditionError(f"interval [{a},{b}] out of range on {eid}")
        if tail is not None and tail < 0:
            raise PreconditionError(f"tail start {tail} out of range on {eid}")
        merged = _ref_merge_intervals(list(ivs))
        if tail is not None:
            while merged and merged[-1][1] >= tail:
                tail = min(tail, merged[-1][0])
                merged.pop()
        if merged or tail is not None:
            per[eid] = (merged, tail)

    degen_at = {}
    covered = set()
    for eid, (ivs, tail) in per.items():
        for a, b in ivs:
            for c in {a, b}:
                v = g.vertex_at(eid, c)
                if v is None:
                    continue
                if a == b:
                    degen_at.setdefault(v, []).append((eid, a))
                else:
                    covered.add(v)
        if tail is not None and tail == 0:
            covered.add(g.element(eid).attach)

    for v, reps in degen_at.items():
        for eid, c in reps:
            ivs, tail = per[eid]
            per[eid] = ([iv for iv in ivs if iv != (c, c)], tail)
        if v not in covered:
            eid, c = g.vertex_representations(v)[0]
            ivs, tail = per.setdefault(eid, ([], None))
            if tail is not None and tail <= c:
                continue
            per[eid] = (_ref_merge_intervals(ivs + [(c, c)]), tail)

    pieces = tuple(
        (eid, ElementPieces(tuple(ivs), tail))
        for eid, (ivs, tail) in sorted(per.items())
        if ivs or tail is not None
    )
    if not pieces:
        raise PreconditionError("empty set: elements of CL(X) are nonempty")
    return pieces


def _scanned_vertices(g, pieces):
    """Vertices at an end of some piece, or under a tail that starts at 0."""
    out = set()
    for eid, ep in pieces:
        for a, b in ep.intervals:
            for c in (a, b):
                v = g.vertex_at(eid, c)
                if v is not None:
                    out.add(v)
        if ep.tail == 0:
            out.add(g.element(eid).attach)
    return out


# ---- random raw inputs ----------------------------------------------------


def _coord(rng, hi):
    den = rng.choice((1, 2, 3, 4))
    return F(rng.randint(0, int(hi * den)), den)


def _raw_input(g, rng):
    """Raw ``from_pieces`` data built to exercise every aliasing rule."""
    intervals, tails = {}, {}
    for e in g.edges:
        for _ in range(rng.randint(0, 2)):
            a, b = sorted((_coord(rng, e.length), _coord(rng, e.length)))
            intervals.setdefault(e.id, []).append((a, b))
            if rng.random() < 0.3:
                c = a + (b - a) * F(rng.randint(0, 4), 4)
                intervals[e.id].append((c, c))  # a point inside an interval
        if rng.random() < 0.2:
            intervals.setdefault(e.id, [])  # an element listed with no pieces
    for r in g.rays:
        for _ in range(rng.randint(0, 2)):
            a, b = sorted((_coord(rng, 3), _coord(rng, 3)))
            intervals.setdefault(r.id, []).append((a, b))
        roll = rng.random()
        if roll < 0.25:
            tails[r.id] = F(0)
        elif roll < 0.5:
            tails[r.id] = _coord(rng, 3)
    for v in g.vertices:
        roll = rng.random()
        reps = g.vertex_representations(v)
        if roll < 0.3:
            chosen = reps  # restated on every incident representation
        elif roll < 0.6:
            chosen = [rep for rep in reps if rng.random() < 0.5]
        else:
            chosen = []
        for eid, c in chosen:
            intervals.setdefault(eid, []).append((c, c))
    for ivs in intervals.values():
        rng.shuffle(ivs)
    return intervals, tails


def _raw_dict(intervals, tails):
    raw = {}
    for eid, ivs in intervals.items():
        raw[eid] = (list(ivs), None)
    for eid, s in tails.items():
        raw[eid] = (raw.get(eid, ([], None))[0], s)
    return raw


def _graphs(graphs):
    rng = random.Random(8101)
    return list(graphs.values()) + [random_ray_graph(rng) for _ in range(12)]


def test_one_pass_matches_two_pass_reference(graphs):
    rng = random.Random(8102)
    checked = empty = 0
    for g in _graphs(graphs):
        for _ in range(60):
            intervals, tails = _raw_input(g, rng)
            try:
                want = _ref_canonicalize(g, _raw_dict(intervals, tails))
            except PreconditionError:
                with pytest.raises(PreconditionError, match="empty set"):
                    ClosedSubset.from_pieces(g, intervals, tails)
                empty += 1
                continue
            A = ClosedSubset.from_pieces(g, intervals, tails)
            assert A.pieces == want, (g, intervals, tails)
            assert A.vertices == _scanned_vertices(g, A.pieces)
            checked += 1
    assert checked > 800 and empty > 0


def test_vertex_record_of_random_subsets(graphs):
    rng = random.Random(8103)
    for g in _graphs(graphs):
        for _ in range(20):
            A = random_subset(g, rng)
            assert A.vertices == _scanned_vertices(g, A.pieces)
            B = random_subset(g, rng)
            assert union(A, B).vertices == A.vertices | B.vertices


def test_vertex_record_ignored_by_equality_hash_and_repr(graphs):
    g = graphs["G_LINE"]
    A = ClosedSubset.from_pieces(g, {"R2": [(F(0), F(0))]})
    assert A.render() == "R1:{0}" and A.vertices == {"v"}
    B = ClosedSubset(A.graph, A.ends, A.scale, frozenset(), A.components)
    assert A == B and hash(A) == hash(B) and repr(A) == repr(B)


# ---- one canonicalization per set value -------------------------------------


@pytest.fixture
def canonicalizations(monkeypatch):
    calls = []
    orig = rayspace.sets._canonicalize

    def counted(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(rayspace.sets, "_canonicalize", counted)
    return calls


def test_union_canonicalizes_once(graphs, canonicalizations):
    rng = random.Random(8104)
    for g in graphs.values():
        for _ in range(10):
            A, B = random_subset(g, rng), random_subset(g, rng)
            canonicalizations.clear()
            union(A, B)
            assert len(canonicalizations) == 1


def test_stage_with_base_canonicalizes_once(graphs, canonicalizations):
    rng = random.Random(8105)
    seen = 0
    for name in ("G_STAR3", "G_MIXED", "G_TRIOD", "G_NOOSE"):
        g = graphs[name]
        for _ in range(4):
            A = random_subset(g, rng, max_pieces=1)
            B = random_subset(g, rng, tails_on=direction_set(g, A), max_pieces=1)
            n = max(component_count(g, S) for S in (A, B))
            paths = [path_to_canonical(g, A, n), vietoris_path(g, A, n)]
            res = same_component_hausdorff(g, A, B, n)
            paths.append(res.path)
            for P in paths:
                for stage in P.stages:
                    if stage.base is None or not stage.pieces:
                        continue
                    for t in (F(0), F(1, 3), F(1, 2), F(1)):
                        canonicalizations.clear()
                        stage.at(t)
                        assert len(canonicalizations) == 1, (name, stage.kind, t)
                        seen += 1
    assert seen > 100


# ---- the integer form: one value per point set, Fractions built on read ------


def test_a_set_reached_on_any_scale_is_one_value(graphs):
    # a stage value at t = p/q lies on D q; its render parsed back, its union
    # with itself and its pieces handed to from_pieces each take another scale
    rng = random.Random(8106)
    checked = rescaled = 0
    for g in list(graphs.values()) + [random_ray_graph(rng) for _ in range(200)]:
        A = random_subset(g, rng, max_pieces=1)
        # the stages alone: a HyperPath would compare its stages' ends first
        stages = _canonical_stages(g, A, component_count(g, A)) + (GAMMA(g, direction_set(g, A)),)
        for stage in stages:
            if not stage.pieces:
                continue
            for t in (F(1, 3), F(rng.randint(0, 12), 12), F(rng.randint(1, 6), 7)):
                v = stage.at(t)
                ways = [
                    v,
                    parse_set(v.render(), g),
                    union(v, v),
                    ClosedSubset.from_pieces(
                        g, {eid: list(ep.intervals) for eid, ep in v.pieces},
                        {eid: ep.tail for eid, ep in v.pieces if ep.tail is not None}),
                ]
                assert all(w == v for w in ways), (v.render(), [w.scale for w in ways])
                assert len({hash(w) for w in ways}) == 1
                assert len({w.render() for w in ways}) == len({repr(w) for w in ways}) == 1
                checked += 1
                rescaled += len({w.scale for w in ways}) > 1
    assert checked > 500 and rescaled > checked // 2


def test_values_asked_only_in_cn_build_no_fraction_view(graphs, monkeypatch):
    built = []
    real = rayspace.sets.ElementPieces

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(rayspace.sets, "ElementPieces", counted)
    rng = random.Random(8107)
    ts = [F(k, 99) for k in range(100)]
    fresh = 0
    for g in list(graphs.values()) + [random_ray_graph(rng) for _ in range(12)]:
        A = random_subset(g, rng, max_pieces=1)
        n = component_count(g, A)
        for build in (path_to_canonical, vietoris_path):
            # built from a fresh set, the path reads its ints and never its view
            built.clear()
            P = build(g, union(A, A), n)
            assert built == []
            values = [eval_path(P, t) for t in ts]
            for v in values:
                in_cn(g, v, n)
                component_count(g, v)
            assert built == []
            assert all(ints_only(S) for S in (*values, union(A, values[50]),
                                               canonical_element(g, direction_set(g, A))))
            # a constant stage hands back its base, whose view the path's build read
            bases = {id(s.base) for s in P.stages if not s.pieces}
            values = [v for v in values if id(v) not in bases]
            assert all("pieces" not in vars(v) for v in values)
            fresh += len(values)
            for v in values[::25]:
                text = v.render()
                assert len(built) == len(v.ends) and "pieces" in vars(v)
                assert v.render() == text and v.by_element == dict(v.pieces)
                shown = repr(v)
                assert len(built) == len(v.ends)
                assert shown == repr(parse_set(text, g))
                built.clear()
    assert fresh > 1500
