"""Independent semantic oracles for the set layer.

Canonical forms are checked against raw point-set semantics: membership by
alias-aware raw lookup, equality under re-expression (splitting pieces,
adding redundant points, moving vertex points between incident elements),
subset and component count against metric-based pointwise oracles.  Endpoint
denominators divide 12 throughout, so distinct components are at least 1/12
apart and a 1/24 probe step cannot lie.
"""

import random
from fractions import Fraction as F

from rayspace import ClosedSubset, component_count, contains_point, is_subset, union
from rayspace.graph import GraphPoint, point_distance

STEP = F(1, 24)
DENOMS = (1, 2, 3, 4, 6, 12)


def _rat(rng, lo, hi):
    den = rng.choice(DENOMS)
    return F(rng.randint(int(F(lo) * den), int(F(hi) * den)), den)


def _raw_subset(g, rng, span=F(2), max_pieces=2):
    """Raw (uncanonicalized) piece data plus the built subset."""
    intervals, tails = {}, {}
    for e in g.edges:
        for _ in range(rng.randint(0, max_pieces)):
            a, b = sorted((_rat(rng, 0, e.length), _rat(rng, 0, e.length)))
            intervals.setdefault(e.id, []).append((a, b))
    for r in g.rays:
        for _ in range(rng.randint(0, max_pieces)):
            a, b = sorted((_rat(rng, 0, span), _rat(rng, 0, span)))
            intervals.setdefault(r.id, []).append((a, b))
        if rng.random() < 0.4:
            tails[r.id] = _rat(rng, 0, span)
    if not intervals and not tails:
        intervals[g.edges[0].id if g.edges else g.rays[0].id] = [(F(0), F(1, 2))]
    A = ClosedSubset.from_pieces(g, intervals, tails)
    return intervals, tails, A


def _raw_contains(g, intervals, tails, p: GraphPoint) -> bool:
    v = g.vertex_at(p.element, p.coord)
    reps = g.vertex_representations(v) if v is not None else [(p.element, p.coord)]
    for eid, c in reps:
        if any(a <= c <= b for a, b in intervals.get(eid, ())):
            return True
        if eid in tails and c >= tails[eid]:
            return True
    return False


def _probe_points(g, A, pad=STEP):
    pts = []
    for eid, ep in A.pieces:
        length = g.element_length(eid)
        spans = list(ep.intervals)
        if ep.tail is not None:
            spans.append((ep.tail, ep.tail + 1))
        for a, b in spans:
            for c in (a - pad, a, a + pad, (a + b) / 2, b - pad, b, b + pad):
                if c >= 0 and (length is None or c <= length):
                    pts.append(GraphPoint(eid, c))
    return pts


def test_membership_matches_raw_semantics(graphs):
    rng = random.Random(1201)
    for name in ("G_LOOP", "G_LINE", "G_MIXED", "G_TRIOD"):
        g = graphs[name]
        for _ in range(25):
            intervals, tails, A = _raw_subset(g, rng)
            for p in _probe_points(g, A):
                assert contains_point(g, A, p) == _raw_contains(g, intervals, tails, p)
            # vertex aliases specifically
            for v in g.vertices:
                for rep in g.vertex_representations(v):
                    p = GraphPoint(*rep)
                    assert contains_point(g, A, p) == _raw_contains(g, intervals, tails, p)


def _reexpress(g, A, rng):
    """Rewrite A's raw data without changing its point set."""
    intervals, tails = {}, {}
    for eid, ep in A.pieces:
        out = intervals.setdefault(eid, [])
        for a, b in ep.intervals:
            if a < b and rng.random() < 0.7:
                m = a + (b - a) * F(rng.randint(1, 3), 4)
                out.append((a, m))
                out.append((m, b))
            else:
                out.append((a, b))
            if a < b and rng.random() < 0.5:
                c = a + (b - a) * F(rng.randint(0, 4), 4)
                out.append((c, c))  # redundant interior point
        if ep.tail is not None:
            tails[eid] = ep.tail
            if rng.random() < 0.5:
                out.append((ep.tail, ep.tail + 1))  # swallowed by the tail
    # restate any vertex point of A on every incident representation
    for v in A.vertices:
        for eid, c in g.vertex_representations(v):
            if rng.random() < 0.5:
                intervals.setdefault(eid, []).append((c, c))
    return ClosedSubset.from_pieces(g, intervals, tails)


def test_canonical_form_invariant_under_reexpression(graphs):
    rng = random.Random(1202)
    for name in ("G_LOOP", "G_LINE", "G_MIXED", "G_STAR3"):
        g = graphs[name]
        for _ in range(30):
            _, _, A = _raw_subset(g, rng)
            assert _reexpress(g, A, rng) == A


def test_subset_matches_pointwise_oracle(graphs):
    rng = random.Random(1203)
    for name in ("G_LOOP", "G_MIXED"):
        g = graphs[name]
        for _ in range(25):
            _, _, A = _raw_subset(g, rng)
            _, _, B = _raw_subset(g, rng)
            AB = union(A, B)
            # dense probes over A at STEP resolution decide A against B and AB
            probes = []
            for eid, ep in A.pieces:
                spans = list(ep.intervals) + (
                    [(ep.tail, ep.tail + 2)] if ep.tail is not None else []
                )
                for a, b in spans:
                    c = a
                    while c <= b:
                        probes.append(GraphPoint(eid, c))
                        c += STEP
                    probes.append(GraphPoint(eid, b))
            tails_ok = all(
                B.tail_on(eid) is not None and B.tail_on(eid) <= ep.tail
                for eid, ep in A.pieces
                if ep.tail is not None
            )
            expected = tails_ok and all(contains_point(g, B, p) for p in probes)
            assert is_subset(g, A, B) == expected
            assert is_subset(g, A, AB)


def _component_oracle(g, A):
    """Metric-based union-find over a dense sample of A (step 1/24)."""
    samples: list[GraphPoint] = []
    for eid, ep in A.pieces:
        spans = list(ep.intervals) + ([(ep.tail, ep.tail + 1)] if ep.tail is not None else [])
        for a, b in spans:
            c = a
            while c < b:
                samples.append(GraphPoint(eid, c))
                c += STEP
            samples.append(GraphPoint(eid, b))
    parent = list(range(len(samples)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def near_end(p):
        length = g.element_length(p.element)
        return p.coord <= STEP or (length is not None and length - p.coord <= STEP)

    ends = [i for i, p in enumerate(samples) if near_end(p)]
    by_elem: dict[str, list[int]] = {}
    for i, p in enumerate(samples):
        by_elem.setdefault(p.element, []).append(i)
    pairs = set()
    for idxs in by_elem.values():
        idxs = sorted(idxs, key=lambda i: samples[i].coord)
        pairs.update(zip(idxs, idxs[1:]))
    pairs.update((a, b) for a in ends for b in ends if a < b)
    for i, j in pairs:
        if point_distance(g, samples[i], samples[j]) <= STEP:
            parent[find(i)] = find(j)
    return len({find(i) for i in range(len(samples))})


def test_component_count_matches_metric_oracle(graphs):
    rng = random.Random(1204)
    for name in ("G_LOOP", "G_LINE", "G_MIXED", "G_TRIOD"):
        g = graphs[name]
        for _ in range(15):
            _, _, A = _raw_subset(g, rng)
            assert component_count(g, A) == _component_oracle(g, A)
