"""Stage values on one integer scale against the ``Fraction`` evaluation.

``_ref_motion_at`` and ``_ref_stage_raw`` are the stage evaluation from
before stages moved onto one integer scale: every piece end is a
``Fraction``, ``a + b t`` or ``t / (1 - t)``, and the pieces are what the
stage handed to ``from_pieces``.  Their canonical form comes from the
two-pass ``_ref_canonicalize``, and the vertex record and the component
count from the references in ``test_sets.py``, so the integer stage
evaluation and the integer canonical pass are both checked against plain
``Fraction`` arithmetic.  The last tests put ``from_pieces`` on scales near
and past 2^62 and pin that refusals still name the rationals given.
"""

import random
import re
from fractions import Fraction as F

import pytest

from rayspace import ClosedSubset, PreconditionError, graph_from_parts, parse_set
from rayspace.paths import same_component_hausdorff, vietoris_path
from rayspace.sets import component_count, direction_set, union

from conftest import random_ray_graph, random_subset
from test_canonical_form import _raw_dict, _ref_canonicalize
from test_sets import _ref_component_count, _ref_vertices

# large and coprime denominators, and times within 10^-15 of either end
TIMES = [F(k, 12) for k in range(13)] + [
    F(123456789, 1000000007), F(2**61 - 2, 2**61 - 1), F(1, 999999937),
    1 - F(1, 10**15), F(1, 10**15), F(10**12 - 1, 10**12),
]
COPRIME = (999999999989, 1000000000039, 999999999959)  # pairwise coprime, near 10^12


def _add_pieces(A, intervals, tails):
    """Add A's pieces, as ``Fraction``s, to raw ``from_pieces`` data; a tail keeps the lower start."""
    for eid, ep in A.pieces:
        if ep.intervals:
            intervals.setdefault(eid, []).extend(ep.intervals)
        if ep.tail is not None:
            tails[eid] = min(tails.get(eid, ep.tail), ep.tail)


def _ref_motion_at(m, t):
    """Where the end sits at local time t >= start; None once unbounded."""
    if t >= m.stop:
        return None if m.b is None else m.a + m.b * m.stop
    return t / (1 - t) if m.b is None else m.a + m.b * t


def _ref_stage_raw(stage, t):
    """The raw pieces the stage's value at t is the canonical form of."""
    if stage.backwards:
        t = 1 - t
    intervals, tails = {}, {}
    for lower, upper in stage.pieces:
        if t < lower.start:
            break
        lo = _ref_motion_at(lower, t)
        hi = None if upper is None else _ref_motion_at(upper, t)
        if hi is None:
            tails[lower.element] = lo
        else:
            intervals.setdefault(lower.element, []).append((lo, hi))
    if stage.base is not None:
        _add_pieces(stage.base, intervals, tails)
    return intervals, tails


def _check_value(g, A, want_pieces):
    assert A.pieces == want_pieces
    assert A.vertices == _ref_vertices(g, A)
    assert A.components == component_count(g, A) == _ref_component_count(g, A)


def _stage_graphs(graphs):
    rng = random.Random(2201)
    return list(graphs.values()) + [random_ray_graph(rng) for _ in range(25)]


def test_stage_values_match_the_fraction_evaluation(graphs):
    rng = random.Random(2202)
    seen, checked = set(), 0
    for g in _stage_graphs(graphs):
        for _ in range(2):
            A = random_subset(g, rng)
            P = vietoris_path(g, A, component_count(g, A))
            for stage in P.stages:
                if not stage.pieces:
                    continue
                for s in (stage, stage.reversed()):
                    seen.add(s.kind)
                    for t in TIMES:
                        want = _ref_canonicalize(g, _raw_dict(*_ref_stage_raw(s, t)))
                        _check_value(g, s.at(t), want)
                        checked += 1
    assert seen == {"F0", "F1", "F2", "GAMMA", "F0~", "F1~", "F2~", "GAMMA~"}
    assert checked > 4000


def test_gamma_near_one_grows_as_t_over_one_minus_t(graphs):
    g = graphs["G_LINE"]
    stage = vietoris_path(g, parse_set("R1:[2,inf)", g), 1).stages[-1]
    for k in (10**3 + 1, 10**15 + 1, 2**61 - 1):  # t / (1 - t) = (k - 2) / 2 at t = 1 - 2/k
        assert stage.at(1 - F(2, k)).render() == f"R1:[0,inf) R2:[0,{k - 2}/2]"
        assert stage.reversed().at(F(2, k)).render() == f"R1:[0,inf) R2:[0,{k - 2}/2]"
    assert stage.at(1).render() == "R1:[0,inf) R2:[0,inf)"


def test_path_values_pick_their_stage_in_ints(graphs):
    rng = random.Random(2203)
    g = graphs["G_MIXED"]
    A = random_subset(g, rng, max_pieces=1)
    B = random_subset(g, rng, max_pieces=1, tails_on=direction_set(g, A))
    n = max(component_count(g, S) for S in (A, B))
    for P in (vietoris_path(g, A, n), same_component_hausdorff(g, A, B, n).path):
        k = len(P.stages)
        for t in TIMES + [F(i, k) for i in range(k + 1)]:
            idx = min(int(t * k), k - 1)
            assert P.at(t) == P.stages[idx].at(t * k - idx)
    for bad in (F(-1, 10**12), 1 + F(1, 10**12), F(2)):
        with pytest.raises(PreconditionError, match=re.escape(f"path parameter {bad} outside")):
            P.at(bad)


# ---- from_pieces on big scales ---------------------------------------------


def _big_graphs():
    """Two coprime length denominators near 10^12, and an edge of length 2^62."""
    coprime = graph_from_parts(
        ["u", "v"],
        [("E1", "u", "v", F(3 * COPRIME[0] + 1, COPRIME[0])),
         ("E2", "u", "v", F(2 * COPRIME[1] - 1, COPRIME[1])), ("L1", "v", "v", F(1, 3))],
        [("R1", "u"), ("R2", "v")],
    )
    huge = graph_from_parts(
        ["u", "v"], [("E1", "u", "v", F(2**62)), ("L1", "u", "u", F(5, 7))], [("R1", "v")]
    )
    return coprime, huge


def _big_coord(rng, hi):
    """A coordinate in [0, hi] over a big coprime denominator, or an end."""
    roll = rng.random()
    if roll < 0.15:
        return F(0)
    if roll < 0.3 and hi is not None:
        return hi
    den = rng.choice(COPRIME)
    top = (hi if hi is not None else F(3)) * den
    return F(rng.randint(0, top.numerator // top.denominator), den)


def _big_raw(g, rng):
    intervals, tails = {}, {}
    for eid in [e.id for e in g.edges] + [r.id for r in g.rays]:
        length = g.element_length(eid)
        for _ in range(rng.randint(0, 3)):
            a, b = sorted((_big_coord(rng, length), _big_coord(rng, length)))
            intervals.setdefault(eid, []).append(rng.choice([(a, b), (a, a), (b, b)]))
        if length is None and rng.random() < 0.4:
            tails[eid] = _big_coord(rng, None)
    if not intervals and not tails:
        intervals["R1"] = [(F(1, COPRIME[2]), F(1, COPRIME[2]))]
    return intervals, tails


def test_from_pieces_on_coprime_and_huge_scales():
    rng = random.Random(2204)
    for g in _big_graphs():
        for _ in range(150):
            intervals, tails = _big_raw(g, rng)
            A = ClosedSubset.from_pieces(g, intervals, tails)
            _check_value(g, A, _ref_canonicalize(g, _raw_dict(intervals, tails)))
            assert parse_set(A.render(), g) == A
            B = ClosedSubset.from_pieces(g, *_big_raw(g, rng))
            both_intervals, both_tails = {}, {}
            _add_pieces(A, both_intervals, both_tails)
            _add_pieces(B, both_intervals, both_tails)
            want = _ref_canonicalize(g, _raw_dict(both_intervals, both_tails))
            _check_value(g, union(A, B), want)


@pytest.mark.parametrize("intervals, tails, msg", [
    ({"E1": [(F(1, 2), F(1, 3))]}, {}, "malformed interval [1/2,1/3] on E1"),
    ({"E1": [(F(1, 2), F(5, 3))]}, {}, "interval [1/2,5/3] out of range on E1"),
    ({"E2": [(F(-1, 7), F(1, 2))]}, {}, "interval [-1/7,1/2] out of range on E2"),
    ({}, {"R1": F(-1, 3)}, "tail start -1/3 out of range on R1"),
    ({}, {"E1": F(1, 3)}, "tail on edge E1; tails only exist on rays"),
    ({"E1": [(F(1, COPRIME[0]), F(1, COPRIME[1]))]}, {},
     f"malformed interval [1/{COPRIME[0]},1/{COPRIME[1]}] on E1"),
    ({"E2": [(F(1, COPRIME[0]), F(3, 2) + F(1, COPRIME[1]))]}, {},
     f"interval [1/{COPRIME[0]},{F(3, 2) + F(1, COPRIME[1])}] out of range on E2"),
])
def test_refusals_name_the_rationals_given(graphs, intervals, tails, msg):
    g = graphs["G_MIXED"]
    with pytest.raises(PreconditionError) as exc:
        ClosedSubset.from_pieces(g, intervals, tails)
    assert str(exc.value) == msg
