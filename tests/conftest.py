"""Shared test graphs and random generators for the suite."""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

import rayspace
from rayspace import (
    ClosedSubset,
    RayGraph,
    canonical_element,
    graph_from_parts,
    in_cn,
    parse_graph,
)
from rayspace.graph import GraphPoint, point_distance


GRAPH_TEXTS = {
    "G_I": "vertex u v; edge E1 u v",
    "G_LOOP": "vertex v; edge E1 v v",
    "G_R": "vertex v; ray R1 v",
    "G_NOOSE": "vertex v; edge E1 v v; ray R1 v",
    "G_LINE": "vertex v; ray R1 v; ray R2 v",
    "G_TRIOD": "vertex v a b c; edge E1 v a; edge E2 v b; edge E3 v c",
    "G_STAR3": "vertex v; ray R1 v; ray R2 v; ray R3 v",
    # a deliberately lumpy graph: parallel edges of different length, a long
    # loop, non-unit rays everywhere
    "G_MIXED": (
        "vertex u v\n"
        "edge E1 u v\n"
        "edge E2 u v length 3/2\n"
        "edge L1 v v length 2\n"
        "ray R1 u\n"
        "ray R2 v"
    ),
}


@pytest.fixture(scope="session")
def graphs() -> dict[str, RayGraph]:
    return {name: parse_graph(text) for name, text in GRAPH_TEXTS.items()}


def child_env() -> dict[str, str]:
    """The environment of a child interpreter that imports this copy of the package."""
    paths = [os.path.dirname(os.path.dirname(rayspace.__file__)), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def rational(rng: random.Random, lo, hi, denoms=(1, 2, 3, 4, 6, 8, 12)) -> Fraction:
    den = rng.choice(denoms)
    lo_n = int(Fraction(lo) * den)
    hi_n = int(Fraction(hi) * den)
    return Fraction(rng.randint(lo_n, hi_n), den)


def random_ray_graph(rng: random.Random) -> RayGraph:
    """A random connected ray-graph on 1-4 vertices.

    A random spanning tree, then a loop, an edge parallel to one already
    drawn and up to two more random edges, all of mixed rational lengths,
    plus 0-3 rays at random vertices.
    """
    vs = [f"v{i}" for i in range(rng.randint(1, 4))]
    pairs = [(vs[i], vs[rng.randrange(i)]) for i in range(1, len(vs))]
    loop_at = rng.choice(vs)
    pairs.append((loop_at, loop_at))
    pairs.append(rng.choice(pairs))
    pairs += [(rng.choice(vs), rng.choice(vs)) for _ in range(rng.randint(0, 2))]
    edges = [
        (f"E{i}", u, v, Fraction(rng.randint(1, 12), rng.choice((1, 2, 3, 4, 6))))
        for i, (u, v) in enumerate(pairs)
    ]
    rays = [(f"R{i}", rng.choice(vs)) for i in range(1, rng.randint(0, 3) + 1)]
    return graph_from_parts(vs, edges, rays)


def random_point(g: RayGraph, rng: random.Random, span=Fraction(3)) -> GraphPoint:
    elems = [e.id for e in g.edges] + [r.id for r in g.rays]
    eid = rng.choice(elems)
    length = g.element_length(eid)
    hi = length if length is not None else span
    return GraphPoint(eid, rational(rng, 0, hi))


def random_subset(
    g: RayGraph,
    rng: random.Random,
    *,
    bounded: bool = False,
    tails_on: frozenset[int] | None = None,
    max_pieces: int = 2,
    span=Fraction(3),
) -> ClosedSubset:
    """A random canonical subset; optionally bounded or with forced tails.

    ``tails_on`` pins the direction set exactly (overrides ``bounded``).
    """
    intervals: dict[str, list[tuple[Fraction, Fraction]]] = {}
    tails: dict[str, Fraction] = {}
    for e in g.edges:
        for _ in range(rng.randint(0, max_pieces)):
            a = rational(rng, 0, e.length)
            b = rational(rng, 0, e.length)
            intervals.setdefault(e.id, []).append((min(a, b), max(a, b)))
    for r in g.rays:
        for _ in range(rng.randint(0, max_pieces)):
            a = rational(rng, 0, span)
            b = rational(rng, 0, span)
            intervals.setdefault(r.id, []).append((min(a, b), max(a, b)))
        idx = g.ray_index[r.id]
        want_tail = idx in tails_on if tails_on is not None else (
            not bounded and rng.random() < 0.4
        )
        if want_tail:
            tails[r.id] = rational(rng, 0, span)
    if not intervals and not tails:
        elems = [e.id for e in g.edges] + [r.id for r in g.rays]
        eid = rng.choice(elems)
        length = g.element_length(eid)
        hi = length if length is not None else span
        c = rational(rng, 0, hi)
        intervals[eid] = [(c, c)]
    return ClosedSubset.from_pieces(g, intervals, tails)


def ints_only(A: ClosedSubset) -> bool:
    """Every interval end and tail start in ``A.ends`` is a plain int."""
    return all(type(x) is int for _, ivs, s in A.ends for x in (*sum(ivs, ()), s) if x is not None)


def random_in_c3(g: RayGraph, rng: random.Random) -> ClosedSubset:
    """A random subset with at most three components: one piece per element
    at most, redrawn until it fits, else the rayless core."""
    for _ in range(50):
        A = random_subset(g, rng, max_pieces=1)
        if in_cn(g, A, 3):
            return A
    return canonical_element(g, frozenset())


def brute_force_vertex_distance(g: RayGraph, source: str, target: str) -> Fraction | None:
    """Independent oracle: exhaustive walk enumeration without edge reuse."""
    best: list[Fraction | None] = [None]

    def walk(at: str, used: frozenset[str], cost: Fraction):
        if at == target and (best[0] is None or cost < best[0]):
            best[0] = cost
        for e in g.edges:
            if e.id in used:
                continue
            if e.u == at:
                walk(e.v, used | {e.id}, cost + e.length)
            elif e.v == at:
                walk(e.u, used | {e.id}, cost + e.length)

    walk(source, frozenset(), Fraction(0))
    return best[0]


# ---- reference: the pairwise-crossing envelope -----------------------------
# Every candidate (the two end lines and one vee per piece of B) is a closure,
# and every pair of candidates is intersected on every segment between the
# candidates' own breakpoints: O(c^3) per element, every breakpoint of the
# envelope, and no code of metric.py.  Vertex-to-set distances come from
# point_distance.  test_metric.py checks the metric against it, and
# test_vietoris.py cuts its reference balls from it.


def _ref_vertex_to_set(g, v, B):
    p = GraphPoint(*g.vertex_representations(v)[0])
    ends = [(eid, c) for eid, ep in B.pieces for iv in ep.intervals for c in iv]
    ends += [(eid, ep.tail) for eid, ep in B.pieces if ep.tail is not None]
    return min(point_distance(g, p, GraphPoint(eid, c)) for eid, c in ends)


@dataclass(frozen=True)
class _RefPL:
    """A PL function by its breakpoints and values; past the last breakpoint
    (rays only) it continues linearly with ``final_slope``."""

    xs: tuple
    vals: tuple
    final_slope: int

    def eval(self, x):
        xs, vals = self.xs, self.vals
        if x >= xs[-1]:
            return vals[-1] + self.final_slope * (x - xs[-1])
        lo, hi = 0, len(xs) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if xs[mid] <= x:
                lo = mid
            else:
                hi = mid
        x1, x2 = xs[lo], xs[hi]
        v1, v2 = vals[lo], vals[hi]
        return v1 + (v2 - v1) * (x - x1) / (x2 - x1)


def _ref_profile(g, eid, B) -> _RefPL:
    end0, end1 = g.element_end_vertices(eid)
    length = g.element_length(eid)
    d0 = _ref_vertex_to_set(g, end0, B)
    cands = [(lambda x: x + d0, ())]
    if end1 is not None:
        d1 = _ref_vertex_to_set(g, end1, B)
        cands.append((lambda x: length - x + d1, ()))
    ep = B.by_element.get(eid)
    for a, b in ep.intervals if ep is not None else ():
        cands.append((lambda x, a=a, b=b: max(a - x, x - b, Fraction(0)), (a, b)))
    if ep is not None and ep.tail is not None:
        cands.append((lambda x, s=ep.tail: max(s - x, Fraction(0)), (ep.tail,)))

    def envelope(x):
        return min(f(x) for f, _ in cands)

    xs = sorted({Fraction(0)} | ({length} if length is not None else set())
                | {bp for _, bps in cands for bp in bps})
    segments = list(zip(xs, xs[1:])) + ([(xs[-1], None)] if length is None else [])
    crossings = set()
    for x1, x2 in segments:
        probe = x2 if x2 is not None else x1 + 1
        lines = [(f(x1), (f(probe) - f(x1)) / (probe - x1)) for f, _ in cands]
        for i, (v_i, m_i) in enumerate(lines):
            for v_j, m_j in lines[i + 1:]:
                if m_i != m_j:
                    x = x1 + (v_j - v_i) / (m_i - m_j)
                    if x1 < x and (x2 is None or x < x2):
                        crossings.add(x)
    all_xs = sorted(set(xs) | crossings)
    vals = [envelope(x) for x in all_xs]
    final_slope = 0
    if length is None and envelope(all_xs[-1] + 1) > vals[-1]:
        final_slope = 1
    return _RefPL(tuple(all_xs), tuple(vals), final_slope)
