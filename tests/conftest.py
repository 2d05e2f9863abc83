"""Shared test graphs and random generators for the suite."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from rayspace import (
    ClosedSubset,
    RayGraph,
    canonical_element,
    graph_from_parts,
    in_cn,
    parse_graph,
)
from rayspace.graph import GraphPoint


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
