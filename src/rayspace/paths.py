"""Explicit hyperspace paths: the three-stage route to the canonical element
of a direction class, and the Vietoris growth path out to the whole space.

A path is a sequence of stages, each mapping a local parameter in [0, 1] to a
canonical closed subset; the composite path gives every stage an equal share
of the global [0, 1].  Stage values chain exactly (checked at construction),
and evaluation anywhere is exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .errors import PreconditionError, RayspaceError
from .graph import GraphPoint, RayGraph
from .metric import INF, ExtendedDistance
from .sets import (
    ClosedSubset,
    canonical_element,
    direction_set,
    in_cn,
    touched_vertices,
    union,
    whole_space,
)


def _check_t(t) -> Fraction:
    t = Fraction(t)
    if not 0 <= t <= 1:
        raise PreconditionError(f"path parameter {t} outside [0,1]")
    return t


# ---- covering walks of the rayless subgraph -------------------------------


@dataclass(frozen=True)
class Walk:
    """A continuous walk through edges: legs (element, from-coord, to-coord)."""

    legs: tuple[tuple[str, Fraction, Fraction], ...]

    @cached_property
    def total_length(self) -> Fraction:
        return sum((abs(b - a) for _, a, b in self.legs), Fraction(0))

    def image_up_to(self, arc: Fraction) -> dict[str, list[tuple[Fraction, Fraction]]]:
        """Per-element intervals swept after walking the first ``arc`` units."""
        out: dict[str, list[tuple[Fraction, Fraction]]] = {}
        remaining = arc
        for eid, a, b in self.legs:
            step = abs(b - a)
            if remaining >= step:
                lo, hi = min(a, b), max(a, b)
                remaining -= step
            else:
                stop = a + remaining if b >= a else a - remaining
                lo, hi = min(a, stop), max(a, stop)
                remaining = Fraction(0)
            out.setdefault(eid, []).append((lo, hi))
            if remaining == 0:
                break
        return out


def covering_walk(g: RayGraph, start: GraphPoint) -> Walk:
    """Deterministic DFS edge-doubling walk covering every edge, from ``start``.

    Interior start points first walk down to their element's coord-0 endpoint.
    """
    legs: list[tuple[str, Fraction, Fraction]] = []
    start = g.normalize_point(start)
    v0 = g.vertex_at(start.element, start.coord)
    if v0 is None:
        el = g.element(start.element)
        if g.is_ray(start.element):
            raise PreconditionError("covering walk must start inside the rayless subgraph")
        legs.append((start.element, start.coord, Fraction(0)))
        v0 = el.u

    incident: dict[str, list] = {v: [] for v in g.vertices}
    for e in sorted(g.edges, key=lambda e: e.id):
        incident[e.u].append(e)
        if not e.is_loop:
            incident[e.v].append(e)
    used: set[str] = set()

    # explicit DFS stack of (vertex, its unexplored edges, leg walking back out)
    stack = [(v0, iter(incident[v0]), None)]
    while stack:
        v, edges, back = stack[-1]
        for e in edges:
            if e.id in used:
                continue
            used.add(e.id)
            if v == e.u:
                fwd, other = (Fraction(0), e.length), e.v
            else:
                fwd, other = (e.length, Fraction(0)), e.u
            legs.append((e.id, fwd[0], fwd[1]))
            stack.append((other, iter(incident[other]), (e.id, fwd[1], fwd[0])))
            break
        else:
            stack.pop()
            if back is not None:
                legs.append(back)
    return Walk(tuple(legs))


def _least_core_point(g: RayGraph, A: ClosedSubset) -> GraphPoint:
    """Normalization-least point of A intersected with the rayless subgraph."""
    candidates: list[GraphPoint] = []
    for eid, ep in A.pieces:
        if g.is_ray(eid):
            continue
        for a, b in ep.intervals:
            candidates.append(g.normalize_point(GraphPoint(eid, a)))
            candidates.append(g.normalize_point(GraphPoint(eid, b)))
    for v in touched_vertices(g, A):
        candidates.append(GraphPoint(*g.vertex_representations(v)[0]))
    if not candidates:
        raise PreconditionError("set does not meet the rayless subgraph")
    return min(candidates, key=GraphPoint.key)


# ---- stages ----------------------------------------------------------------


@dataclass(frozen=True)
class StageF0:
    """Grow each unbounded tail down to its attachment vertex."""

    graph: RayGraph
    base: ClosedSubset
    grows: tuple[tuple[str, Fraction], ...]  # (ray id, original tail start)
    kind: str = field(default="F0", init=False)

    def at(self, t) -> ClosedSubset:
        t = _check_t(t)
        if not self.grows:
            return self.base
        tails = {rid: (1 - t) * a for rid, a in self.grows}
        return union(self.base, ClosedSubset.from_pieces(self.graph, tails=tails))

    @property
    def lipschitz_bound(self) -> ExtendedDistance:
        return max((a for _, a in self.grows), default=Fraction(0))

    def describe(self) -> str:
        if not self.grows:
            return "F0 (no tails to grow)"
        return "F0 grow tails: " + ", ".join(f"{rid} from {a}" for rid, a in self.grows)


@dataclass(frozen=True)
class StageF1:
    """Shrink and slide bounded pieces on rays outside the direction set."""

    graph: RayGraph
    base: ClosedSubset | None  # the non-moving part; None when everything moves
    moving: tuple[tuple[str, Fraction, Fraction], ...]
    kind: str = field(default="F1", init=False)

    def at(self, t) -> ClosedSubset:
        t = _check_t(t)
        if not self.moving:
            if self.base is None:
                raise RayspaceError("F1 stage has neither a base nor moving pieces")
            return self.base
        intervals: dict[str, list[tuple[Fraction, Fraction]]] = {}
        for rid, a, b in self.moving:
            intervals.setdefault(rid, []).append(((1 - t) * a, (1 - t) * b))
        moved = ClosedSubset.from_pieces(self.graph, intervals)
        return moved if self.base is None else union(self.base, moved)

    @property
    def lipschitz_bound(self) -> ExtendedDistance:
        return max((max(a, b) for _, a, b in self.moving), default=Fraction(0))

    def describe(self) -> str:
        if not self.moving:
            return "F1 (no ray pieces to retract)"
        return "F1 retract ray pieces: " + ", ".join(
            f"{rid}:[{a},{b}]" for rid, a, b in self.moving
        )


@dataclass(frozen=True)
class StageF2:
    """Grow along a covering walk until the whole rayless subgraph is included."""

    graph: RayGraph
    base: ClosedSubset
    walk: Walk
    kind: str = field(default="F2", init=False)

    def at(self, t) -> ClosedSubset:
        t = _check_t(t)
        if not self.walk.legs:
            return self.base
        swept = self.walk.image_up_to(t * self.walk.total_length)
        return union(self.base, ClosedSubset.from_pieces(self.graph, swept))

    @property
    def lipschitz_bound(self) -> ExtendedDistance:
        return self.walk.total_length

    def describe(self) -> str:
        return f"F2 covering walk of length {self.walk.total_length} ({len(self.walk.legs)} legs)"


@dataclass(frozen=True)
class StageGamma:
    """Vietoris growth from the canonical element out to the whole space."""

    graph: RayGraph
    delta: frozenset[int]
    kind: str = field(default="GAMMA", init=False)

    @cached_property
    def _start(self) -> ClosedSubset:
        return canonical_element(self.graph, self.delta)

    @cached_property
    def _missing_rays(self) -> tuple[str, ...]:
        return tuple(
            r.id for i, r in self.graph.ray_by_index.items() if i not in self.delta
        )

    def at(self, t) -> ClosedSubset:
        t = _check_t(t)
        if not self._missing_rays:
            return self._start
        if t == 1:
            return whole_space(self.graph)
        reach = t / (1 - t)
        grown = {rid: [(Fraction(0), reach)] for rid in self._missing_rays}
        return union(self._start, ClosedSubset.from_pieces(self.graph, grown))

    @property
    def lipschitz_bound(self) -> ExtendedDistance:
        # constant when the direction set is already full; otherwise the
        # growth is Hausdorff-discontinuous at t=1
        return Fraction(0) if not self._missing_rays else INF

    def describe(self) -> str:
        if not self._missing_rays:
            return "GAMMA (direction set full; constant)"
        return "GAMMA grow rays " + ", ".join(self._missing_rays) + " via t/(1-t)"


@dataclass(frozen=True)
class ReversedStage:
    """Time-reversal wrapper; used to run a constructed path backwards."""

    inner: object

    def at(self, t) -> ClosedSubset:
        return self.inner.at(1 - _check_t(t))

    @property
    def kind(self) -> str:
        return self.inner.kind + "~"

    @property
    def graph(self) -> RayGraph:
        return self.inner.graph

    @property
    def lipschitz_bound(self) -> ExtendedDistance:
        return self.inner.lipschitz_bound

    def describe(self) -> str:
        return "reversed " + self.inner.describe()


# ---- composite paths -------------------------------------------------------


@dataclass(frozen=True)
class HyperPath:
    """A piecewise path [0,1] -> C_n(X); stages share the parameter equally."""

    graph: RayGraph
    stages: tuple

    def __post_init__(self):
        if not self.stages:
            raise PreconditionError("a path needs at least one stage")
        for i, (s, s_next) in enumerate(zip(self.stages, self.stages[1:]), start=1):
            if s.at(1) != s_next.at(0):
                raise PreconditionError(f"stage {i} does not end where stage {i + 1} starts")

    def at(self, t) -> ClosedSubset:
        t = _check_t(t)
        k = len(self.stages)
        pos = t * k
        idx = min(int(pos), k - 1)
        return self.stages[idx].at(pos - idx)

    def start(self) -> ClosedSubset:
        return self.stages[0].at(0)

    def end(self) -> ClosedSubset:
        return self.stages[-1].at(1)

    def stage_spans(self) -> list[tuple[Fraction, Fraction, object]]:
        k = len(self.stages)
        return [(Fraction(i, k), Fraction(i + 1, k), s) for i, s in enumerate(self.stages)]

    def reversed(self) -> "HyperPath":
        return HyperPath(self.graph, tuple(ReversedStage(s) for s in reversed(self.stages)))


def eval_path(P: HyperPath, t) -> ClosedSubset:
    """Value of the path at rational t in [0, 1]."""
    return P.at(t)


def lipschitz_bound(P: HyperPath | object) -> ExtendedDistance:
    """Worst per-stage Lipschitz constant (stage-local parametrization)."""
    stages = P.stages if isinstance(P, HyperPath) else (P,)
    bounds = [s.lipschitz_bound for s in stages]
    if any(b == INF for b in bounds):
        return INF
    return max(bounds, default=Fraction(0))


def path_to_canonical(g: RayGraph, A: ClosedSubset, n: int) -> HyperPath:
    """The three-stage path from A to the canonical element of its direction class."""
    if not in_cn(g, A, n):
        raise PreconditionError(f"set has more than {n} components")
    grows = tuple(
        (eid, ep.tail)
        for eid, ep in A.pieces
        if ep.tail is not None and ep.tail > 0
    )
    f0 = StageF0(g, A, grows)
    a1 = f0.at(1)

    delta = direction_set(g, A)
    moving = []
    keep_intervals: dict[str, list[tuple[Fraction, Fraction]]] = {}
    keep_tails: dict[str, Fraction] = {}
    for eid, ep in a1.pieces:
        if g.is_ray(eid) and g.ray_index[eid] not in delta:
            moving.extend((eid, a, b) for a, b in ep.intervals)
            if ep.tail is not None:
                raise RayspaceError(f"F0 left a tail on {eid}, outside the direction set")
            continue
        if ep.intervals:
            keep_intervals[eid] = list(ep.intervals)
        if ep.tail is not None:
            keep_tails[eid] = ep.tail
    base1 = (
        ClosedSubset.from_pieces(g, keep_intervals, keep_tails)
        if keep_intervals or keep_tails
        else None
    )
    f1 = StageF1(g, base1, tuple(moving))
    a2 = f1.at(1)

    if g.edges:
        walk = covering_walk(g, _least_core_point(g, a2))
    else:
        walk = Walk(())
    f2 = StageF2(g, a2, walk)
    return HyperPath(g, (f0, f1, f2))


def vietoris_path(g: RayGraph, A: ClosedSubset, n: int) -> HyperPath:
    """Composite path A -> canonical element -> whole space (Vietoris-continuous)."""
    p = path_to_canonical(g, A, n)
    gamma = StageGamma(g, direction_set(g, A))
    return HyperPath(g, p.stages + (gamma,))


def gamma_path(g: RayGraph, delta: frozenset[int] | set[int]) -> HyperPath:
    """Just the growth stage from a canonical element out to the whole space."""
    return HyperPath(g, (StageGamma(g, frozenset(delta)),))


@dataclass(frozen=True)
class ClassifyResult:
    same_component: bool
    delta_a: frozenset[int]
    delta_b: frozenset[int]
    path: HyperPath | None = None
    witness_ray: int | None = None


def same_component_hausdorff(
    g: RayGraph, A: ClosedSubset, B: ClosedSubset, n: int, with_path: bool = True
) -> ClassifyResult:
    """Decide whether A and B lie in one path-component of (C_n(X), d_H).

    True exactly when the direction sets agree; then a connecting path runs
    A -> canonical element -> B.  Otherwise the least differing ray index
    witnesses the obstruction.
    """
    da = direction_set(g, A)
    db = direction_set(g, B)
    if da != db:
        if not in_cn(g, A, n) or not in_cn(g, B, n):
            raise PreconditionError(f"set has more than {n} components")
        return ClassifyResult(False, da, db, witness_ray=min(da ^ db))
    if not with_path:
        if not in_cn(g, A, n) or not in_cn(g, B, n):
            raise PreconditionError(f"set has more than {n} components")
        return ClassifyResult(True, da, db)
    if A == B:
        constant = HyperPath(g, (StageF0(g, A, ()),))
        if not in_cn(g, A, n):
            raise PreconditionError(f"set has more than {n} components")
        return ClassifyResult(True, da, db, path=constant)
    pa = path_to_canonical(g, A, n)
    pb = path_to_canonical(g, B, n)
    path = HyperPath(g, pa.stages + pb.reversed().stages)
    return ClassifyResult(True, da, db, path=path)


def component_count_formula(g: RayGraph, n: int) -> int:
    """Number of path-components of (C_n(X), d_H): 2**(ray count), independent of n."""
    if n < 1:
        raise PreconditionError("n must be a positive integer")
    return 2 ** g.ray_count
