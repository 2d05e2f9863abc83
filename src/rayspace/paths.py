"""Explicit hyperspace paths: the three-stage route to the canonical element
of a direction class, and the Vietoris growth path out to the whole space.

A path is a sequence of stages, each mapping a local parameter in [0, 1] to a
canonical closed subset; the composite path gives every stage an equal share
of the global [0, 1].  Every stage has the one shape of :class:`Stage`: a
fixed base united with moving pieces, each given by its two ends as
:class:`Motion` data.  The builders F0 (grow tails to their vertex), F1
(retract stray ray pieces), F2 (sweep the rayless core along the legs of a
covering walk) and GAMMA (grow the missing rays via t/(1-t)) state each piece
once; a fixed end is a motion of speed 0.  The motions alone give the stage's
value at t, its Lipschitz bound (their top speed) and its critical times (where
they meet given coordinates), which :class:`HyperPath` maps into global time.
Values chain exactly (checked at construction), and at t = p/q each end is an
exact int over D q, or D q (q - p) for t/(1-t) (``Stage._scaled``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from ._record import record, setfield
from .errors import PreconditionError, RayspaceError
from .graph import GraphPoint, RayGraph, as_count, as_fraction, check_graph
from .metric import INF, ExtendedDistance
from .sets import ClosedSubset, canonical_element, direction_set, in_cn, scale_sets


def _check_t(t) -> Fraction:
    t = as_fraction(t)
    if not 0 <= t.numerator <= t.denominator:
        raise PreconditionError(f"path parameter {t} outside [0,1]")
    return t


# ---- covering walks of the rayless subgraph -------------------------------


def covering_walk(g: RayGraph, start: GraphPoint) -> tuple[tuple[str, Fraction, Fraction], ...]:
    """Deterministic DFS edge-doubling walk covering every edge, from ``start``,
    as its legs (element, from-coord, to-coord).

    Interior start points first walk down to their element's coord-0 endpoint.
    """
    legs: list[tuple[str, Fraction, Fraction]] = []
    start = g.normalize_point(start)
    v0 = g.vertex_at(start.element, start.coord)
    if v0 is None:
        if g.is_ray(start.element):
            raise PreconditionError("covering walk must start inside the rayless subgraph")
        legs.append((start.element, start.coord, Fraction(0)))
        v0 = g.element_end_vertices(start.element)[0]

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
    return tuple(legs)


def _least_core_point(g: RayGraph, A: ClosedSubset) -> GraphPoint:
    """Normalization-least point of A intersected with the rayless subgraph."""
    # a vertex's least representation sorts before its others, so piece ends
    # need no normalizing once every held vertex is a candidate as well
    candidates = [
        GraphPoint(eid, c)
        for eid, ep in A.pieces
        if not g.is_ray(eid)
        for iv in ep.intervals
        for c in iv
    ]
    candidates += [GraphPoint(*g.vertex_representations(v)[0]) for v in A.vertices]
    if not candidates:
        raise PreconditionError("set does not meet the rayless subgraph")
    return min(candidates, key=GraphPoint.key)


# ---- stages ----------------------------------------------------------------


@record
class Motion:
    """A piece end on one element over the local times [start, stop]: at
    a + b*t, or at t/(1 - t) when ``b`` is None (GAMMA's growing rays, whose
    end is gone at t = 1).  From ``stop`` on the end rests where it stopped."""

    element: str
    a: Fraction
    b: Fraction | None
    start: Fraction
    stop: Fraction

    def __init__(self, element: str, a: Fraction, b: Fraction | None,
                 start: Fraction = Fraction(0), stop: Fraction = Fraction(1)):
        setfield(self, "element", element)
        setfield(self, "a", a)
        setfield(self, "b", b)
        setfield(self, "start", start)
        setfield(self, "stop", stop)

    def solve(self, c: Fraction) -> list[Fraction]:
        """The local times in [start, stop] at which the end sits at c."""
        if self.b is None:
            t = c / (1 + c) if c >= 0 else None
        else:
            t = (c - self.a) / self.b if self.b else None
        return [t] if t is not None and self.start <= t <= self.stop else []


@record
class Stage:
    """One path stage: ``base`` united with its ``pieces`` at local time t.

    A piece is (lower end, upper end) on the lower end's element, present
    from the lower end's ``start``; it is a tail when the upper end is None
    or unbounded.  Pieces come in order of start, so the first that has not
    started ends the evaluation.  With no pieces the
    stage is constant at ``base``; ``base`` is None when everything moves.
    ``backwards`` runs the local time from 1 down to 0.
    """

    kind: str
    graph: RayGraph
    base: ClosedSubset | None
    desc: str
    pieces: tuple[tuple[Motion, Motion | None], ...]
    backwards: bool

    def __init__(self, kind: str, graph: RayGraph, base: ClosedSubset | None, desc: str,
                 pieces: tuple[tuple[Motion, Motion | None], ...] = (), backwards: bool = False):
        setfield(self, "kind", kind)
        setfield(self, "graph", graph)
        setfield(self, "base", base)
        setfield(self, "desc", desc)
        setfield(self, "pieces", pieces)
        setfield(self, "backwards", backwards)

    @property
    def motions(self) -> tuple[Motion, ...]:
        """Every piece end, lower before upper, in piece order."""
        return tuple(m for piece in self.pieces for m in piece if m is not None)

    @property
    def lipschitz_bound(self) -> ExtendedDistance:
        """The top speed of the stage's motions; 0 when nothing moves."""
        return max((INF if m.b is None else abs(m.b) for m in self.motions), default=Fraction(0))

    @cached_property
    def _scaled(self) -> tuple:
        """The stage over one integer scale D (see ``scale_sets``): pieces as (element,
        start, lower end, upper end), each end (a, b, stop, rest) in ints over D; the
        base's intervals and tails; D; and whether an end grows as t/(1-t)."""
        # each motion paired with where it rests, by position: keying the rests
        # by Motion would hash its five Fractions
        rested = [[m and (m, None if m.b is None else m.a + m.b * m.stop) for m in piece]
                  for piece in self.pieces]
        # None and 0 add nothing to the lcm
        fracs = (x for piece in rested for mr in piece if mr
                 for x in (mr[0].a, mr[0].b, mr[0].start, mr[0].stop, mr[1]) if x)
        *base, D = scale_sets(self.graph, () if self.base is None else (self.base,), *fracs)

        def up(x: Fraction | None) -> int | None:
            return None if x is None else x.numerator * (D // x.denominator)

        def end(mr: tuple[Motion, Fraction | None] | None) -> tuple | None:
            if mr is None:
                return None
            m, rest = mr
            return up(m.a), up(m.b), up(m.stop), up(rest)

        pieces = tuple((lo[0].element, up(lo[0].start), end(lo), end(hi)) for lo, hi in rested)
        return pieces, *base, D, any(m.b is None for m in self.motions)

    def at(self, t) -> ClosedSubset:
        t = _check_t(t)
        if not self.pieces:
            if self.base is None:
                raise RayspaceError(f"{self.kind} stage has neither a base nor pieces")
            return self.base
        pieces, base_intervals, base_tails, D, grows = self._scaled
        p, q = t.numerator, t.denominator
        if self.backwards:
            p = q - p
        # at t = p/q each end a + b t is an int over D q, and t/(1 - t) over D q (q - p)
        g = q - p if grows and p < q else 1
        f = q * g
        intervals = {eid: [(a * f, b * f) for a, b in ivs] for eid, ivs in base_intervals.items()}
        tails = {eid: s * f for eid, s in base_tails.items()}
        for eid, start, lower, upper in pieces:
            if p * D < start * q:
                break
            lo = _end(lower, p, q, g, D)
            hi = None if upper is None else _end(upper, p, q, g, D)
            if hi is None:
                if eid not in tails or lo < tails[eid]:
                    tails[eid] = lo
            else:
                intervals.setdefault(eid, []).append((lo, hi))
        return ClosedSubset._from_scaled(self.graph, intervals, tails, D * f)

    def critical_times(self, ends: dict[str, set[Fraction]]) -> set[Fraction]:
        """0, 1 and the local times at which a motion starts, stops or meets one
        of ``ends`` on its own element: no piece end crosses those in between."""
        times = {Fraction(0), Fraction(1)}
        for m in self.motions:
            times.update((m.start, m.stop), *(m.solve(c) for c in ends.get(m.element, ())))
        return {1 - t for t in times} if self.backwards else times

    def reversed(self) -> "Stage":
        return Stage(self.kind + "~", self.graph, self.base, "reversed " + self.desc, self.pieces,
                     not self.backwards)


def _end(end: tuple, p: int, q: int, g: int, D: int) -> int | None:
    """An end at t = p/q as an int over D q g, or None once it has grown unbounded."""
    a, b, stop, rest = end
    if p * D >= stop * q:
        return None if rest is None else rest * q * g
    if b is None:
        return p * D * q
    return (a * q + b * p) * g


def F0(g: RayGraph, A: ClosedSubset, grows: tuple[tuple[str, Fraction], ...]) -> Stage:
    """Grow each unbounded tail (ray id, tail start) down to its attachment vertex."""
    if not grows:
        return Stage("F0", g, A, "F0 (no tails to grow)")
    desc = "F0 grow tails: " + ", ".join(f"{rid} from {a}" for rid, a in grows)
    # each tail start slides from a to (1 - t) a
    return Stage("F0", g, A, desc, tuple((Motion(rid, a, -a), None) for rid, a in grows))


def F1(
    g: RayGraph, base: ClosedSubset | None, moving: tuple[tuple[str, Fraction, Fraction], ...]
) -> Stage:
    """Shrink and slide bounded pieces on rays outside the direction set."""
    if not moving:
        return Stage("F1", g, base, "F1 (no ray pieces to retract)")
    desc = "F1 retract ray pieces: " + ", ".join(f"{rid}:[{a},{b}]" for rid, a, b in moving)
    # each piece [a, b] shrinks and slides to (1 - t) [a, b]
    pieces = tuple((Motion(rid, a, -a), Motion(rid, b, -b)) for rid, a, b in moving)
    return Stage("F1", g, base, desc, pieces)


def F2(g: RayGraph, base: ClosedSubset, legs: tuple[tuple[str, Fraction, Fraction], ...]) -> Stage:
    """Grow along the legs of a covering walk until the whole rayless subgraph is included."""
    length = sum((abs(b - a) for _, a, b in legs), Fraction(0))
    desc = f"F2 covering walk of length {length} ({len(legs)} legs)"
    # each leg runs over the arcs [arc, arc + |b - a|] of the walk's length L:
    # its far end sits at a + sign * (t * L - arc), its near end stays at a,
    # and the lower of the two comes first
    pieces, arc = [], Fraction(0)
    for eid, a, b in legs:
        sign = 1 if b >= a else -1
        span = (arc / length, (arc + abs(b - a)) / length)
        near = Motion(eid, a, Fraction(0), *span)
        far = Motion(eid, a - sign * arc, sign * length, *span)
        pieces.append((near, far) if sign > 0 else (far, near))
        arc += abs(b - a)
    return Stage("F2", g, base, desc, tuple(pieces))


def GAMMA(g: RayGraph, delta: frozenset[int]) -> Stage:
    """Vietoris growth from the canonical element out to the whole space."""
    start = canonical_element(g, delta)
    missing = tuple(r.id for i, r in g.ray_by_index.items() if i not in delta)
    if not missing:
        return Stage("GAMMA", g, start, "GAMMA (direction set full; constant)")
    # the growth is Hausdorff-discontinuous at t = 1
    desc = "GAMMA grow rays " + ", ".join(missing) + " via t/(1-t)"
    pieces = tuple((Motion(rid, Fraction(0), Fraction(0)), Motion(rid, Fraction(0), None))
                   for rid in missing)
    return Stage("GAMMA", g, start, desc, pieces)


# ---- composite paths -------------------------------------------------------


@record
class HyperPath:
    """A piecewise path [0,1] -> C_n(X); stages share the parameter equally."""

    graph: RayGraph
    stages: tuple[Stage, ...]

    def __post_init__(self):
        if not (isinstance(self.stages, tuple) and all(isinstance(s, Stage) for s in self.stages)):
            raise PreconditionError("a path's stages come as a tuple of Stages")
        check_graph(self.graph, *self.stages)
        if not self.stages:
            raise PreconditionError("a path needs at least one stage")
        for i, (s, s_next) in enumerate(zip(self.stages, self.stages[1:]), start=1):
            if s.at(1) != s_next.at(0):
                raise PreconditionError(f"stage {i} does not end where stage {i + 1} starts")

    def at(self, t) -> ClosedSubset:
        t = _check_t(t)
        k = len(self.stages)
        p, q = t.numerator * k, t.denominator
        idx = min(p // q, k - 1)
        return self.stages[idx].at(Fraction(p - idx * q, q))

    def start(self) -> ClosedSubset:
        return self.stages[0].at(0)

    def end(self) -> ClosedSubset:
        return self.stages[-1].at(1)

    def stage_spans(self) -> list[tuple[Fraction, Fraction, Stage]]:
        k = len(self.stages)
        return [(Fraction(i, k), Fraction(i + 1, k), s) for i, s in enumerate(self.stages)]

    def critical_times(self, ends: dict[str, set[Fraction]]) -> list[Fraction]:
        """Each stage's ``Stage.critical_times`` mapped through its span, sorted."""
        return sorted({lo + (hi - lo) * s for lo, hi, stage in self.stage_spans()
                       for s in stage.critical_times(ends)})


def eval_path(P: HyperPath, t) -> ClosedSubset:
    """Value of the path at rational t in [0, 1]."""
    if not isinstance(P, HyperPath):
        raise PreconditionError(f"expected a HyperPath, got {type(P).__name__}")
    return P.at(t)


def lipschitz_bound(P: HyperPath | Stage) -> ExtendedDistance:
    """Worst per-stage Lipschitz constant (stage-local parametrization)."""
    if not isinstance(P, (HyperPath, Stage)):
        raise PreconditionError(f"expected a HyperPath or a Stage, got {type(P).__name__}")
    stages = P.stages if isinstance(P, HyperPath) else (P,)
    return max(s.lipschitz_bound for s in stages)


def _canonical_stages(g: RayGraph, A: ClosedSubset, n: int) -> tuple[Stage, Stage, Stage]:
    """F0, F1 and F2 from A to the canonical element of its direction class."""
    if not in_cn(g, A, n):
        raise PreconditionError(f"set has more than {n} components")
    grows = tuple((eid, ep.tail) for eid, ep in A.pieces if ep.tail is not None and ep.tail > 0)
    f0 = F0(g, A, grows)
    a1 = f0.at(1)

    # a1's ints stay on its scale, less its stray rays; only those become Fractions
    delta, D = direction_set(g, A), a1.scale
    moving = []
    keep_intervals: dict[str, tuple[tuple[int, int], ...]] = {}
    keep_tails: dict[str, int] = {}
    for eid, ivs, s in a1.ends:
        if g.is_ray(eid) and g.ray_index[eid] not in delta:
            if s is not None:
                raise RayspaceError(f"F0 left a tail on {eid}, outside the direction set")
            moving.extend((eid, Fraction(a, D), Fraction(b, D)) for a, b in ivs)
            continue
        if ivs:
            keep_intervals[eid] = ivs
        if s is not None:
            keep_tails[eid] = s
    base1 = None
    if keep_intervals or keep_tails:
        base1 = ClosedSubset._from_scaled(g, keep_intervals, keep_tails, D)
    f1 = F1(g, base1, tuple(moving))
    a2 = f1.at(1)

    legs = covering_walk(g, _least_core_point(g, a2)) if g.edges else ()
    return f0, f1, F2(g, a2, legs)


def path_to_canonical(g: RayGraph, A: ClosedSubset, n: int) -> HyperPath:
    """The three-stage path from A to the canonical element of its direction class."""
    return HyperPath(g, _canonical_stages(g, A, n))


def vietoris_path(g: RayGraph, A: ClosedSubset, n: int) -> HyperPath:
    """Composite path A -> canonical element -> whole space (Vietoris-continuous)."""
    stages = _canonical_stages(g, A, n)
    return HyperPath(g, stages + (GAMMA(g, direction_set(g, A)),))


def gamma_path(g: RayGraph, delta: frozenset[int] | set[int]) -> HyperPath:
    """Just the growth stage from a canonical element out to the whole space."""
    return HyperPath(g, (GAMMA(g, delta),))


@record
class ClassifyResult:
    same_component: bool
    delta_a: frozenset[int]
    delta_b: frozenset[int]
    path: HyperPath | None = None
    witness_ray: int | None = None


def same_component_hausdorff(
    g: RayGraph, A: ClosedSubset, B: ClosedSubset, n: int
) -> ClassifyResult:
    """Decide whether A and B lie in one path-component of (C_n(X), d_H).

    True exactly when the direction sets agree; then a connecting path runs
    A -> canonical element -> B.  Otherwise the least differing ray index
    witnesses the obstruction.
    """
    if not in_cn(g, A, n) or not in_cn(g, B, n):
        raise PreconditionError(f"set has more than {n} components")
    da = direction_set(g, A)
    db = direction_set(g, B)
    if da != db:
        return ClassifyResult(False, da, db, witness_ray=min(da ^ db))
    if A == B:
        return ClassifyResult(True, da, db, path=HyperPath(g, (F0(g, A, ()),)))
    forth = _canonical_stages(g, A, n)
    back = tuple(s.reversed() for s in reversed(_canonical_stages(g, B, n)))
    path = HyperPath(g, forth + back)
    return ClassifyResult(True, da, db, path=path)


def component_count_formula(g: RayGraph, n: int) -> int:
    """Number of path-components of (C_n(X), d_H): 2**(ray count), independent of n."""
    check_graph(g)
    as_count(n, "n")
    return 2 ** g.ray_count
