"""Exact extended-valued Hausdorff distance between closed subsets.

On one element of length L, d(x, B) is the least of x + d(end0, B), of
L - x + d(end1, B) and of the distance from x to B's own pieces there: a
1-D L1 distance transform, piecewise-linear with slopes in {-1, 0, +1}.
Its breakpoints lie among O(c) candidates for c pieces: 0 and L, B's piece
ends and the midpoints of the gaps between them, (a - d0)/2 for each piece
start a, (L + d1 + b)/2 for each piece end b, and (L + d1 - d0)/2 where the
two end lines cross.  They are sorted once and each is evaluated by one
bisect into B's pieces, so an element costs O(c log c).  The directed sup
walks A's sorted spans and the envelope's breakpoints together once.  Every
finite answer is an exact rational; infinity (a plain ``float('inf')``)
appears exactly when one set is unbounded on a ray where the other is not.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import PreconditionError, RayspaceError
from .graph import GraphPoint, RayGraph
from .sets import ClosedSubset

INF = float("inf")
ExtendedDistance = Union[Fraction, float]


def is_infinite(d: ExtendedDistance) -> bool:
    return d == INF


def _vertex_to_set(g: RayGraph, v: str, B: ClosedSubset) -> Fraction:
    """Exact distance from a vertex to a nonempty closed subset."""
    best: Fraction | None = None
    for eid, ep in B.pieces:
        end0, end1 = g.element_end_vertices(eid)
        length = g.element_length(eid)
        d0 = g.vertex_distance(v, end0)
        d1 = g.vertex_distance(v, end1) if end1 is not None else None
        for a, b in ep.intervals:
            cand = d0 + a
            if d1 is not None:
                cand = min(cand, d1 + (length - b))
            if best is None or cand < best:
                best = cand
        if ep.tail is not None:
            cand = d0 + ep.tail
            if best is None or cand < best:
                best = cand
    if best is None:
        raise RayspaceError(f"vertex {v} has no distance to an empty set")
    return best


class _ElementDistance:
    """x -> d((eid, x), B) on one element: the least of the line x + d0 out
    through the first end, the line L - x + d1 out through the far end (edges
    only) and the 1-D distance from x to B's own pieces on the element."""

    def __init__(self, g: RayGraph, eid: str, B: ClosedSubset, vcache: dict[str, Fraction]):
        end0, end1 = g.element_end_vertices(eid)
        for v in (end0, end1):
            if v is not None and v not in vcache:
                vcache[v] = _vertex_to_set(g, v, B)
        self.length = g.element_length(eid)
        self.d0, self.d1 = vcache[end0], vcache.get(end1)  # d1 is None on rays
        spans, tail = list(B.intervals_on(eid)), B.tail_on(eid)
        if tail is not None:
            spans.append((tail, None))  # None: B's unbounded tail
        self.starts, self.ends = [a for a, _ in spans], [b for _, b in spans]

    def __call__(self, x: Fraction) -> Fraction:
        best = x + self.d0
        if self.d1 is not None:
            best = min(best, self.length - x + self.d1)
        i = bisect_right(self.starts, x)
        if i:
            b = self.ends[i - 1]
            if b is None or x <= b:
                return Fraction(0)
            best = min(best, x - b)
        if i < len(self.starts):
            best = min(best, self.starts[i] - x)
        return best

    def breakpoints(self) -> list[Fraction]:
        """Sorted abscissas containing every breakpoint of the envelope.

        Every candidate has slope -1, 0 or +1, so a breakpoint is a piece end,
        a gap midpoint or a crossing of an end line with a piece's nearest arm.
        """
        length, d0, d1 = self.length, self.d0, self.d1
        xs = {Fraction(0)}
        if length is not None:
            xs.update((length, (length + d1 - d0) / 2))
        prev = None
        for a, b in zip(self.starts, self.ends):
            xs.update((a, (a - d0) / 2))
            if prev is not None:
                xs.add((prev + a) / 2)
            if b is not None:
                xs.add(b)
                if length is not None:
                    xs.add((length + d1 + b) / 2)
            prev = b
        return sorted(x for x in xs if x >= 0 and (length is None or x <= length))


@dataclass(frozen=True)
class DistanceProfile:
    """Exact PL graph of coord -> d(point, B) on one element.

    ``xs``/``vals`` are the envelope breakpoints; beyond the last breakpoint
    (rays only) the profile continues linearly with ``final_slope``.
    """

    element: str
    xs: tuple[Fraction, ...]
    vals: tuple[Fraction, ...]
    final_slope: int  # 0 or 1; meaningful on rays

    def eval(self, x: Fraction) -> Fraction:
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


def distance_profile(
    g: RayGraph, eid: str, B: ClosedSubset, _vcache: dict[str, Fraction] | None = None
) -> DistanceProfile:
    """Build the exact lower envelope of coord -> d(., B) on one element."""
    f = _ElementDistance(g, eid, B, _vcache if _vcache is not None else {})
    xs = f.breakpoints()
    # far out on a ray the distance is 0 inside B's tail and grows with slope 1 otherwise
    final_slope = 1 if f.length is None and (not f.ends or f.ends[-1] is not None) else 0
    return DistanceProfile(eid, tuple(xs), tuple(f(x) for x in xs), final_slope)


def _sup_on_spans(prof: DistanceProfile, spans: list[tuple[Fraction, Fraction]]) -> Fraction:
    """Max of the profile over sorted disjoint closed spans, in one walk over its breakpoints.

    Between consecutive breakpoints the profile is linear with slope -1, 0 or
    +1, so a span end's value follows from its left neighbour and the sign of
    the step to its right one.
    """
    xs, vals = prof.xs, prof.vals
    n = len(xs)

    def value_at(k: int, x: Fraction) -> Fraction:  # xs[k - 1] <= x, and x <= xs[k] if k < n
        if k < n and xs[k] == x:
            return vals[k]
        v1, step = vals[k - 1], x - xs[k - 1]
        if k == n:
            return v1 + prof.final_slope * step
        return v1 + step if vals[k] > v1 else v1 - step if vals[k] < v1 else v1

    best = Fraction(0)
    k = 0
    for a, b in spans:
        while k < n and xs[k] < a:
            k += 1
        best = max(best, value_at(k, a))
        while k < n and xs[k] <= b:
            best = max(best, vals[k])
            k += 1
        best = max(best, value_at(k, b))
    return best


# ---- the metric ------------------------------------------------------------


def dist_point_to_set(g: RayGraph, p: GraphPoint, B: ClosedSubset) -> Fraction:
    """Exact distance from a point to a nonempty closed subset (always attained)."""
    g.validate_point(p)
    return _ElementDistance(g, p.element, B, {})(p.coord)


def directed_hausdorff(g: RayGraph, A: ClosedSubset, B: ClosedSubset) -> ExtendedDistance:
    """sup over a in A of d(a, B); infinite iff A has a tail on a ray where B has none."""
    if A.graph != g or B.graph != g:
        raise PreconditionError("subset does not belong to the given graph")
    for eid, ep in A.pieces:
        if ep.tail is not None and B.tail_on(eid) is None:
            return INF
    best = Fraction(0)
    vcache: dict[str, Fraction] = {}
    for eid, ep in A.pieces:
        spans = list(ep.intervals)
        if ep.tail is not None:  # B's tail covers A's beyond max(tail starts)
            spans.append((ep.tail, max(ep.tail, B.tail_on(eid))))
        best = max(best, _sup_on_spans(distance_profile(g, eid, B, vcache), spans))
    return best


def hausdorff(g: RayGraph, A: ClosedSubset, B: ClosedSubset) -> ExtendedDistance:
    """Exact extended Hausdorff distance: max of the two directed distances."""
    d1 = directed_hausdorff(g, A, B)
    if is_infinite(d1):
        return INF
    d2 = directed_hausdorff(g, B, A)
    return max(d1, d2)
