"""Exact extended-valued Hausdorff distance between closed subsets.

On one element of length L, d(x, B) is the least of x + d0 with
d0 = d(end0, B), of L - x + d1 with d1 = d(end1, B) (edges only) and of the
distance from x to B's own spans there: a lower envelope of slope-±1 lines, a
1-D L1 distance transform.  :class:`DistanceProfile` evaluates it directly, by
one bisect into B's spans.  Such an envelope peaks only where a rising line
meets a falling one, and between two neighbouring spans, or a span and an end,
one pair is always lowest: before the first span start s, x + d0 and s - x;
in a gap (b, a), x - b and a - x; after the last span end b on an edge,
x - b and L - x + d1; on an edge where B has no span, the two end lines.  So
an element with c spans has at most c + 1 interior peaks, built in order.
The directed sup walks A's sorted spans and those peaks together once,
evaluating at each span end and at each peak inside a span; that max is
exact, and an element costs O(c log c).  Every finite answer is an exact
rational; infinity (a plain ``float('inf')``) appears exactly when one set is
unbounded on a ray where the other is not.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import cached_property

from .errors import RayspaceError
from .graph import GraphPoint, RayGraph, check_graph
from .sets import ClosedSubset

INF = float("inf")
ExtendedDistance = Fraction | float


def is_infinite(d: ExtendedDistance) -> bool:
    return d == INF


def _vertex_to_set(g: RayGraph, v: str, B: ClosedSubset) -> Fraction:
    """Exact distance from a vertex to a nonempty closed subset: on each
    element only B's first start (via end0) and last end (via end1) can be nearest.  Read
    off B's ends and v's vertex row in ints over ``B.scale``, a multiple of ``g.scale``."""
    row, index, k, best = g.vertex_row(v), g.vertex_index, B.scale // g.scale, None
    for eid, ivs, tail in B.ends:
        end0, end1 = g.element_end_vertices(eid)
        cand = row[index[end0]] * k + (ivs[0][0] if ivs else tail)
        if end1 is not None:
            length = g.element_length(eid)
            far = length.numerator * (B.scale // length.denominator) - ivs[-1][1]
            cand = min(cand, row[index[end1]] * k + far)
        if best is None or cand < best:
            best = cand
    if best is None:
        raise RayspaceError(f"vertex {v} has no distance to an empty set")
    return Fraction(best, B.scale)


class DistanceProfile:
    """x -> d((eid, x), B) on one element: the least of the line x + d0 out
    through the first end, the line L - x + d1 out through the far end (edges
    only) and the 1-D distance from x to B's own spans on the element."""

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

    def eval(self, x: Fraction) -> Fraction:
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

    @cached_property
    def xs(self) -> list[Fraction]:
        """The envelope's possible interior maxima, strictly inside (0, L) and
        increasing: one before the first span, one per gap and, on an edge,
        one after the last span (or one in all if B has no span here)."""
        length, d0, d1, starts, ends = self.length, self.d0, self.d1, self.starts, self.ends
        if starts:
            xs = [(starts[0] - d0) / 2, *((b + a) / 2 for b, a in zip(ends, starts[1:]))]
            if length is not None:
                xs.append((length + d1 + ends[-1]) / 2)
        else:
            xs = [] if length is None else [(length + d1 - d0) / 2]
        return [x for x in xs if 0 < x and (length is None or x < length)]


def distance_profile(
    g: RayGraph, eid: str, B: ClosedSubset, _vcache: dict[str, Fraction] | None = None
) -> DistanceProfile:
    """The exact envelope of coord -> d(., B) on one element."""
    return DistanceProfile(g, eid, B, _vcache if _vcache is not None else {})


def _sup_on_spans(prof: DistanceProfile, spans: list[tuple[Fraction, Fraction]]) -> Fraction:
    """Max of the profile over sorted disjoint closed spans, in one walk over its peaks.

    On a span the profile's max is at a span end or at an interior peak,
    and every interior peak is among ``prof.xs``.
    """
    xs, f = prof.xs, prof.eval
    n, k = len(xs), 0
    best = Fraction(0)
    for a, b in spans:
        best = max(best, f(a), f(b))
        while k < n and xs[k] <= a:
            k += 1
        while k < n and xs[k] < b:
            best = max(best, f(xs[k]))
            k += 1
    return best


# ---- the metric ------------------------------------------------------------


def dist_point_to_set(g: RayGraph, p: GraphPoint, B: ClosedSubset) -> Fraction:
    """Exact distance from a point to a nonempty closed subset (always attained)."""
    check_graph(g, B, p)
    return DistanceProfile(g, p.element, B, {}).eval(p.coord)


def directed_hausdorff(g: RayGraph, A: ClosedSubset, B: ClosedSubset) -> ExtendedDistance:
    """sup over a in A of d(a, B); infinite iff A has a tail on a ray where B has none."""
    check_graph(g, A, B)
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
