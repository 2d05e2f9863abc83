"""Exact extended-valued Hausdorff distance between closed subsets.

Distances to a target set restricted to one element are piecewise-linear
with slopes in {-1, 0, +1}; the directed Hausdorff sup is taken over the
breakpoints of that lower envelope, so every finite answer is an exact
rational.  Infinity (a plain ``float('inf')``) appears exactly when one set
is unbounded on a ray where the other is not.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Union

from .errors import PreconditionError, RayspaceError
from .graph import GraphPoint, RayGraph
from .sets import ClosedSubset

INF = float("inf")
ExtendedDistance = Union[Fraction, float]


def is_infinite(d: ExtendedDistance) -> bool:
    return d == INF


# ---- candidate functions -------------------------------------------------
# A candidate is (eval, breakpoints): a convex PL function of the element
# coordinate bounding the distance to the target set from above; their
# pointwise min is the exact restricted distance.

_Candidate = tuple[Callable[[Fraction], Fraction], tuple[Fraction, ...]]


def _line(slope: int, const: Fraction) -> _Candidate:
    return (lambda x, s=slope, c=const: s * x + c, ())


def _vee(a: Fraction, b: Fraction) -> _Candidate:
    return (lambda x, a=a, b=b: max(a - x, x - b, Fraction(0)), (a, b))


def _tail_vee(s: Fraction) -> _Candidate:
    return (lambda x, s=s: max(s - x, Fraction(0)), (s,))


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


def _element_candidates(
    g: RayGraph, eid: str, B: ClosedSubset, vcache: dict[str, Fraction]
) -> list[_Candidate]:
    def dv(v: str) -> Fraction:
        if v not in vcache:
            vcache[v] = _vertex_to_set(g, v, B)
        return vcache[v]

    end0, end1 = g.element_end_vertices(eid)
    length = g.element_length(eid)
    cands = [_line(1, dv(end0))]
    if end1 is not None:
        cands.append(_line(-1, length + dv(end1)))
    ep = B.by_element.get(eid)
    if ep is not None:
        for a, b in ep.intervals:
            cands.append(_vee(a, b))
        if ep.tail is not None:
            cands.append(_tail_vee(ep.tail))
    return cands


# ---- PL lower envelopes ----------------------------------------------------


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

    def sup_on(self, a: Fraction, b: Fraction) -> Fraction:
        """Max of the profile over the closed interval [a, b]."""
        best = max(self.eval(a), self.eval(b))
        for x in self.xs:
            if a < x < b:
                best = max(best, self.eval(x))
        return best

    def min_value(self) -> Fraction:
        return min(self.vals)


def _pairwise_crossings(
    cands: list[_Candidate], x1: Fraction, x2: Fraction | None
) -> list[Fraction]:
    """Crossing abscissas of candidate pairs inside (x1, x2); x2=None means unbounded."""
    probe = x2 if x2 is not None else x1 + 1
    out = []
    vals1 = [f(x1) for f, _ in cands]
    vals2 = [f(probe) for f, _ in cands]
    for i in range(len(cands)):
        for j in range(i + 1, len(cands)):
            m_i = (vals2[i] - vals1[i]) / (probe - x1)
            m_j = (vals2[j] - vals1[j]) / (probe - x1)
            if m_i == m_j:
                continue
            x = x1 + (vals1[j] - vals1[i]) / (m_i - m_j)
            if x1 < x and (x2 is None or x < x2):
                out.append(x)
    return out


def distance_profile(
    g: RayGraph, eid: str, B: ClosedSubset, _vcache: dict[str, Fraction] | None = None
) -> DistanceProfile:
    """Build the exact lower envelope of coord -> d(., B) on one element."""
    vcache = _vcache if _vcache is not None else {}
    cands = _element_candidates(g, eid, B, vcache)
    length = g.element_length(eid)
    xs = {Fraction(0)}
    if length is not None:
        xs.add(length)
    for _, bps in cands:
        xs.update(bp for bp in bps if bp >= 0 and (length is None or bp <= length))
    xs = sorted(xs)
    extra: list[Fraction] = []
    for k in range(len(xs) - 1):
        extra.extend(_pairwise_crossings(cands, xs[k], xs[k + 1]))
    if length is None:
        extra.extend(_pairwise_crossings(cands, xs[-1], None))
    all_xs = sorted(set(xs) | set(extra))
    vals = [min(f(x) for f, _ in cands) for x in all_xs]
    if length is None:
        probe = all_xs[-1] + 1
        slope = min(f(probe) for f, _ in cands) - vals[-1]
        final_slope = 1 if slope > 0 else 0
    else:
        final_slope = 0
    return DistanceProfile(eid, tuple(all_xs), tuple(vals), final_slope)


# ---- the metric ------------------------------------------------------------


def dist_point_to_set(g: RayGraph, p: GraphPoint, B: ClosedSubset) -> Fraction:
    """Exact distance from a point to a nonempty closed subset (always attained)."""
    g.validate_point(p)
    vcache: dict[str, Fraction] = {}
    cands = _element_candidates(g, p.element, B, vcache)
    return min(f(p.coord) for f, _ in cands)


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
        prof = distance_profile(g, eid, B, vcache)
        for a, b in ep.intervals:
            best = max(best, prof.sup_on(a, b))
        if ep.tail is not None:
            b_tail = B.tail_on(eid)
            hi = max(ep.tail, b_tail)
            best = max(best, prof.sup_on(ep.tail, hi))
    return best


def hausdorff(g: RayGraph, A: ClosedSubset, B: ClosedSubset) -> ExtendedDistance:
    """Exact extended Hausdorff distance: max of the two directed distances."""
    d1 = directed_hausdorff(g, A, B)
    if is_infinite(d1):
        return INF
    d2 = directed_hausdorff(g, B, A)
    return max(d1, d2)
