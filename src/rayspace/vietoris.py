"""Open regions of a ray-graph and Vietoris-topology membership tests.

An open region is a finite union of open metric balls, or the whole space.
On an element of length L, d(x, c) is the least of |x - s| + d(s, c) over at
most three spots s: the first end, the far end (edges only) and the centre c
itself when it lies on the element.  So on [0, L] a ball is the union of the
open intervals (s - reach, s + reach) with reach = r - d(s, c) > 0.  They are
not cut to the element, so their ends may lie below 0 or past L.  Merged,
they are the region's derived form, which both membership tests read with
strict comparisons: upper membership is interval containment, and lower
membership is an overlap of the set's pieces with the derived intervals.  So
along a path, membership in a basic open changes only where a moving piece end
meets a derived end, at ``HyperPath.critical_times``: the witness checks there.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cached_property
from itertools import islice

from ._record import record
from .errors import ParseError, PreconditionError
from .graph import GraphPoint, RayGraph, as_fraction, as_text, check_graph, parse_fraction
from .paths import HyperPath
from .sets import ClosedSubset

# A derived interval: the open interval (lo, hi) of element coordinates.
DerivedInterval = tuple[Fraction, Fraction]


@record
class OpenRegion:
    """Finite union of open balls, or the distinguished whole space."""

    graph: RayGraph
    balls: tuple[tuple[GraphPoint, Fraction], ...]
    all_space: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.balls, tuple) or not all(
                isinstance(b, tuple) and len(b) == 2 and isinstance(b[0], GraphPoint)
                for b in self.balls):
            raise PreconditionError("an open region's balls are (point, radius) pairs")
        check_graph(self.graph, *(center for center, _ in self.balls))
        if any(as_fraction(radius) <= 0 for _, radius in self.balls):
            raise PreconditionError("ball radius must be positive")

    @cached_property
    def derived(self) -> dict[str, tuple[DerivedInterval, ...]]:
        """Exact per-element open-interval form of a union of balls."""
        if self.all_space:
            raise PreconditionError("the whole space has no derived ball intervals")
        return _merged(_ball_intervals(self.graph, c, r) for c, r in self.balls)

    def contains_point(self, p: GraphPoint) -> bool:
        self.graph.validate_point(p)
        if self.all_space:
            return True
        return any(lo < p.coord < hi for lo, hi in self.derived.get(p.element, ()))


def ball(g: RayGraph, p: GraphPoint, r: Fraction) -> OpenRegion:
    """The open metric ball around p with radius r, as an OpenRegion."""
    check_graph(g)
    return OpenRegion(g, ((g.normalize_point(p), as_fraction(r)),))


def union_regions(regions: Sequence[OpenRegion]) -> OpenRegion:
    if not isinstance(regions, (list, tuple)):
        raise PreconditionError(f"regions come as a list or tuple, got {type(regions).__name__}")
    if not regions:
        raise PreconditionError("union of zero regions")
    g = getattr(regions[0], "graph", None)
    check_graph(g, *regions)
    if not all(isinstance(u, OpenRegion) for u in regions):
        raise PreconditionError("regions come as a list or tuple of OpenRegions")
    if len(regions) == 1:
        return regions[0]
    if any(u.all_space for u in regions):
        return OpenRegion(g, (), all_space=True)
    union = OpenRegion(g, tuple(b for u in regions for b in u.balls))
    # fill the union's cached derived form from its regions' own, so a witness
    # that tests each region and their union works out every ball only once
    vars(union)["derived"] = _merged(u.derived for u in regions)
    return union


def _ball_intervals(
    g: RayGraph, center: GraphPoint, radius: Fraction
) -> dict[str, list[DerivedInterval]]:
    """Each spot s with reach radius - d(s, center) > 0 covers (s - reach, s + reach); the
    reaches come in ints from the rows the centre leaves through, and spots are built only
    on the centre's element and the elements at a vertex it reaches, in element order."""
    D = math.lcm(g.scale, radius.denominator, center.coord.denominator)
    k, R = D // g.scale, radius.numerator * (D // radius.denominator)
    exits = [(c.numerator * (D // c.denominator), g.vertex_row(w)) for w, c in g.exit_costs(center)]
    left = zip(g.vertices, zip(*([R - c - d * k for d in row] for c, row in exits)))
    reach = {v: Fraction(x, D) for v, xs in left if (x := max(xs)) > 0}
    near = {eid for v in reach for eid, _ in g.vertex_representations(v)} | {center.element}
    out: dict[str, list[DerivedInterval]] = {}
    for eid in sorted(near, key=g.element_order.__getitem__):
        first, far = g.element_end_vertices(eid)
        spots = [(Fraction(0), reach.get(first, 0))]
        if far is not None:
            spots.append((g.element_length(eid), reach.get(far, 0)))
        if center.element == eid:
            spots.append((center.coord, radius))
        out[eid] = [(s - r, s + r) for s, r in spots if r > 0]
    return out


def _merged(
    forms: Iterable[dict[str, Sequence[DerivedInterval]]],
) -> dict[str, tuple[DerivedInterval, ...]]:
    """One derived form for the union of several per-element interval forms.

    Open intervals merge when one starts strictly before the other ends; two
    that only touch leave their common end uncovered and stay apart.
    """
    raw: dict[str, list[DerivedInterval]] = {}
    for form in forms:
        for eid, ivs in form.items():
            raw.setdefault(eid, []).extend(ivs)
    out: dict[str, tuple[DerivedInterval, ...]] = {}
    for eid, ivs in raw.items():
        merged: list[DerivedInterval] = []
        for lo, hi in sorted(ivs):
            if merged and lo < merged[-1][1]:
                merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
            else:
                merged.append((lo, hi))
        out[eid] = tuple(merged)
    return out


def member_upper(A: ClosedSubset, U: OpenRegion) -> bool:
    """A lies entirely inside the open region (the upper Vietoris condition)."""
    check_graph(getattr(U, "graph", None), A)
    if U.all_space:
        return True
    derived = U.derived
    for eid, ep in A.pieces:
        if ep.tail is not None:
            return False  # finite ball unions are bounded
        ivs = derived.get(eid, ())
        for a, b in ep.intervals:
            if not any(lo < a and b < hi for lo, hi in ivs):
                return False
    return True


def member_lower(A: ClosedSubset, V: OpenRegion) -> bool:
    """A meets the open region (the lower Vietoris condition).

    Exact overlap of A's pieces with V's derived intervals, element by
    element.  A vertex point needs no alias lookup: when the vertex lies in
    V, every incident element's derived form holds that vertex end.
    """
    check_graph(getattr(V, "graph", None), A)
    if V.all_space:
        return True
    derived = V.derived
    for eid, ep in A.pieces:
        ivs = derived.get(eid)
        if ivs is None:
            continue
        if ep.tail is not None and ep.tail < ivs[-1][1]:
            return True
        if any(a < hi and lo < b for a, b in ep.intervals for lo, hi in ivs):
            return True
    return False


def member_basic(A: ClosedSubset, Us: Sequence[OpenRegion]) -> bool:
    """Membership in the basic Vietoris open <U1,...,Un>."""
    if not Us:
        raise PreconditionError("a basic open needs at least one region")
    return member_upper(A, union_regions(Us)) and all(member_lower(A, u) for u in Us)


# ---- continuity witnesses ---------------------------------------------------


@record
class WitnessResult:
    ok: bool
    delta: Fraction | None = None
    failed_at: Fraction | None = None

    def __str__(self) -> str:
        if self.ok:
            return f"delta={self.delta}"
        return f"failure (no delta down to the resolution; nearest bad t={self.failed_at})"


def continuity_witness(
    P: HyperPath,
    t0: Fraction,
    Us: Sequence[OpenRegion],
    resolution: Fraction,
) -> WitnessResult:
    """Exact Vietoris-continuity certificate around t0.

    P(t) can enter or leave <U1,...,Un> only at the path's critical times
    against the regions' derived ends, so membership, read once at each of
    them and once inside each gap, outward from t0, gives the exact preimage.
    The answer is the largest delta max(t0, 1 - t0) / 2**k, not below the
    resolution, whose closed window [t0 - delta, t0 + delta] in [0, 1] lies in
    it; else ``failed_at`` is the failure nearest t0 in the smallest window.
    The resolution may not exceed the first delta.
    """
    if not isinstance(P, HyperPath):
        raise PreconditionError(f"expected a HyperPath, got {type(P).__name__}")
    t0, resolution = as_fraction(t0), as_fraction(resolution)
    if resolution <= 0:
        raise PreconditionError("resolution must be positive")
    if not 0 <= t0 <= 1:
        raise PreconditionError("t0 outside [0,1]")
    delta = max(t0, 1 - t0)
    if resolution > delta:
        raise PreconditionError(f"resolution {resolution} exceeds the largest delta {delta}")
    if not member_basic(P.at(t0), Us):
        raise PreconditionError("path value at t0 is not in the basic open")
    union = union_regions(Us)  # its derived ends are among its regions' own
    ends: dict[str, set[Fraction]] = {}
    for u in Us:
        for eid, ivs in ({} if u.all_space else u.derived).items():
            ends.setdefault(eid, set()).update(c for iv in ivs for c in iv)
    times = sorted({t0, *P.critical_times(ends)})

    def bad(t: Fraction) -> bool:
        A = P.at(t)
        return not (member_upper(A, union) and all(member_lower(A, u) for u in Us))

    # the first bad cell on each side of t0: a gap (near, far), read at its
    # midpoint and reached by windows past near, or a critical time (far, far)
    i, stops = times.index(t0), []
    for side in (times[i::-1], times[i:]):
        cells = (c for near, far in zip(side, side[1:]) for c in ((near, far), (far, far)))
        stops += islice((c for c in cells if bad(sum(c) / 2)), 1)

    def hits(delta: Fraction) -> list:  # the bad cells the window of delta reaches, nearest first
        return sorted((abs(near - t0), near, far) for near, far in stops
                      if abs(near - t0) < delta or near == far and abs(near - t0) == delta)

    while hits(delta) and delta / 2 >= resolution:
        delta /= 2
    if not hits(delta):
        return WitnessResult(True, delta=delta)
    _, near, far = hits(delta)[0]  # report the part of a gap inside the window by its midpoint
    return WitnessResult(False, failed_at=(near + t0 + max(-delta, min(delta, far - t0))) / 2)


# ---- parsing ----------------------------------------------------------------


def parse_region(text: str, g: RayGraph) -> OpenRegion:
    """Parse an open-region literal: ``all`` or ``ball ELEM:coord radius`` atoms."""
    check_graph(g)
    toks = as_text(text, "a region literal").split()
    if not toks:
        raise ParseError("empty open-region literal")
    if toks == ["all"]:
        return OpenRegion(g, (), all_space=True)
    balls: list[tuple[GraphPoint, Fraction]] = []
    i = 0
    while i < len(toks):
        if toks[i] != "ball" or i + 2 >= len(toks):
            raise ParseError(
                "region literal is 'all' or repeated 'ball ELEM:coord radius'",
                f"token {i + 1}",
            )
        spot, rad = toks[i + 1], toks[i + 2]
        if ":" not in spot:
            raise ParseError(f"ball center must be ELEM:coord, got {spot!r}", f"token {i + 2}")
        eid, coord = spot.split(":", 1)
        p = GraphPoint(eid, parse_fraction(coord, f"token {i + 2}"))
        r = parse_fraction(rad, f"token {i + 3}")
        if r <= 0:
            raise ParseError("ball radius must be positive", f"token {i + 3}")
        try:
            balls.append((g.normalize_point(p), r))
        except PreconditionError as exc:
            raise ParseError(str(exc), f"token {i + 2}") from None
        i += 3
    return OpenRegion(g, tuple(balls))
