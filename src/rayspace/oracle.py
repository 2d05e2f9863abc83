"""Brute-force ground truth at desk scale.

Enumerates every canonical subset whose interval endpoints sit on an h-grid
(truncated at radius T), links pairs at grid Hausdorff distance <= delta, and
counts hyperspace components; also grid-approximates Hausdorff distances
independently of the exact metric module.  Distances run through the
integer-scaled kernels in :mod:`rayspace._kernels`, so grid values are still
exact rationals.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._kernels import BIG, backend, component_labels, directed_maxmin, distance_matrix
from .errors import CapExceededError, PreconditionError
from .graph import GraphPoint, RayGraph, point_distance
from .metric import INF, ExtendedDistance
from .sets import ClosedSubset, direction_set, in_cn

_SAFE_MAGNITUDE = int(BIG) // 8  # headroom: distances add three scaled terms


# ---- enumeration ------------------------------------------------------------


def _grid(h: Fraction, top: Fraction) -> list[Fraction]:
    return [k * h for k in range(int(top / h) + 1)]


# One element's layout: its pieces, its tail start (or None), and how many of
# them touch neither element end (each of those is a component by itself).
_Config = tuple[tuple[tuple[Fraction, Fraction], ...], Fraction | None, int]


# A layout of k pieces [g[i1], g[j1]], ..., [g[ik], g[jk]] with
# i1 <= j1 < i2 <= j2 < ... is the increasing index tuple
# (i1, j1+1, i2+1, j2+2, ..., ik+k-1, jk+k) drawn from range(n + k), and a
# tail at g[s], s > jk, appends s + k.  Grid singletons do not touch, so k
# runs up to n.
def _layout_shapes(n: int, max_pieces: int, ray: bool):
    """(k, tail) for every layout shape on a grid of n points."""
    for k in range(min(max_pieces, n) + 1):
        yield k, False
        if ray and k < max_pieces:  # a tail counts as a piece
            yield k, True


def _layout_count(n: int, max_pieces: int, ray: bool, cap: int) -> int:
    """Exact number of layouts, or a partial sum as soon as one passes ``cap``."""
    total = 0
    for k, tail in _layout_shapes(n, max_pieces, ray):
        total += math.comb(n + k, 2 * k + tail)
        if total > cap:
            break
    return total


def _element_configs(
    grid: list[Fraction], max_pieces: int, length: Fraction | None
) -> list[_Config]:
    """All canonical piece layouts on one element of the given length (None on
    a ray): disjoint, non-touching, endpoints on ``grid``; a tail, allowed on
    rays only, counts as a piece."""
    configs: list[_Config] = []
    for k, tail in _layout_shapes(len(grid), max_pieces, length is None):
        for idx in itertools.combinations(range(len(grid) + k), 2 * k + tail):
            pieces = tuple(
                (grid[idx[2 * m] - m], grid[idx[2 * m + 1] - m - 1]) for m in range(k)
            )
            interior = sum(a > 0 and (length is None or b < length) for a, b in pieces)
            start = grid[idx[-1] - k] if tail else None
            if tail:
                interior += start > 0
            configs.append((pieces, start, interior))
    return configs


def enumerate_sets(
    g: RayGraph,
    h: Fraction,
    T: Fraction,
    n: int,
    max_pieces: int,
    cap: int = 200_000,
) -> list[ClosedSubset]:
    """Every canonical grid subset with component count <= n, deterministic order.

    The number of layout combinations is counted exactly, and checked against
    ``cap``, before any layout is built.
    """
    h, T = Fraction(h), Fraction(T)
    if h <= 0:
        raise PreconditionError("grid step h must be positive")
    if T < 0 or (T / h).denominator != 1:
        raise PreconditionError("truncation radius T must be a nonnegative multiple of h")
    if n < 1 or max_pieces < 1:
        raise PreconditionError("n and max_pieces must be positive")

    tops = [(e.id, min(e.length, T), e.length) for e in g.edges]
    tops += [(r.id, T, None) for r in g.rays]
    estimate = 1
    for _, top, length in tops:
        estimate *= _layout_count(int(top / h) + 1, max_pieces, length is None, cap)
        if estimate > cap:
            raise CapExceededError(
                f"enumeration would visit at least {estimate} combinations (cap {cap}); "
                "increase the cap or coarsen the parameters"
            )
    per_element = [
        (eid, _element_configs(_grid(h, top), max_pieces, length)) for eid, top, length in tops
    ]

    seen: dict = {}  # pieces -> the set, or None once in_cn rejected it
    for combo in itertools.product(*(cfgs for _, cfgs in per_element)):
        if sum(interior for _, _, interior in combo) > n:
            continue  # at least that many components: in_cn would reject it
        intervals: dict[str, list[tuple[Fraction, Fraction]]] = {}
        tails: dict[str, Fraction] = {}
        for (eid, _), (ivs, tail, _) in zip(per_element, combo):
            if ivs:
                intervals[eid] = list(ivs)
            if tail is not None:
                tails[eid] = tail
        if not intervals and not tails:
            continue
        A = ClosedSubset.from_pieces(g, intervals, tails)
        if A.pieces not in seen:
            seen[A.pieces] = A if in_cn(g, A, n) else None
    return sorted((A for A in seen.values() if A is not None), key=ClosedSubset.sort_key)


# ---- integer scaling --------------------------------------------------------


@dataclass(frozen=True)
class _ScaledGraph:
    scale: int
    elem_index: dict[str, int]
    end_vertex: np.ndarray
    elem_len: np.ndarray
    dvert: np.ndarray


def _scaled_graph(g: RayGraph, denominators: list[int]) -> _ScaledGraph:
    dens = set(denominators)
    for e in g.edges:
        dens.add(e.length.denominator)
    for d in g.vertex_distances.values():
        dens.add(d.denominator)
    scale = math.lcm(*dens) if dens else 1
    vidx = {v: i for i, v in enumerate(g.vertices)}
    eids = [e.id for e in g.edges] + [r.id for r in g.rays]
    eidx = {eid: i for i, eid in enumerate(eids)}
    end_vertex = np.full((len(eids), 2), -1, dtype=np.int64)
    elem_len = np.full(len(eids), -1, dtype=np.int64)
    for e in g.edges:
        end_vertex[eidx[e.id], 0] = vidx[e.u]
        end_vertex[eidx[e.id], 1] = vidx[e.v]
        elem_len[eidx[e.id]] = int(e.length * scale)
    for r in g.rays:
        end_vertex[eidx[r.id], 0] = vidx[r.attach]
    nv = len(g.vertices)
    dvert = np.zeros((nv, nv), dtype=np.int64)
    for (a, b), d in g.vertex_distances.items():
        dvert[vidx[a], vidx[b]] = int(d * scale)
    return _ScaledGraph(scale, eidx, end_vertex, elem_len, dvert)


def _scaled_points(
    sg: _ScaledGraph, pts: list[tuple[str, Fraction]]
) -> tuple[np.ndarray, np.ndarray]:
    pe = np.array([sg.elem_index[eid] for eid, _ in pts], dtype=np.int64)
    pc = np.array([int(c * sg.scale) for _, c in pts], dtype=np.int64)
    return pe, pc


def _magnitude_ok(sg: _ScaledGraph, pcs: list[np.ndarray]) -> bool:
    worst = int(sg.dvert.max()) if sg.dvert.size else 0
    worst = max(worst, int(sg.elem_len.max()) if sg.elem_len.size else 0)
    for pc in pcs:
        if pc.size:
            worst = max(worst, int(pc.max()))
    return worst < _SAFE_MAGNITUDE


# ---- grid sampling ----------------------------------------------------------


def _grid_between(a: Fraction, b: Fraction, h: Fraction) -> list[Fraction]:
    pts = {a, b}
    k = math.ceil(a / h)
    while k * h <= b:
        pts.add(k * h)
        k += 1
    return sorted(pts)


def _sample_set(
    g: RayGraph, A: ClosedSubset, h: Fraction, caps: dict[str, Fraction]
) -> list[tuple[str, Fraction]]:
    pts: list[tuple[str, Fraction]] = []
    for eid, ep in A.pieces:
        for a, b in ep.intervals:
            pts.extend((eid, c) for c in _grid_between(a, b, h))
        if ep.tail is not None:
            pts.extend((eid, c) for c in _grid_between(ep.tail, caps[eid], h))
    return pts


def _directed_exact(g: RayGraph, pa, pb) -> Fraction:
    # slow Fraction path, used only when integer scaling would overflow
    worst = Fraction(0)
    for eid, c in pa:
        p = GraphPoint(eid, c)
        nearest = min(point_distance(g, p, GraphPoint(e2, c2)) for e2, c2 in pb)
        worst = max(worst, nearest)
    return worst


def oracle_hausdorff(
    g: RayGraph, A: ClosedSubset, B: ClosedSubset, h: Fraction, T: Fraction
) -> ExtendedDistance:
    """Grid max-min approximation of the Hausdorff distance.

    Exact infinity on direction-set mismatch; otherwise within h of the true
    value provided T reaches every tail start (the caps are widened to the
    actual tail starts, so the guarantee does not depend on T being large).
    """
    h, T = Fraction(h), Fraction(T)
    if h <= 0:
        raise PreconditionError("grid step h must be positive")
    if direction_set(g, A) != direction_set(g, B):
        return INF
    caps: dict[str, Fraction] = {}
    for S in (A, B):
        for eid, ep in S.pieces:
            if ep.tail is not None:
                caps[eid] = max(caps.get(eid, T), ep.tail)
    pa = _sample_set(g, A, h, caps)
    pb = _sample_set(g, B, h, caps)
    dens = [h.denominator, T.denominator]
    dens += [c.denominator for _, c in pa] + [c.denominator for _, c in pb]
    sg = _scaled_graph(g, dens)
    ae, ac = _scaled_points(sg, pa)
    be, bc = _scaled_points(sg, pb)
    if not _magnitude_ok(sg, [ac, bc]):
        d = max(_directed_exact(g, pa, pb), _directed_exact(g, pb, pa))
        return d
    args = (sg.end_vertex, sg.elem_len, sg.dvert)
    d1 = directed_maxmin(ae, ac, be, bc, *args)
    d2 = directed_maxmin(be, bc, ae, ac, *args)
    return Fraction(max(d1, d2), sg.scale)


# ---- component census -------------------------------------------------------


@dataclass(frozen=True)
class OracleComponents:
    count: int
    representatives: tuple[ClosedSubset, ...]  # one per component, deterministic
    directions: tuple[frozenset[int], ...]     # direction set of each component
    group_counts: dict[frozenset[int], int]    # components per direction class
    set_count: int
    backend: str


def oracle_components(
    g: RayGraph,
    h: Fraction,
    T: Fraction,
    delta: Fraction,
    n: int,
    max_pieces: int,
    cap: int = 200_000,
) -> OracleComponents:
    """Union-find census of the enumerated hyperspace slice.

    Two sets join when their grid Hausdorff distance is <= delta; cross
    direction-class distances are infinite, so classes are processed
    independently."""
    h, T, delta = Fraction(h), Fraction(T), Fraction(delta)
    if delta < h + h / 5:
        raise PreconditionError(
            f"delta={delta} is below the grid connectivity margin h+h/5={h + h / 5}; "
            "true neighbors may fail to connect"
        )
    sets = enumerate_sets(g, h, T, n, max_pieces, cap=cap)

    universe: list[tuple[str, Fraction]] = []
    for e in g.edges:
        universe.extend((e.id, c) for c in _grid(h, min(e.length, T)))
    for r in g.rays:
        universe.extend((r.id, c) for c in _grid(h, T))
    pos = {pt: i for i, pt in enumerate(universe)}
    # a lone vertex point is stored at its least representation, which may lie
    # past T or off the grid; every representation names the same point
    for v in g.vertices:
        reps = g.vertex_representations(v)
        held = next((pos[r] for r in reps if r in pos), None)
        if held is not None:
            for r in reps:
                pos.setdefault(r, held)

    sg = _scaled_graph(g, [h.denominator, T.denominator])
    pe, pc = _scaled_points(sg, universe)
    if not _magnitude_ok(sg, [pc]):
        raise PreconditionError("grid parameters overflow the integer kernels")
    dmat = distance_matrix(pe, pc, sg.end_vertex, sg.elem_len, sg.dvert)

    masks = np.zeros((len(sets), len(universe)), dtype=bool)
    caps = {r.id: T for r in g.rays}
    for i, A in enumerate(sets):
        for pt in _sample_set(g, A, h, caps):
            masks[i, pos[pt]] = True

    thr = int(delta * sg.scale)  # d <= delta  <=>  d_scaled <= floor(delta*scale)

    groups: dict[frozenset[int], list[int]] = {}
    for i, A in enumerate(sets):
        groups.setdefault(direction_set(g, A), []).append(i)

    reps: list[ClosedSubset] = []
    dirs: list[frozenset[int]] = []
    group_counts: dict[frozenset[int], int] = {}
    for dset in sorted(groups, key=lambda s: (len(s), sorted(s))):
        idx = groups[dset]
        labels = component_labels(masks[idx], dmat, thr)
        first_of: dict[int, int] = {}
        for k, lab in enumerate(labels):
            first_of.setdefault(int(lab), idx[k])
        group_counts[dset] = len(first_of)
        for _, global_i in sorted(first_of.items(), key=lambda kv: kv[1]):
            reps.append(sets[global_i])
            dirs.append(dset)
    return OracleComponents(
        count=sum(group_counts.values()),
        representatives=tuple(reps),
        directions=tuple(dirs),
        group_counts=group_counts,
        set_count=len(sets),
        backend=backend(),
    )
