"""Brute-force ground truth at desk scale.

Enumerates every canonical subset whose interval endpoints sit on an h-grid
(truncated at radius T), links pairs at grid Hausdorff distance <= delta, and
counts hyperspace components; also grid-approximates Hausdorff distances
independently of the exact metric module.  Enumeration works on grid indices:
a layout on one element is its pieces' grid-index runs and a key (a bit per
grid point, each vertex one point; a bit per covered grid segment; a tail bit
per ray), and a set is the OR of its layouts' keys.  Layouts are built once
per element kind, then translated per element, and combined one element at a
time, in element-id order, each distinct key so far extended once and
carrying its classes of reached vertices, as bitmasks joined along whole
edges; a key is dropped once its components are bound to pass n.  The join
and the bound read only a layout's signature (its interior pieces and vertex
groups), so they run once per key and signature.  Each key also carries its
``ClosedSubset.sort_key`` entries in index space, reading each coordinate
k*h as k, so no set is built to order the accepted keys; only a key with a
vertex set aside as a single point is patched.
``enumerate_sets`` then builds one set per key; the census reads a key's
point bits as its mask and its tail bits as its direction class, and
builds a set only for each component's representative.  Only
``ClosedSubset`` comes from :mod:`rayspace.sets`, the code this checks.
Distances run through the kernels in :mod:`rayspace._kernels` in Python
ints, on coordinates scaled by one common denominator, so grid values are
exact at any scale; numpy holds only the census's booleans.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import reduce
from operator import itemgetter, or_
from typing import NamedTuple

import numpy as np

from ._kernels import backend, component_labels, directed_maxmin, distance_matrix
from ._record import record, setfield
from .errors import CapExceededError, PreconditionError
from .graph import RayGraph, as_count, as_fraction, check_graph
from .metric import INF, ExtendedDistance
from .sets import ClosedSubset

MAX_GRID_SAMPLES = 4_000_000  # grid Hausdorff: cap on the two sample counts together


# ---- enumeration ------------------------------------------------------------


# A layout of k pieces [i1, j1], ..., [ik, jk] of grid indices with
# i1 <= j1 < i2 <= j2 < ... is the increasing index tuple
# (i1, j1+1, i2+1, j2+2, ..., ik+k-1, jk+k) drawn from range(m + k), and a
# tail from index s > jk appends s + k.  Grid singletons do not touch, so k
# runs up to m.
def _layout_shapes(m: int, max_pieces: int, ray: bool):
    """(k, tail) for every layout shape on a grid of m points."""
    for k in range(min(max_pieces, m) + 1):
        yield k, False
        if ray and k < max_pieces:  # a tail counts as a piece
            yield k, True


def _layout_count(m: int, max_pieces: int, ray: bool, cap: int) -> int:
    """Exact number of layouts, or a partial sum as soon as one passes ``cap``."""
    total = 0
    for k, tail in _layout_shapes(m, max_pieces, ray):
        total += math.comb(m + k, 2 * k + tail)
        if total > cap:
            break
    return total


def _element_configs(m: int, max_pieces: int, ray: bool, far: int | None):
    """Every canonical layout on an element whose grid has m points, as
    (runs, tail, interior): the pieces' (i, j) grid-index pairs, disjoint and
    non-touching; the tail's start index or None (rays only; a tail counts as
    a piece); and how many pieces reach neither index 0 nor ``far``, the far
    end's index when the grid reaches it (each is a component by itself)."""
    for k, tail in _layout_shapes(m, max_pieces, ray):
        for idx in itertools.combinations(range(m + k), 2 * k + tail):
            runs = tuple((idx[2 * q] - q, idx[2 * q + 1] - q - 1) for q in range(k))
            start = idx[-1] - k if tail else None
            yield runs, start, sum(i > 0 and j != far for i, j in runs) + bool(start)


class _Layout(NamedTuple):
    """One canonical layout on one element."""

    key: int
    eid: str
    pieces: tuple[tuple[Fraction, Fraction], ...]  # in coordinates, as from_pieces takes them
    start: Fraction | None  # tail start
    held: int  # bitmask of the vertices a longer run, or a tail from 0, reaches
    entries: tuple  # its sort entry, if it holds more than set-aside points:
    # ((eid, runs but the set-aside points, tail index or -1, no tail),)


def _kind_shapes(h: Fraction, max_pieces: int, m: int, ray: bool, far: int | None):
    """``_element_configs`` for one kind of element, as (shapes, shape indices by kind
    signature); a shape's point and segment bits put grid index k at bit k, and the ends
    it covers or holds are flags, 1 for the end at 0 and 2 for the far end."""
    coord = [k * h for k in range(m)]
    ends = 1 if far is None else 1 | 1 << far
    shapes, by_sig = [], {}
    for runs, tail, interior in _element_configs(m, max_pieces, ray, far):
        bare = tail is None
        spans = runs if bare else (*runs, (tail, m - 1))
        pts = sum(((2 << (j - i)) - 1) << i for i, j in spans)
        seg = sum(((1 << (j - i)) - 1) << i for i, j in spans) | (not bare) << (m - 1)
        kept = tuple((i, j) for i, j in runs if i < j or 0 < i != far)
        at = pts & 1 | 2 * any(j == far for _, j in runs)
        hold = (tail == 0 or any(i == 0 for i, _ in kept)) | 2 * any(j == far for _, j in kept)
        entry = (kept, -1 if bare else tail, bare) if kept or not bare else ()
        by_sig.setdefault((interior, at, (0, far) in runs), []).append(len(shapes))
        shapes.append((pts & ~ends, seg, at, hold, tuple((coord[i], coord[j]) for i, j in runs),
                       None if bare else coord[tail], entry))
    return shapes, by_sig


def _element_layouts(g: RayGraph, h: Fraction, elements, sizes: list[int], max_pieces: int,
                     bit: dict[str, int]):
    """For each element (id, length or None on a ray) with a grid of the given
    size, its layouts by signature: (pieces that reach neither element end,
    the vertex bitmasks it joins, a whole edge's ends as one, else each end
    reached), with each vertex v as the bitmask ``bit[v]``.  A key
    has a bit per universe point held, every vertex at the index of its least
    representation on the grid, and past the universe a bit per grid segment
    covered and a tail bit.  ``held`` and ``entries`` read the layout as
    ``_canonicalize`` does, which sets a single point at an element end aside
    as its vertex.

    A layout depends only on its element's kind (grid size, ray or edge,
    whether the grid reaches the far end), so each kind's shapes are built
    once and translated per element: point bits shifted to its first index,
    segment bits to its offset, ends to its vertices' bits.  Signatures keep
    ``_element_configs`` order, which decides the fold's representatives."""
    firsts = list(itertools.accumulate(sizes, initial=0))
    pos = {}
    for (eid, _), m, first in zip(elements, sizes, firsts):
        pos[eid, (m - 1) * h], pos[eid, 0] = first + m - 1, first
    vertex = {v: next((pos[r] for r in g.vertex_representations(v) if r in pos), None)
              for v in g.vertices}
    kinds, per_element = {}, []
    for (eid, length), m, first in zip(elements, sizes, firsts):
        far = m - 1 if (m - 1) * h == length else None
        if (kind := (m, length is None, far)) not in kinds:
            kinds[kind] = _kind_shapes(h, max_pieces, *kind)
        shapes, by_sig = kinds[kind]
        end0, end1 = g.element_end_vertices(eid)
        b0, b1 = bit[end0], bit.get(end1, 0)
        u0, u1 = 1 << vertex[end0], 0 if far is None else 1 << vertex[end1]
        at_ends, held, extra = (0, u0, u1, u0 | u1), (0, b0, b1, b0 | b1), firsts[-1] + first
        lays = [_Layout(inner << first | seg << extra | at_ends[at], eid, pieces, start,
                        held[hold], ((eid, *entry),) if entry else ())
                for inner, seg, at, hold, pieces, start, entry in shapes]
        layouts = {}
        for (interior, at, whole), idx in by_sig.items():
            r0, r1 = b0 * (at & 1), b1 * (at >> 1)
            groups = (r0 | r1,) if whole else tuple(b for b in (r0, r1) if b)
            layouts.setdefault((interior, groups), []).extend(idx)
        per_element.append({sig: [lays[k] for k in sorted(idx)] for sig, idx in layouts.items()})
    return per_element


def _set_aside(entries: tuple, stored: list[tuple[str, int]]) -> tuple:
    """The sort entries with each set-aside vertex that no layout holds added
    as a single point at ``stored``, its (element id, index)."""
    per = {eid: rest for eid, *rest in entries}
    for eid, i in stored:
        runs, tail, bare = per.get(eid, ((), -1, True))
        per[eid] = (tuple(sorted((*runs, (i, i)))), tail, bare)
    return tuple((eid, *per[eid]) for eid in sorted(per))


def _enumerate_keys(
    g: RayGraph, h: Fraction, T: Fraction, n: int, max_pieces: int, cap: int
) -> tuple[list[int], list[tuple[int, tuple[_Layout, ...]]]]:
    """(grid size per element, every accepted (key, layouts)) in the order
    ``ClosedSubset.sort_key`` gives their sets, none of them built.

    The number of layout combinations is counted exactly, and checked against
    ``cap``, before any layout is built.  Layouts are combined one element at
    a time: each distinct key of the elements so far (the OR of their layouts'
    keys) keeps the first layouts that gave it, since equal keys hold the same
    points and so extend to the same sets.  Each also carries its classes of
    reached vertices, as bitmasks OR-ed together where a layout covers a
    whole edge.  A vertex is closed once every element at it is folded, and
    a class of closed vertices joins no other.  So the pieces that reach no
    element end, the closed classes and one more for any open class bound
    the component count from below, and a key whose bound passes n is
    dropped.  The bound is a function of the key, and the join and the bound
    read only a layout's signature (interior pieces, vertex groups), so
    they run once per key and signature, and every layout of a dead
    signature is dropped with it.  After the last element every vertex is
    closed, so the bound is the count and the keys left are those accepted.

    The order is read in index space.  The fold takes the elements in id
    order, whatever their declaration order, so each key carries its sort
    entries in order along with the vertices it reaches and holds; the keys,
    the universe and ``sizes`` stay in declaration order.  Only a key with a
    set-aside vertex that no layout holds is patched: that vertex sits at its
    least representation, index 0 or the far end's, and at index m, past the
    grid, where the grid stops short of that end.
    """
    check_graph(g)
    h, T = as_fraction(h), as_fraction(T)
    if h <= 0:
        raise PreconditionError("grid step h must be positive")
    if T < 0 or (T / h).denominator != 1:
        raise PreconditionError("truncation radius T must be a nonnegative multiple of h")
    n, max_pieces = as_count(n, "n"), as_count(max_pieces, "max_pieces")
    cap = as_count(cap, "cap")

    elements = [(e.id, e.length) for e in g.edges] + [(r.id, None) for r in g.rays]
    sizes = [(T if length is None else min(length, T)) // h + 1 for _, length in elements]
    estimate = 1
    for m, (_, length) in zip(sizes, elements):
        estimate *= _layout_count(m, max_pieces, length is None, cap)
        if estimate > cap:
            raise CapExceededError(
                f"enumeration would visit at least {estimate} combinations (cap {cap}); "
                "increase the cap or coarsen the parameters"
            )

    bit = {v: 1 << i for i, v in enumerate(g.vertices)}
    ends = [bit[u] | bit.get(v, 0) for u, v in (g.element_end_vertices(e) for e, _ in elements)]
    per_element = _element_layouts(g, h, elements, sizes, max_pieces, bit)
    fold = sorted(range(len(elements)), key=lambda e: elements[e][0])
    # key -> (interior pieces, vertex classes, vertices reached, vertices held,
    # sort entries, first layouts)
    first: dict[int, tuple] = {0: (0, (), 0, 0, (), ())}
    for s, e in enumerate(fold):
        unfolded = reduce(or_, [ends[f] for f in fold[s + 1 :]], 0)  # the vertices not closed yet
        grown: dict[int, tuple] = {}
        for key, (interior, classes, reached, held, entries, combo) in first.items():
            for (extra, groups), layouts in per_element[e].items():
                joined, reach = classes, reached
                for group in groups:  # OR in every class the group meets
                    apart = []
                    for c in joined:
                        if c & group:
                            group |= c
                        else:
                            apart.append(c)
                    joined = (*apart, group)
                    reach |= group
                # each piece touching no element end, and each class of closed
                # vertices, is a component; the open classes make at least one
                count, shut = interior + extra, len([c for c in joined if not c & unfolded])
                if count + shut + (shut < len(joined)) > n:
                    continue
                for lay in layouts:
                    grown_key = key | lay.key
                    if grown_key not in grown:
                        grown[grown_key] = (count, joined, reach, held | lay.held,
                                            entries + lay.entries, (*combo, lay))
        first = grown
    first.pop(0, None)  # no piece anywhere: CL(X) has no empty set

    grid = {eid: m for (eid, _), m in zip(elements, sizes)}
    stored_at = []
    for v in g.vertices:
        eid, c = g.vertex_representations(v)[0]
        m = grid[eid]
        stored_at.append((bit[v], (eid, 0 if c == 0 else m - 1 if (m - 1) * h == c else m)))
    found = []
    for key, (_, _, reached, held, entries, combo) in first.items():
        aside = reached & ~held
        if aside:
            entries = _set_aside(entries, [at for b, at in stored_at if b & aside])
        found.append((entries, key, combo))
    found.sort(key=itemgetter(0))
    return sizes, [(key, combo) for _, key, combo in found]


def _build(g: RayGraph, combo: tuple[_Layout, ...]) -> ClosedSubset:
    intervals = {lay.eid: lay.pieces for lay in combo if lay.pieces}
    tails = {lay.eid: lay.start for lay in combo if lay.start is not None}
    return ClosedSubset.from_pieces(g, intervals, tails)


def enumerate_sets(
    g: RayGraph,
    h: Fraction,
    T: Fraction,
    n: int,
    max_pieces: int,
    cap: int = 200_000,
) -> list[ClosedSubset]:
    """Every canonical grid subset with component count <= n, in
    ``ClosedSubset.sort_key`` order.

    The layout combinations are counted exactly, and checked against ``cap``,
    before any layout is built.  The sets are enumerated and ordered as keys;
    each accepted key then becomes one ``ClosedSubset``.
    """
    _, found = _enumerate_keys(g, h, T, n, max_pieces, cap)
    return [_build(g, combo) for _, combo in found]


# ---- integer scaling --------------------------------------------------------


@record
class _ScaledGraph:
    graph: RayGraph                     # row(w): its row for vertex index w, over scale
    scale: int                          # a multiple of graph.scale
    elem_index: dict[str, int]
    ends: list[tuple[int, int | None]]  # per element: vertex at 0, far-end vertex or None
    lengths: list[int | None]           # per element: scaled length, None on a ray

    def __init__(self, graph: RayGraph, scale: int, elem_index: dict[str, int],
                 ends: list[tuple[int, int | None]], lengths: list[int | None]):
        setfield(self, "graph", graph)
        setfield(self, "scale", scale)
        setfield(self, "elem_index", elem_index)
        setfield(self, "ends", ends)
        setfield(self, "lengths", lengths)

    def row(self, w: int) -> list[int]:
        k = self.scale // self.graph.scale
        return [d * k for d in self.graph.vertex_row(self.graph.vertices[w])]


def _scaled(x: Fraction, scale: int) -> int:
    return x.numerator * (scale // x.denominator)


def _common_scale(g: RayGraph, denominators: list[int]) -> int:
    """lcm of these and the graph's scale, which clears every vertex distance."""
    return math.lcm(*denominators, g.scale)


def _scaled_graph(g: RayGraph, scale: int) -> _ScaledGraph:
    vidx = {v: i for i, v in enumerate(g.vertices)}
    ends = [(vidx[e.u], vidx[e.v]) for e in g.edges] + [(vidx[r.attach], None) for r in g.rays]
    lengths = [_scaled(e.length, scale) for e in g.edges] + [None] * len(g.rays)
    return _ScaledGraph(g, scale, g.element_order, ends, lengths)


# ---- grid sampling ----------------------------------------------------------


def _directions(g: RayGraph, A: ClosedSubset) -> frozenset[int]:
    return frozenset(g.ray_index[eid] for eid, ep in A.pieces if ep.tail is not None)


def _grid_samples(g: RayGraph, A: ClosedSubset, B: ClosedSubset, h: Fraction, T: Fraction):
    """(scaled graph, samples of A, samples of B).  Each side's samples map
    an element index to coordinates times scale, strictly increasing: each
    piece gives its ends and every multiple of h between them, and a tail
    runs to the larger of T and the tail starts on its ray.  The sample count
    is bounded in ints, and checked against ``MAX_GRID_SAMPLES``, before any
    sample is built."""
    caps = {eid: max(T, A.tail_on(eid) or 0, B.tail_on(eid) or 0)
            for S in (A, B) for eid, ep in S.pieces if ep.tail is not None}
    spans = [[(eid, a, b) for eid, ep in S.pieces for a, b in ep.intervals]
             + [(eid, ep.tail, caps[eid]) for eid, ep in S.pieces if ep.tail is not None]
             for S in (A, B)]
    ends = [c.denominator for sp in spans for _, *ab in sp for c in ab]
    scale = _common_scale(g, [h.denominator, T.denominator, *ends])
    H = _scaled(h, scale)
    spans = [[(eid, _scaled(a, scale), _scaled(b, scale)) for eid, a, b in sp] for sp in spans]
    # the sum of (b - a)/h + 2 over the spans, times H
    if sum(hi - lo + 2 * H for sp in spans for _, lo, hi in sp) > MAX_GRID_SAMPLES * H:
        raise CapExceededError(f"grid Hausdorff would take over {MAX_GRID_SAMPLES} samples")
    sg = _scaled_graph(g, scale)
    samples = [{} for _ in spans]
    for on, sp in zip(samples, spans):
        for eid, lo, hi in sp:  # a set's spans on an element are disjoint and in order
            cs = on.setdefault(sg.elem_index[eid], [])
            if lo < hi:
                cs.append(lo)
            cs.extend(range(lo // H * H + H, hi, H))
            cs.append(hi)
    return sg, *samples


def oracle_hausdorff(
    g: RayGraph, A: ClosedSubset, B: ClosedSubset, h: Fraction, T: Fraction
) -> ExtendedDistance:
    """Grid max-min approximation of the Hausdorff distance.

    Exact infinity on direction-set mismatch; otherwise within h of the true
    value provided T reaches every tail start (the caps are widened to the
    actual tail starts, so the guarantee does not depend on T being large).
    """
    h, T = as_fraction(h), as_fraction(T)
    if h <= 0:
        raise PreconditionError("grid step h must be positive")
    if T < 0:
        raise PreconditionError("truncation radius T must be nonnegative")
    check_graph(g, A, B)
    if _directions(g, A) != _directions(g, B):
        return INF
    sg, pa, pb = _grid_samples(g, A, B, h, T)
    return Fraction(max(directed_maxmin(pa, pb, sg), directed_maxmin(pb, pa, sg)), sg.scale)


# ---- component census -------------------------------------------------------


@record
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
    """Component census of the enumerated hyperspace slice.

    Two sets join when their grid Hausdorff distance is <= delta; cross
    direction-class distances are infinite, so classes are processed
    independently.  The census works on the enumeration's keys: a key's
    point bits are its set's mask, its tail bits its direction class, and
    a ``ClosedSubset`` is built only for the first key of each component.
    Distances are compared with the scaled delta in Python ints, so no scale
    is refused; a delta below the margin is refused before enumerating."""
    h, T, delta = as_fraction(h), as_fraction(T), as_fraction(delta)
    if delta < h + h / 5:
        raise PreconditionError(
            f"delta={delta} is below the grid connectivity margin h+h/5={h + h / 5}; "
            "true neighbors may fail to connect"
        )
    sizes, found = _enumerate_keys(g, h, T, n, max_pieces, cap)

    sg = _scaled_graph(g, _common_scale(g, [h.denominator, T.denominator]))
    thr, H = int(delta * sg.scale), _scaled(h, sg.scale)  # d <= delta iff d_scaled <= thr
    links = distance_matrix([(e, k * H) for e, m in enumerate(sizes) for k in range(m)], sg, thr)

    # a set's mask row is its key's point bits
    size = sum(sizes)
    nbytes, low = -(-size // 8), (1 << size) - 1
    rows = b"".join((key & low).to_bytes(nbytes, "little") for key, _ in found)
    bits = np.frombuffer(rows, dtype=np.uint8).reshape(len(found), nbytes)
    masks = np.unpackbits(bits, axis=1, count=size, bitorder="little").view(bool)

    # a set's direction class is its key's tail bits, each element's last bit past the universe
    stops = list(itertools.accumulate(sizes))[len(g.edges) :]  # past each ray's last point
    ray_bits = [(1 << (size + stop - 1), r) for stop, r in zip(stops, g.rays)]
    tail_mask = reduce(or_, [b for b, _ in ray_bits], 0)
    by_tails: dict[int, list[int]] = {}
    for i, (key, _) in enumerate(found):
        by_tails.setdefault(key & tail_mask, []).append(i)
    groups = {frozenset(g.ray_index[r.id] for b, r in ray_bits if tails & b): idx
              for tails, idx in by_tails.items()}

    reps: list[ClosedSubset] = []
    dirs: list[frozenset[int]] = []
    group_counts: dict[frozenset[int], int] = {}
    for dset in sorted(groups, key=lambda s: (len(s), sorted(s))):
        idx = groups[dset]
        first_of: dict[int, int] = {}
        for i, lab in zip(idx, component_labels(masks[idx], links).tolist()):
            first_of.setdefault(lab, i)
        group_counts[dset] = len(first_of)
        for global_i in sorted(first_of.values()):
            reps.append(_build(g, found[global_i][1]))
            dirs.append(dset)
    return OracleComponents(
        count=sum(group_counts.values()),
        representatives=tuple(reps),
        directions=tuple(dirs),
        group_counts=group_counts,
        set_count=len(found),
        backend=backend(),
    )
