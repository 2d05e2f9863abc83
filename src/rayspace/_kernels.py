"""Distance kernels backing the brute-force oracle, in exact Python ints.

A point is ``(e, c)``: an element index and a coordinate scaled to an int by
the oracle's common denominator.  Per element, ``sg.ends[e]`` is the vertex
at 0 and the far-end vertex (None on a ray) and ``sg.lengths[e]`` the scaled
length (None on a ray); ``sg.dvert`` is the scaled vertex distance table.  A
point reaches another along their shared element or out through an end of
its own and in through an end of the other's; both kernels take the second
route from per-vertex costs, a distance transform over the vertices, so no
pair is compared through the vertices.  ``directed_maxmin`` sweeps each
element once in coordinate order: it takes the two end costs once per
element, and the first route from a merge pointer that only moves forward.
The census compares each distance with its threshold in Python ints, so
numpy holds only booleans and the union-find's index array.
"""

from __future__ import annotations

import numpy as np

# Words per block temporary in ``component_labels``: bounds its memory; larger were no faster.
_BLOCK_CELLS = 1 << 16


def backend() -> str:
    """The array library behind the census's bool tables and labels."""
    return "numpy"


def _exits(sg, e: int, c: int) -> list[tuple[int, int]]:
    """(end vertex, scaled cost to it) for each end of element e from coordinate c."""
    v0, v1 = sg.ends[e]
    return [(v0, c)] if v1 is None else [(v0, c), (v1, sg.lengths[e] - c)]


def _vertex_costs(sg, e: int, c: int) -> list[int]:
    """The cheapest cost from the point (e, c) out through an end of e to every vertex."""
    exits = _exits(sg, e, c)
    return [min(x + row[w] for w, x in exits) for row in sg.dvert]


def _by_element(points) -> dict[int, list[int]]:
    """Each element's coordinates among the points, sorted."""
    on: dict[int, list[int]] = {}
    for e, c in points:
        on.setdefault(e, []).append(c)
    for cs in on.values():
        cs.sort()
    return on


def directed_maxmin(pa, pb, sg) -> int:
    """max over the points pa of the scaled distance to the nearest point of pb.

    pb reaches each vertex most cheaply from its first or last point on some
    element, so only those points' vertex costs are taken.  The points of pa
    are then swept one element at a time in coordinate order: with r0 the
    reach of the end at 0 and far the length plus the reach of the far end,
    a point c costs min(c + r0, far - c, its gap to the nearest point of pb
    on the element), and that nearest point is found by a merge pointer
    into pb's sorted coordinates that only moves forward."""
    on = _by_element(pb)
    reach = None  # reach[v]: scaled distance from pb to vertex v
    for e, cs in on.items():
        for c in (cs[0], cs[-1]):
            costs = _vertex_costs(sg, e, c)
            reach = costs if reach is None else list(map(min, reach, costs))
    worst = 0
    for e, cs in _by_element(pa).items():
        v0, v1 = sg.ends[e]
        r0 = reach[v0]
        # a ray has no far end: this far never undercuts c + r0
        far = r0 + 2 * cs[-1] if v1 is None else sg.lengths[e] + reach[v1]
        bs = on.get(e, ())
        k, nb = 0, len(bs)  # bs[k]: pb's first coordinate >= c
        for c in cs:
            best = c + r0
            if far - c < best:
                best = far - c
            while k < nb and bs[k] < c:
                k += 1
            if k < nb and bs[k] - c < best:
                best = bs[k] - c
            if k and c - bs[k - 1] < best:
                best = c - bs[k - 1]
            if best > worst:
                worst = best
    return worst


def distance_matrix(points, sg, thr: int) -> np.ndarray:
    """The bool table d(p, q) <= thr over a point universe, compared in Python ints."""
    rows = []
    for e, c in points:
        costs = _vertex_costs(sg, e, c)
        rows.append([min([abs(c - q)] * (e == f) + [x + costs[w] for w, x in _exits(sg, f, q)])
                     <= thr for f, q in points])
    return np.array(rows, dtype=bool)


def _pack(bits: np.ndarray) -> np.ndarray:
    """Pack each boolean row into uint64 words (zero-padded to whole words)."""
    n, u = bits.shape
    padded = np.zeros((n, -(-u // 64) * 64), dtype=bool)
    padded[:, :u] = bits
    return np.packbits(padded, axis=1).view(np.uint64)


def _roots(parent: np.ndarray) -> np.ndarray:
    """Point every entry at its root, in place, by pointer jumping."""
    while True:
        grand = parent[parent]
        if np.array_equal(grand, parent):
            return parent
        parent[:] = grand


def _union(parent: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Merge the classes of each pair (a[k], b[k]); every root points at a
    smaller index, and a contested root takes the least of its bids."""
    while a.size:
        _roots(parent)
        ra, rb = parent[a], parent[b]
        apart = ra != rb
        a, b, ra, rb = a[apart], b[apart], ra[apart], rb[apart]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))


def component_labels(masks, links) -> np.ndarray:
    """Union-find labels over sets (bool masks into a shared point universe)
    linked whenever each lies within the threshold of the other, given the
    bool table ``links`` of point pairs within it.

    With N_j the points linked to a point of S_j, S_i lies within the
    threshold of S_j iff S_i is a subset of N_j.  Masks, link rows and N_j
    are packed into uint64 words, so each test is a few word operations.
    Rows go in blocks of about ``_BLOCK_CELLS`` words; each block's links
    are merged before the next block is built."""
    n, u = masks.shape
    parent = np.arange(n, dtype=np.int64)
    if n == 0:
        return parent
    M, L = _pack(masks), _pack(links)
    near = np.empty((n, u), dtype=bool)  # near[j, p]: p is linked to a point of S_j
    step = max(1, _BLOCK_CELLS // (u * M.shape[1]))
    for lo in range(0, n, step):
        near[lo : lo + step] = (M[lo : lo + step, None, :] & L[None]).any(axis=2)
    far = ~_pack(near)
    step = max(1, _BLOCK_CELLS // (n * M.shape[1]))
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        i_out = (M[lo:hi, None, :] & far[None, :hi, :]).any(axis=2)  # S_i leaves N_j
        j_out = (far[lo:hi, None, :] & M[None, :hi, :]).any(axis=2)  # S_j leaves N_i
        rows, cols = np.nonzero(~(i_out | j_out))
        below = cols < rows + lo
        _union(parent, rows[below] + lo, cols[below])
    return _roots(parent)
