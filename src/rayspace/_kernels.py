"""Integer-scaled distance kernels backing the brute-force oracle.

Coordinates arrive pre-scaled to int64 (a common denominator clears all
fractions), so max-min Hausdorff sweeps and pairwise adjacency are exact
vectorized numpy integer arithmetic.

Point tables: ``pe``/``pc`` are parallel arrays of element index and scaled
coordinate.  Element tables: ``end_vertex[e, 0]`` is the vertex at coord 0,
``end_vertex[e, 1]`` the far-end vertex or -1 on a ray; ``elem_len[e]`` is the
scaled edge length or -1 on a ray; ``dvert`` is the scaled all-pairs vertex
distance matrix.
"""

from __future__ import annotations

import numpy as np

BIG = np.int64(2**62)

# Cells per block temporary in ``component_labels`` (half a megabyte of int64):
# this bounds its extra memory, and larger blocks were no faster on the census.
_BLOCK_CELLS = 1 << 16


def backend() -> str:
    return "numpy"


def _vertex_costs(pe, pc, end_vertex, elem_len, dvert):
    """cv[i, v] = cheapest way from point i to vertex v (through an endpoint)."""
    ev0 = end_vertex[pe, 0]
    cv = pc[:, None] + dvert[ev0]
    ev1 = end_vertex[pe, 1]
    m = ev1 >= 0
    if m.any():
        exit1 = elem_len[pe[m]] - pc[m]
        cv[m] = np.minimum(cv[m], exit1[:, None] + dvert[ev1[m]])
    return cv


def _cross_distances(ae, ac, be, bc, end_vertex, elem_len, dvert):
    """d[i, j] = scaled point distance from point i of A to point j of B."""
    cv = _vertex_costs(ae, ac, end_vertex, elem_len, dvert)
    ev0 = end_vertex[be, 0]
    d = cv[:, ev0] + bc[None, :]
    ev1 = end_vertex[be, 1]
    m = ev1 >= 0
    if m.any():
        exit1 = elem_len[be[m]] - bc[m]
        d[:, m] = np.minimum(d[:, m], cv[:, ev1[m]] + exit1[None, :])
    same = ae[:, None] == be[None, :]
    if same.any():
        direct = np.abs(ac[:, None] - bc[None, :])
        d = np.where(same, np.minimum(d, direct), d)
    return d


def directed_maxmin(ae, ac, be, bc, end_vertex, elem_len, dvert) -> int:
    """max over A of min over B of the scaled point distance."""
    if ae.shape[0] == 0 or be.shape[0] == 0:
        raise ValueError("empty point set")
    d = _cross_distances(ae, ac, be, bc, end_vertex, elem_len, dvert)
    return int(d.min(axis=1).max())


def distance_matrix(pe, pc, end_vertex, elem_len, dvert) -> np.ndarray:
    """All-pairs scaled distances among a point universe."""
    return _cross_distances(pe, pc, pe, pc, end_vertex, elem_len, dvert)


def _pack(bits: np.ndarray) -> np.ndarray:
    """Pack each boolean row into uint64 words (zero-padded to whole words)."""
    n, u = bits.shape
    packed = np.zeros((n, -(-u // 64) * 8), dtype=np.uint8)
    packed[:, : -(-u // 8)] = np.packbits(bits, axis=1)
    return packed.view(np.uint64)


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


def component_labels(masks, dmat, thr) -> np.ndarray:
    """Union-find labels over sets (bool masks into a shared point universe)
    linked whenever their symmetric max-min distance is <= thr.

    With N_j the points within thr of S_j, S_i lies within thr of S_j iff
    S_i is a subset of N_j; masks and neighbourhoods are packed into uint64
    words, so each pair costs a few word operations.  Rows go in blocks of
    about ``_BLOCK_CELLS`` temporaries, and each block's links are merged
    before the next block is built."""
    n, u = masks.shape
    parent = np.arange(n, dtype=np.int64)
    if n == 0:
        return parent
    near = np.empty((n, u), dtype=bool)  # near[j, p]: min over q in S_j of d(p, q) <= thr
    step = max(1, _BLOCK_CELLS // (u * u))
    for lo in range(0, n, step):
        block = masks[lo : lo + step, None, :]
        near[lo : lo + step] = np.where(block, dmat[None], BIG).min(axis=2) <= thr
    M, far = _pack(masks), ~_pack(near)
    step = max(1, _BLOCK_CELLS // (n * M.shape[1]))
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        i_out = (M[lo:hi, None, :] & far[None, :hi, :]).any(axis=2)  # S_i leaves N_j
        j_out = (far[lo:hi, None, :] & M[None, :hi, :]).any(axis=2)  # S_j leaves N_i
        rows, cols = np.nonzero(~(i_out | j_out))
        below = cols < rows + lo
        _union(parent, rows[below] + lo, cols[below])
    return _roots(parent)
