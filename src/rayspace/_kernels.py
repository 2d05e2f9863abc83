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


def component_labels(masks, dmat, thr) -> np.ndarray:
    """Union-find labels over sets (bool masks into a shared point universe)
    linked whenever their symmetric max-min distance is <= thr."""
    n, u = masks.shape
    if n == 0:
        return np.empty(0, dtype=np.int64)
    thr = np.int64(thr)
    mv = np.empty((n, u), dtype=np.int64)
    for s in range(n):
        mv[s] = dmat[:, masks[s]].min(axis=1)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    neg = np.int64(-1)
    for j in range(n):
        into_j = np.where(masks, mv[j][None, :], neg).max(axis=1)  # directed i -> j
        from_j = np.where(masks[j][None, :], mv, neg).max(axis=1)  # directed j -> i
        ok = (into_j <= thr) & (from_j <= thr)
        for i in np.nonzero(ok[:j])[0]:
            ri, rj = find(int(i)), find(j)
            if ri != rj:
                parent[rj] = ri
    return np.array([find(i) for i in range(n)], dtype=np.int64)
