"""Distance kernels backing the brute-force oracle, in exact Python ints.

A point is ``(e, c)``: an element index and a coordinate scaled to an int by
the oracle's common denominator; ``directed_maxmin`` takes each side's points
as a map from element index to coordinates, and sorts each list itself.  Per
element, ``sg.ends[e]`` is the vertex at 0 and the far-end vertex (None on a
ray) and ``sg.lengths[e]`` the scaled length (None on a ray); ``sg.row(w)``
is vertex w's scaled row of distances.  A point reaches another along their
shared element or out through an end of its own and in through an end of the
other's; both kernels take the second route from per-vertex costs, read from
the rows of the vertices a point leaves through, so no pair is compared
through the vertices: ``distance_matrix`` per point, having read every
point's ends once, ``directed_maxmin`` once, seeded at the end vertices of
the target's elements.  It then sweeps each element once in coordinate
order, taking the two end costs once per element and the first route from a
merge pointer that only moves forward.
The census compares each distance with its threshold in Python ints, so
numpy holds only booleans and the label array; ``component_labels`` reads
them into Python-int rows and searches on those alone, with no matmul.
"""

from __future__ import annotations

import numpy as np


def backend() -> str:
    """The array library behind the census's bool tables and labels."""
    return "numpy"


def _exits(sg, e: int, c: int) -> list[tuple[int, int]]:
    """(end vertex, scaled cost to it) for each end of element e from coordinate c."""
    v0, v1 = sg.ends[e]
    return [(v0, c)] if v1 is None else [(v0, c), (v1, sg.lengths[e] - c)]


def _vertex_costs(sg, e: int, c: int) -> list[int]:
    """The cheapest cost from the point (e, c) out through an end of e to every vertex."""
    return [min(col) for col in zip(*([x + d for d in sg.row(w)] for w, x in _exits(sg, e, c)))]


def directed_maxmin(pa, pb, sg) -> int:
    """max over the points pa of the scaled distance to the nearest point of pb.

    Each side maps an element index to its points' coordinates on it, in any
    order and with repeats; each list is sorted here, in linear time when it
    is already sorted, as the oracle's samples are.  pb leaves an element
    most cheaply through its end at 0 from its first point and through its
    far end from its last, so each end vertex gets one seed, the least such
    cost, and the reach of every vertex is the least seed plus the vertex
    distance, read from the seeded vertices' rows.  The points of pa are then
    swept one element at a time in coordinate order: with r0 the reach of the
    end at 0 and far the length plus the reach of the far end, a point c
    costs min(c + r0, far - c, its gap to the nearest point of pb on the
    element), and that nearest point is found by a merge pointer into pb's
    sorted coordinates that only moves forward."""
    on = {e: sorted(cs) for e, cs in pb.items()}
    seed: dict[int, int] = {}  # seed[w]: scaled cost from pb along an element to its end w
    for e, cs in on.items():
        v0, v1 = sg.ends[e]
        ends = [(v0, cs[0])] if v1 is None else [(v0, cs[0]), (v1, sg.lengths[e] - cs[-1])]
        for w, x in ends:
            seed[w] = min(x, seed.get(w, x))
    # reach[v]: scaled distance from pb to vertex v
    reach = [min(col) for col in zip(*([x + d for d in sg.row(w)] for w, x in seed.items()))]
    worst = 0
    for e, cs in pa.items():
        cs = sorted(cs)
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
    """The bool table d(p, q) <= thr over a point universe, compared in Python ints.  Each
    point's ends and its costs to them are read once (a ray's one end doubling as its far
    end), so a pair compares each route with what its row leaves of thr, building no list."""
    ends = []
    for e, c in points:
        (w0, x0), *far = _exits(sg, e, c)
        ends.append((e, c, w0, x0, *(far[0] if far else (w0, x0))))
    rows = []
    for e, c in points:
        room = [thr - d for d in _vertex_costs(sg, e, c)]  # room[w]: thr less the cost to w
        rows.append([x0 <= room[w0] or x1 <= room[w1] or f == e and abs(c - q) <= thr
                     for f, q, w0, x0, w1, x1 in ends])
    return np.array(rows, dtype=bool)


def component_labels(masks, links) -> np.ndarray:
    """Labels over sets (bool masks into a shared point universe) linked when each lies
    within the threshold of the other by the bool table ``links`` of point pairs within it;
    a set's label is the least index in its component.

    With N_j the points ``links`` reaches from S_j, S_i lies within the
    threshold of S_j iff S_i is a subset of N_j.  In Python-int bits, C[p]
    (a row of ``masks.T``) holds the sets that hold p and D[p] (the OR of C[q]
    over the q with ``links[q][p]``) those whose N_j holds p.  A breadth-first
    search visits each set once: it ANDs D[p] over S_j into the unseen sets
    while ORing S_j's ``links`` rows into N_j, then ANDs ~C[p] over the p
    outside N_j, each loop, and the walk, stopping once no candidate is left."""
    n, u = masks.shape
    labels = np.arange(n, dtype=np.int64)

    def ints(bits):  # each row of a bool table as one int, read off its 64-bit words
        padded = np.zeros((len(bits), -(-bits.shape[1] // 64) * 64 or 64), dtype=bool)
        padded[:, : bits.shape[1]] = bits
        cols = np.packbits(padded, axis=1, bitorder="little").view("<u8").T.tolist()
        return cols[0] if len(cols) == 1 else [sum(w << 64 * k for k, w in enumerate(ws))
                                               for ws in zip(*cols)]

    C, rows, held = ints(masks.T), ints(links), ints(masks)
    out = [~c for c in C]  # out[p]: the sets without the point p
    D = []  # D[p]: the OR of C[q] over the q with links[q][p], read off the rows of links.T
    for r in ints(links.T):
        D.append(0)
        while r:
            low = r & -r
            D[-1] |= C[low.bit_length() - 1]
            r ^= low
    everywhere, unseen = (1 << u) - 1, (1 << n) - 1
    while unseen:
        root = (unseen & -unseen).bit_length() - 1
        unseen ^= 1 << root
        component = [root]
        for j in component:
            if not unseen:
                break
            linked, near, inside = unseen, 0, held[j]
            while inside and linked:
                low = inside & -inside
                linked &= D[p := low.bit_length() - 1]
                near |= rows[p]
                inside ^= low
            far = everywhere ^ near
            while far and linked:
                low = far & -far
                linked &= out[low.bit_length() - 1]
                far ^= low
            unseen ^= linked
            while linked:
                low = linked & -linked
                component.append(low.bit_length() - 1)
                linked ^= low
        labels[component] = root
    return labels
