"""Finite connected ray-graphs with the exact arc-length metric.

A ray-graph has finitely many vertices, edges of positive rational length
(loops allowed), and rays: copies of [0, inf) attached to a vertex at
coordinate 0.  Each element has one shape, (element, vertex at 0, far-end
vertex, length), a ray having no far end and no length, and every element
accessor reads it.  Distances are exact ``Fraction``s, read between vertices off
integer rows built per source; the graph is immutable and safe to share between threads.
"""

from __future__ import annotations

import heapq
import math
import re
from collections.abc import Iterable
from fractions import Fraction
from functools import cached_property

from ._record import record, setfield
from .errors import InvalidGraphError, ParseError, PreconditionError, RayspaceError

_ID_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.-]*$")


@record
class Edge:
    id: str
    u: str
    v: str
    length: Fraction = Fraction(1)

    @property
    def is_loop(self) -> bool:
        return self.u == self.v


@record
class Ray:
    id: str
    attach: str


@record
class GraphPoint:
    """A location on an edge or ray: element id plus a rational coordinate.

    Edge coordinates run from 0 (first endpoint) to the edge length; ray
    coordinates run from 0 (attachment vertex) upward without bound.
    """

    element: str
    coord: Fraction

    def __init__(self, element: str, coord: Fraction):
        setfield(self, "element", element)
        setfield(self, "coord", coord)

    def key(self) -> tuple[str, Fraction]:
        return (self.element, self.coord)


@record
class RayGraph:
    """Immutable finite connected ray-graph.

    ``vertices``/``edges``/``rays`` keep declaration order; rays are indexed
    1..k in that order (``ray_index``).  Derived lookup tables are cached on
    first use and never mutated afterwards.
    """

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    rays: tuple[Ray, ...]

    def __post_init__(self):
        if not self.vertices:
            raise InvalidGraphError("a ray-graph needs at least one vertex")
        ids = [e.id for e in self.edges] + [r.id for r in self.rays]
        for i in (*self.vertices, *ids):
            if not isinstance(i, str) or not _ID_RE.match(i):
                raise InvalidGraphError(f"bad identifier {i!r}")
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise InvalidGraphError("duplicate vertex id")
        if len(set(ids)) != len(ids):
            raise InvalidGraphError("duplicate element id across edges/rays")
        if vset & set(ids):
            raise InvalidGraphError("an element id collides with a vertex id")
        for e in self.edges:
            if e.u not in vset or e.v not in vset:
                raise InvalidGraphError(f"edge {e.id} references unknown vertex")
            if as_fraction(e.length) <= 0:
                raise InvalidGraphError(f"edge {e.id} has nonpositive length")
        for r in self.rays:
            if r.attach not in vset:
                raise InvalidGraphError(f"ray {r.id} attached to unknown vertex")
        if count_classes(self.vertices, ((e.u, e.v) for e in self.edges)) > 1:
            raise InvalidGraphError("graph is not connected")
        if not ids:
            raise InvalidGraphError("a ray-graph needs an edge or a ray: sets live on elements")

    # ---- lookups -------------------------------------------------------

    @cached_property
    def _elements(self) -> dict[str, tuple[Edge | Ray, str, str | None, Fraction | None]]:
        """Id -> (element, vertex at 0, far-end vertex, length); a ray's last two are None."""
        table = {e.id: (e, e.u, e.v, e.length) for e in self.edges}
        table.update({r.id: (r, r.attach, None, None) for r in self.rays})
        return table

    def _shape(self, eid: str) -> tuple[Edge | Ray, str, str | None, Fraction | None]:
        try:
            return self._elements[eid]
        except KeyError:
            raise PreconditionError(f"unknown element id {eid!r}") from None

    @cached_property
    def element_order(self) -> dict[str, int]:
        """Element id -> its place in declaration order, edges first, then rays."""
        return {eid: i for i, eid in enumerate(self._elements)}

    def element(self, eid: str) -> Edge | Ray:
        return self._shape(eid)[0]

    def is_ray(self, eid: str) -> bool:
        return self._shape(eid)[3] is None

    def element_length(self, eid: str) -> Fraction | None:
        """Edge length, or None for a ray (unbounded)."""
        return self._shape(eid)[3]

    @cached_property
    def ray_index(self) -> dict[str, int]:
        """Ray id -> 1-based index, in declaration order."""
        return {r.id: i + 1 for i, r in enumerate(self.rays)}

    @cached_property
    def ray_by_index(self) -> dict[int, Ray]:
        return {i + 1: r for i, r in enumerate(self.rays)}

    @property
    def ray_count(self) -> int:
        return len(self.rays)

    @cached_property
    def _vertex_reps(self) -> dict[str, tuple[tuple[str, Fraction], ...]]:
        """All (element, coord) representations of each vertex, sorted."""
        reps: dict[str, list[tuple[str, Fraction]]] = {v: [] for v in self.vertices}
        for eid, (_, first, far, length) in self._elements.items():
            reps[first].append((eid, Fraction(0)))
            if far is not None:
                reps[far].append((eid, length))
        return {v: tuple(sorted(lst)) for v, lst in reps.items()}

    def vertex_representations(self, v: str) -> tuple[tuple[str, Fraction], ...]:
        if v not in self._vertex_reps:
            raise PreconditionError(f"unknown vertex {v!r}")
        return self._vertex_reps[v]

    def vertex_at(self, eid: str, coord: Fraction) -> str | None:
        """The vertex sitting at (eid, coord), or None for an interior point."""
        _, first, far, length = self._shape(eid)
        if coord == 0:
            return first
        return far if coord == length else None

    def element_end_vertices(self, eid: str) -> tuple[str, str | None]:
        """(vertex at coord 0, vertex at far end or None for a ray)."""
        return self._shape(eid)[1:3]

    # ---- metric --------------------------------------------------------

    @cached_property
    def scale(self) -> int:
        """The lcm of the edge-length denominators: every vertex distance is an int over it."""
        return math.lcm(*(e.length.denominator for e in self.edges))

    @cached_property
    def _scaled_shapes(self) -> dict[str, tuple[str, str | None, int | None]]:
        """Id -> (vertex at 0, far-end vertex, length as an int over ``scale``); a ray's last
        two are None."""
        s = self.scale
        return {eid: (first, far, length and length.numerator * (s // length.denominator))
                for eid, (_, first, far, length) in self._elements.items()}

    @cached_property
    def _scaled_least_reps(self) -> dict[str, tuple[str, int]]:
        """Vertex -> its least (element, coord) representation, the coord an int over ``scale``."""
        shapes = self._scaled_shapes
        return {v: (eid, 0 if c == 0 else shapes[eid][2])
                for v, ((eid, c), *_) in self._vertex_reps.items()}

    @cached_property
    def vertex_index(self) -> dict[str, int]:
        """Vertex -> its place in ``vertices``, and so in every ``vertex_row``."""
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def _dijkstra(self) -> tuple[dict[str, int], list[list[tuple[int, int]]], dict[str, list]]:
        """(vertex -> index, each vertex's (scaled length, neighbour) pairs, rows built so far)."""
        index, shapes = self.vertex_index, self._scaled_shapes
        adj: list[list[tuple[int, int]]] = [[] for _ in self.vertices]
        for e in self.edges:
            if not e.is_loop:  # a loop never shortens a path
                w = shapes[e.id][2]
                adj[index[e.u]].append((w, index[e.v]))
                adj[index[e.v]].append((w, index[e.u]))
        return index, adj, {}

    def vertex_row(self, v: str) -> list[int]:
        """Distances from v to each vertex, in ``vertices`` order, as ints over ``scale``: one
        Dijkstra, reaching every vertex of the connected graph, cached.  Not to be mutated."""
        index, adj, rows = self._dijkstra
        if v not in rows:
            if v not in index:
                raise PreconditionError(f"unknown vertex {v!r}")
            row, heap = [None] * len(adj), [(0, index[v])]
            while heap:
                d, i = heapq.heappop(heap)
                if row[i] is None:
                    row[i] = d
                    for w, j in adj[i]:
                        if row[j] is None:
                            heapq.heappush(heap, (d + w, j))
            rows[v] = row
        return rows[v]

    def vertex_distance(self, a: str, b: str) -> Fraction:
        index = self.vertex_index
        if b not in index:
            raise PreconditionError(f"unknown vertex {b!r}")
        return Fraction(self.vertex_row(a)[index[b]], self.scale)

    @cached_property
    def vertex_distances(self) -> dict[tuple[str, str], Fraction]:
        """All-pairs vertex distances as exact Fractions, built from every row."""
        return {(a, b): Fraction(d, self.scale)
                for a in self.vertices for b, d in zip(self.vertices, self.vertex_row(a))}

    # ---- points --------------------------------------------------------

    def validate_point(self, p: GraphPoint) -> None:
        if not isinstance(p, GraphPoint):
            raise PreconditionError(f"expected a GraphPoint, got {type(p).__name__}")
        length = self._shape(p.element)[3]
        if as_fraction(p.coord) < 0:
            raise PreconditionError(f"negative coordinate on {p.element}")
        if length is not None and p.coord > length:
            raise PreconditionError(
                f"coordinate {p.coord} exceeds length {length} of edge {p.element}"
            )

    def normalize_point(self, p: GraphPoint) -> GraphPoint:
        """Canonical representation: lexicographically least (element, coord).

        Only vertex points admit more than one representation.
        """
        self.validate_point(p)
        v = self.vertex_at(p.element, p.coord)
        if v is None:
            return p
        return GraphPoint(*self.vertex_representations(v)[0])

    def exit_costs(self, p: GraphPoint) -> list[tuple[str, Fraction]]:
        """(vertex, cost) pairs for leaving p's element through its endpoints."""
        _, first, far, length = self._shape(p.element)
        if far is None:
            return [(first, p.coord)]
        return [(first, p.coord), (far, length - p.coord)]


def count_classes(nodes: Iterable[str], links: Iterable[tuple[str, str]]) -> int:
    """Number of classes of ``nodes`` once each linked pair is joined (union-find).

    Every linked name must be one of ``nodes``.
    """
    parent = {x: x for x in nodes}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    classes = len(parent)
    for x, y in links:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry
            classes -= 1
    return classes


def point_distance(g: RayGraph, p: GraphPoint, q: GraphPoint) -> Fraction:
    """Exact length of the shortest path in the graph between two points."""
    check_graph(g, p, q)
    best: Fraction | None = None
    if p.element == q.element:
        best = abs(p.coord - q.coord)
    for w_p, c_p in g.exit_costs(p):
        for w_q, c_q in g.exit_costs(q):
            cand = c_p + g.vertex_distance(w_p, w_q) + c_q
            if best is None or cand < best:
                best = cand
    if best is None:
        raise RayspaceError(f"no route between {p} and {q}")
    return best


# ---- input gates: every public entry decides what it accepts here -------


def as_fraction(x) -> Fraction:
    """x exact: a Fraction as it is, an int wrapped; anything else (a bool too) refused."""
    if isinstance(x, Fraction):
        return x
    if type(x) is not int:
        raise PreconditionError(f"expected an int or a Fraction, got {type(x).__name__}")
    return Fraction(x)


def as_count(n, what: str) -> int:
    """n as a positive int (not a bool): the bound n and the oracle's other counts."""
    if type(n) is not int or n < 1:
        raise PreconditionError(f"{what} must be a positive integer")
    return n


def same_graph(g: RayGraph, h) -> bool:
    """h is the graph g: the same object, or an equal one."""
    return h is g or h == g


def check_graph(g: RayGraph, *objs) -> None:
    """g is a RayGraph and each point, set or region in objs lies on it (identity first)."""
    if not isinstance(g, RayGraph):
        raise PreconditionError(f"expected a RayGraph, got {type(g).__name__}")
    for obj in objs:
        if isinstance(obj, GraphPoint):
            g.validate_point(obj)
        elif not same_graph(g, getattr(obj, "graph", None)):
            raise PreconditionError(f"{type(obj).__name__} does not belong to the given graph")


def as_text(text, what: str) -> str:
    """text as a str, the one kind the text parsers read; anything else refused."""
    if not isinstance(text, str):
        raise PreconditionError(f"{what} must be a str, got {type(text).__name__}")
    return text


def as_direction_set(g: RayGraph, delta) -> frozenset[int]:
    """delta, a set or frozenset of g's 1-based ray indices (ints, not bools), frozen."""
    check_graph(g)
    if not isinstance(delta, (set, frozenset)):
        raise PreconditionError(f"a direction set is a set, got {type(delta).__name__}")
    bad = sorted(map(repr, (i for i in delta if type(i) is not int or i not in g.ray_by_index)))
    if bad:
        raise PreconditionError(f"direction set references unknown ray indices [{', '.join(bad)}]")
    return frozenset(delta)


# ---- parsing -----------------------------------------------------------

DIGIT_FORM = r"(-?[0-9]+)(?:/(0*[1-9][0-9]*))?"  # ASCII [-]p or p/q, q > 0; groups p, q


def parse_fraction(tok: str, where: str) -> Fraction:
    """Rational text, ``p/q`` or a decimal, as an exact Fraction.

    Every rational the package reads from text comes through here but a set literal's
    coordinates in the digit form ``DIGIT_FORM`` above, which ``sets.parse_set`` reads as
    ints.  Exponent notation is refused: ``1e10000000``'s value would stall the conversion.
    """
    if "e" not in tok and "E" not in tok:
        try:
            return Fraction(tok)
        except (ValueError, ZeroDivisionError):
            pass
    raise ParseError(f"bad rational {tok!r}", where)


def _check_id(tok: str, where: str) -> str:
    if not isinstance(tok, str) or not _ID_RE.match(tok):
        raise ParseError(f"bad identifier {tok!r}", where)
    return tok


def parse_graph(text: str) -> RayGraph:
    """Parse the line-oriented graph grammar.

    Statements (one per line, or ';'-separated): ``vertex <id>...``,
    ``edge <id> <v1> <v2> [length <p>/<q>]``, ``ray <id> <v>``.
    ``#`` starts a comment.
    """
    vertices: list[str] = []
    edges: list[Edge] = []
    rays: list[Ray] = []
    for lineno, raw in enumerate(as_text(text, "graph text").splitlines(), start=1):
        line = raw.split("#", 1)[0]
        for stmt in line.split(";"):
            toks = stmt.split()
            if not toks:
                continue
            where = f"line {lineno}"
            kw = toks[0]
            if kw == "vertex":
                if len(toks) < 2:
                    raise ParseError("vertex statement needs at least one id", where)
                for t in toks[1:]:
                    vertices.append(_check_id(t, where))
            elif kw == "edge":
                if len(toks) == 4:
                    length = Fraction(1)
                elif len(toks) == 6 and toks[4] == "length":
                    length = parse_fraction(toks[5], where)
                else:
                    raise ParseError(
                        "edge statement is 'edge <id> <v1> <v2> [length <p>/<q>]'", where
                    )
                if length <= 0:
                    raise ParseError(f"edge {toks[1]!r} has nonpositive length", where)
                edges.append(Edge(_check_id(toks[1], where), toks[2], toks[3], length))
            elif kw == "ray":
                if len(toks) != 3:
                    raise ParseError("ray statement is 'ray <id> <v>'", where)
                rays.append(Ray(_check_id(toks[1], where), toks[2]))
            else:
                raise ParseError(f"unknown statement {kw!r}", where)
    return RayGraph(tuple(vertices), tuple(edges), tuple(rays))


def graph_from_parts(vertices: Iterable[str], edges: Iterable[tuple] = (),
                     rays: Iterable[tuple[str, str]] = ()) -> RayGraph:
    """Programmatic constructor: edges as (id, u, v[, length]), rays as (id, v)."""
    if not all(isinstance(part, Iterable) for part in (vertices, edges, rays)):
        raise InvalidGraphError("vertices, edges and rays each come as an iterable")
    vertices, edges, rays = tuple(vertices), list(edges), list(rays)
    shapes = [(spec, (3, 4)) for spec in edges] + [(spec, (2,)) for spec in rays]
    if not all(isinstance(spec, (tuple, list)) and len(spec) in n for spec, n in shapes):
        raise InvalidGraphError("an edge is (id, u, v[, length]) and a ray is (id, v)")
    es = [Edge(*spec[:3], *map(as_fraction, spec[3:4])) for spec in edges]
    return RayGraph(vertices, tuple(es), tuple(Ray(i, v) for i, v in rays))
