"""Closed subsets of a ray-graph: canonical interval unions, components, direction sets.

An element of CL(X) is stored per graph element as a sorted tuple of disjoint,
non-adjacent closed intervals, plus (on rays) an optional unbounded tail
[s, inf).  Degenerate intervals [a, a] represent single points.  Canonical
form is unique per point set.  ``_canonicalize`` makes one pass per element:
validate the pieces, set aside each single point at an element end (a vertex),
merge touching intervals, let the tail swallow what it reaches.  A set-aside
vertex that no longer piece and no tail from 0 reaches is then stored once,
on its least incident (element, coord) representation.  Vertex contact is
read off the element's two end vertices: only the first piece or a tail can
start at 0, and only the last piece can end at the length.  The pass records
the vertices the set holds as ``ClosedSubset.vertices``, so no other code
decides vertex aliasing, and ``component_count`` reads the components off
that record and the canonical pieces.  Only ``_canonicalize`` builds a
``ClosedSubset`` from raw fields, and each set value goes through it once.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .errors import ParseError, PreconditionError
from .graph import (GraphPoint, RayGraph, as_count, as_direction_set, as_fraction, as_text,
                    check_graph, count_classes, parse_fraction)

Interval = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class ElementPieces:
    """Canonical pieces of a closed subset on one graph element."""

    intervals: tuple[Interval, ...]
    tail: Fraction | None = None  # tail start; rays only


@dataclass(frozen=True)
class ClosedSubset:
    """A nonempty closed subset of a ray-graph, in canonical form.

    Construct through :meth:`from_pieces`, :func:`parse_set` or the set
    operations; only ``_canonicalize`` calls the raw constructor.
    ``vertices`` records which vertices the set holds as points.  It is
    derived from ``pieces``, so equality, hashing and ``repr`` ignore it.
    """

    graph: RayGraph
    pieces: tuple[tuple[str, ElementPieces], ...]  # sorted by element id
    vertices: frozenset[str] = field(compare=False, repr=False)

    # ---- construction --------------------------------------------------

    @staticmethod
    def from_pieces(
        g: RayGraph,
        intervals: dict[str, list[tuple[Fraction, Fraction]]] | None = None,
        tails: dict[str, Fraction] | None = None,
    ) -> "ClosedSubset":
        """Build and canonicalize a subset from raw per-element data."""
        check_graph(g)
        raw = {
            eid: [(as_fraction(a), as_fraction(b)) for a, b in ivs]
            for eid, ivs in (intervals or {}).items()
        }
        return _canonicalize(g, raw, {eid: as_fraction(s) for eid, s in (tails or {}).items()})

    # ---- accessors -----------------------------------------------------

    @cached_property
    def by_element(self) -> dict[str, ElementPieces]:
        return dict(self.pieces)

    def intervals_on(self, eid: str) -> tuple[Interval, ...]:
        ep = self.by_element.get(eid)
        return ep.intervals if ep else ()

    def tail_on(self, eid: str) -> Fraction | None:
        ep = self.by_element.get(eid)
        return ep.tail if ep else None

    def sort_key(self):
        return tuple(
            (eid, ep.intervals, ep.tail if ep.tail is not None else Fraction(-1), ep.tail is None)
            for eid, ep in self.pieces
        )

    def render(self) -> str:
        """Set-literal form, e.g. ``E1:[0,1/2] R1:[2,inf)``; round-trips via parse_set."""
        atoms: list[str] = []
        for eid, ep in self.pieces:
            for a, b in ep.intervals:
                if a == b:
                    atoms.append(f"{eid}:{{{a}}}")
                else:
                    atoms.append(f"{eid}:[{a},{b}]")
            if ep.tail is not None:
                atoms.append(f"{eid}:[{ep.tail},inf)")
        return " ".join(atoms)

    def __str__(self) -> str:
        return self.render()


# ---- canonicalization ---------------------------------------------------


def _canonicalize(
    g: RayGraph, intervals: dict[str, list[Interval]], tails: dict[str, Fraction]
) -> ClosedSubset:
    per: dict[str, tuple[list[Interval], Fraction | None]] = {}
    points: set[str] = set()  # vertices given as single points [c, c]
    held: set[str] = set()  # vertices some longer piece or a tail at 0 reaches
    for eid in sorted(intervals.keys() | tails.keys()):
        ivs = intervals.get(eid, ())
        tail = tails.get(eid)
        length = g.element_length(eid)  # raises for unknown ids
        end0, end1 = g.element_end_vertices(eid)
        if tail is not None and length is not None:
            raise PreconditionError(f"tail on edge {eid}; tails only exist on rays")
        for a, b in ivs:
            if a > b:
                raise PreconditionError(f"malformed interval [{a},{b}] on {eid}")
            if a < 0 or (length is not None and b > length):
                raise PreconditionError(f"interval [{a},{b}] out of range on {eid}")
        if tail is not None and tail < 0:
            raise PreconditionError(f"tail start {tail} out of range on {eid}")
        merged: list[Interval] = []
        for a, b in sorted(ivs):
            if a == b and (a == 0 or a == length):
                points.add(end0 if a == 0 else end1)
            elif merged and a <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], b))
            else:
                merged.append((a, b))
        if tail is not None:
            while merged and merged[-1][1] >= tail:
                tail = min(tail, merged.pop()[0])
        # merged pieces are disjoint and a tail lies past them, so only the
        # first piece (or the tail) can start at 0 and only the last can end at length
        if (merged[0][0] if merged else tail) == 0:
            held.add(end0)
        if merged and merged[-1][1] == length:
            held.add(end1)
        if merged or tail is not None:
            per[eid] = (merged, tail)

    # a vertex no longer piece holds is stored once, at its least representation
    for v in points - held:
        eid, c = g.vertex_representations(v)[0]
        bisect.insort(per.setdefault(eid, ([], None))[0], (c, c))

    if not per:
        raise PreconditionError("empty set: elements of CL(X) are nonempty")
    pieces = tuple(
        (eid, ElementPieces(tuple(ivs), tail)) for eid, (ivs, tail) in sorted(per.items())
    )
    return ClosedSubset(g, pieces, frozenset(points | held))


# ---- parsing ------------------------------------------------------------


def parse_set(text: str, g: RayGraph) -> ClosedSubset:
    """Parse a set literal: whitespace-separated ``ELEM:[a,b]``, ``ELEM:[a,inf)``, ``ELEM:{a}``."""
    intervals: dict[str, list[tuple[Fraction, Fraction]]] = {}
    tails: dict[str, Fraction] = {}
    atoms = as_text(text, "a set literal").split()
    if not atoms:
        raise ParseError("empty set literal; elements of CL(X) are nonempty")
    for i, atom in enumerate(atoms, start=1):
        where = f"atom {i} ({atom!r})"
        if ":" not in atom:
            raise ParseError("atom must look like ELEM:[a,b], ELEM:[a,inf) or ELEM:{a}", where)
        eid, body = atom.split(":", 1)
        if body.startswith("{") and body.endswith("}"):
            a = b = parse_fraction(body[1:-1], where)
        elif body.startswith("[") and body.endswith(")"):
            inner = body[1:-1]
            parts = inner.split(",")
            if len(parts) != 2 or parts[1].strip() != "inf":
                raise ParseError("half-open atom must be ELEM:[a,inf)", where)
            a, b = parse_fraction(parts[0], where), None
        elif body.startswith("[") and body.endswith("]"):
            parts = body[1:-1].split(",")
            if len(parts) != 2:
                raise ParseError("interval atom must be ELEM:[a,b]", where)
            a, b = parse_fraction(parts[0], where), parse_fraction(parts[1], where)
            if a > b:
                raise ParseError(f"malformed interval (a > b) in {atom!r}", where)
        else:
            raise ParseError(f"unrecognized atom {atom!r}", where)
        if a < 0:  # a <= b, so a is the least coordinate of the atom
            raise ParseError(f"negative coordinate {a}", where)
        if b is None:
            tails[eid] = min(a, tails[eid]) if eid in tails else a
        else:
            intervals.setdefault(eid, []).append((a, b))
    try:
        return ClosedSubset.from_pieces(g, intervals, tails)
    except PreconditionError as exc:
        raise ParseError(str(exc)) from None


# ---- set operations -----------------------------------------------------


def add_pieces(
    A: ClosedSubset, intervals: dict[str, list[Interval]], tails: dict[str, Fraction]
) -> None:
    """Add A's pieces to raw ``from_pieces`` data in place; a tail keeps the lower start."""
    for eid, ep in A.pieces:
        if ep.intervals:
            intervals.setdefault(eid, []).extend(ep.intervals)
        if ep.tail is not None:
            tails[eid] = min(tails.get(eid, ep.tail), ep.tail)


def union(A: ClosedSubset, B: ClosedSubset) -> ClosedSubset:
    """Canonical union of two subsets of the same graph."""
    check_graph(getattr(A, "graph", None), B)
    intervals: dict[str, list[Interval]] = {}
    tails: dict[str, Fraction] = {}
    add_pieces(A, intervals, tails)
    add_pieces(B, intervals, tails)
    return _canonicalize(A.graph, intervals, tails)


def component_count(g: RayGraph, A: ClosedSubset) -> int:
    """Number of connected components of A as a subspace of the graph.

    Read off the canonical form.  A piece that reaches no element end is a
    component by itself.  Every other piece lies in the component of a vertex
    it reaches, and that vertex is in ``A.vertices``; vertices join only along
    a whole edge ``[0, length]``, the one piece that reaches two of them.  So
    the count is the loose pieces plus the classes of ``A.vertices`` under
    the whole edges' end pairs.
    """
    check_graph(g, A)
    loose = 0
    links: list[tuple[str, str]] = []
    for eid, ep in A.pieces:
        length = g.element_length(eid)  # None on a ray: no piece ends there
        for a, b in ep.intervals:
            if a == 0 and b == length:
                links.append(g.element_end_vertices(eid))
            elif a > 0 and b != length:
                loose += 1
        if ep.tail is not None and ep.tail > 0:
            loose += 1
    return loose + count_classes(A.vertices, links)


def in_cn(g: RayGraph, A: ClosedSubset, n: int) -> bool:
    """Membership in C_n(X): at most n connected components."""
    return component_count(g, A) <= as_count(n, "n")


def direction_set(g: RayGraph, A: ClosedSubset) -> frozenset[int]:
    """Indices (1-based) of the rays carrying an unbounded tail of A."""
    check_graph(g, A)
    return frozenset(g.ray_index[eid] for eid, ep in A.pieces if ep.tail is not None)


def canonical_element(g: RayGraph, delta: frozenset[int] | set[int]) -> ClosedSubset:
    """The connected default element of a direction class: every edge and
    vertex of the rayless subgraph, plus the full rays indexed by delta."""
    delta = as_direction_set(g, delta)
    intervals = {e.id: [(Fraction(0), e.length)] for e in g.edges}
    tails = {g.ray_by_index[i].id: Fraction(0) for i in delta}
    # vertices not covered by an edge or chosen ray still belong to the set
    for v in g.vertices:
        eid, c = g.vertex_representations(v)[0]
        intervals.setdefault(eid, []).append((c, c))
    return ClosedSubset.from_pieces(g, intervals, tails)


def whole_space(g: RayGraph) -> ClosedSubset:
    check_graph(g)
    return canonical_element(g, frozenset(g.ray_index.values()))


def contains_point(g: RayGraph, A: ClosedSubset, p: GraphPoint) -> bool:
    """Exact membership of a point in A (vertex aliases resolved)."""
    check_graph(g, A, p)
    v = g.vertex_at(p.element, p.coord)
    if v is not None:
        return v in A.vertices
    ep = A.by_element.get(p.element)
    if ep is None:
        return False
    c = p.coord
    return any(a <= c <= b for a, b in ep.intervals) or (ep.tail is not None and c >= ep.tail)


def is_subset(g: RayGraph, A: ClosedSubset, B: ClosedSubset) -> bool:
    """A is contained in B: adding A to B leaves B's canonical form unchanged."""
    check_graph(g, A, B)
    return union(A, B) == B
