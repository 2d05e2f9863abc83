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
the vertices the set holds as ``ClosedSubset.vertices`` and its number of
components as ``ClosedSubset.components``, so no other code decides vertex
aliasing or connectivity.  Only ``_canonicalize`` builds a ``ClosedSubset``
from raw fields, and each set value goes through it once.

The pass compares ints only: each coordinate comes as an int over one scale,
and the set keeps those ints and nothing else.  It reads each element's end
vertices and length, an int over ``g.scale``, from a table the graph builds
once, and ``canonical_element`` builds its ints from the same table.
``pieces``, the one place that builds ``ElementPieces``, makes their
``Fraction``s on first read, so a value only asked ``in_cn`` builds no
``Fraction``.  Equality and hashing read the ints over their least scale.
``parse_set`` reads text onto ints itself, ``from_pieces`` brings ``Fraction``
data onto a scale, and unions and path stages read sets' ints through
``scale_sets``.
"""

from __future__ import annotations

import bisect
import math
import re
from fractions import Fraction
from functools import cached_property

from ._record import record, setfield
from .errors import ParseError, PreconditionError
from .graph import (DIGIT_FORM, GraphPoint, RayGraph, as_count, as_direction_set, as_fraction,
                    as_text, check_graph, count_classes, parse_fraction, same_graph)

Interval = tuple[Fraction, Fraction]


@record
class ElementPieces:
    """Canonical pieces of a closed subset on one graph element."""

    intervals: tuple[Interval, ...]
    tail: Fraction | None  # tail start; rays only

    def __init__(self, intervals: tuple[Interval, ...], tail: Fraction | None = None):
        setfield(self, "intervals", intervals)
        setfield(self, "tail", tail)


@record
class ClosedSubset:
    """A nonempty closed subset of a ray-graph, in canonical form.

    Construct through :meth:`from_pieces`, :func:`parse_set` or the set
    operations; only ``_canonicalize`` calls the raw constructor.  ``ends``
    is the canonical pass's merged data: per element, in element id order,
    its id, its intervals as ``(a, b)`` and its tail start s or None, with
    a, b and s ints over ``scale``.  ``pieces`` is the ``Fraction`` view of
    ``ends``, built on first read.  Equality and hashing read only the ints,
    over the least scale they lie on, so a set reached on any scale equals
    itself.  ``vertices`` (the vertices the set holds as points) and
    ``components`` are derived, so equality, hashing and ``repr`` ignore them.
    """

    graph: RayGraph
    ends: tuple[tuple[str, tuple[tuple[int, int], ...], int | None], ...]
    scale: int
    vertices: frozenset[str]
    components: int

    def __init__(self, graph: RayGraph, ends: tuple, scale: int, vertices: frozenset[str],
                 components: int):
        setfield(self, "graph", graph)
        setfield(self, "ends", ends)
        setfield(self, "scale", scale)
        setfield(self, "vertices", vertices)
        setfield(self, "components", components)

    # ---- construction --------------------------------------------------

    @staticmethod
    def from_pieces(
        g: RayGraph,
        intervals: dict[str, list[tuple[Fraction, Fraction]]] | None = None,
        tails: dict[str, Fraction] | None = None,
    ) -> "ClosedSubset":
        """Build and canonicalize a subset from raw per-element data, over the lcm of
        ``g.scale`` and the coordinates' denominators."""
        check_graph(g)
        raw = {
            eid: [(as_fraction(a), as_fraction(b)) for a, b in ivs]
            for eid, ivs in (intervals or {}).items()
        }
        raw_tails = {eid: as_fraction(s) for eid, s in (tails or {}).items()}
        scale = math.lcm(g.scale, *(x.denominator for x in raw_tails.values()),
                         *(x.denominator for ivs in raw.values() for iv in ivs for x in iv))

        def up(x: Fraction) -> int:
            return x.numerator * (scale // x.denominator)

        return _canonicalize(g, {eid: [(up(a), up(b)) for a, b in ivs] for eid, ivs in raw.items()},
                             {eid: up(s) for eid, s in raw_tails.items()}, scale)

    @staticmethod
    def _from_scaled(g: RayGraph, intervals: dict, tails: dict, scale: int) -> "ClosedSubset":
        return _canonicalize(g, intervals, tails, scale)

    # ---- accessors -----------------------------------------------------

    @cached_property
    def pieces(self) -> tuple[tuple[str, ElementPieces], ...]:
        """Per element, in element id order, its canonical pieces as ``Fraction``s."""
        d = self.scale
        return tuple([
            (eid, ElementPieces(tuple([(Fraction(a, d), Fraction(b, d)) for a, b in ivs]),
                                None if s is None else Fraction(s, d)))
            for eid, ivs, s in self.ends
        ])

    def _value(self) -> tuple:
        """The least scale the ints lie on, and per element its id, interval ends
        and tail start over that scale: on one graph, equal exactly for equal sets."""
        ends = self.ends
        d = math.gcd(self.scale, *[x for _, ivs, _ in ends for iv in ivs for x in iv],
                     *[s for _, _, s in ends if s])
        return self.scale // d, tuple([
            (eid, tuple([(a // d, b // d) for a, b in ivs]), s and s // d) for eid, ivs, s in ends])

    def __eq__(self, other):
        if not isinstance(other, ClosedSubset):
            return NotImplemented
        return self._value() == other._value() and same_graph(self.graph, other.graph)

    def __hash__(self) -> int:
        return hash(self._value())

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

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(graph={self.graph!r}, pieces={self.pieces!r})"


# ---- canonicalization ---------------------------------------------------


def _canonicalize(g: RayGraph, intervals: dict, tails: dict, scale: int) -> ClosedSubset:
    """Canonical form of ``(a, b)`` intervals and tail starts s, all ints over ``scale``
    (a multiple of ``g.scale``).

    Each element's end vertices and length come from the graph's table of ints over
    ``g.scale``; the element ids are walked once, in order, building ``ends`` as they go.
    """
    shapes, k = g._scaled_shapes, scale // g.scale
    ends: list = []
    points: set[str] = set()  # vertices given as single points [c, c]
    held: set[str] = set()  # vertices some longer piece or a tail at 0 reaches
    loose, links = 0, []  # pieces that reach no vertex; whole edges' end pairs
    for eid in sorted(intervals.keys() | tails.keys()):
        try:
            end0, end1, top = shapes[eid]
        except KeyError:
            g._shape(eid)  # raises for unknown ids
        ivs = intervals.get(eid, ())
        tail = tails.get(eid)
        if top is not None:
            if tail is not None:
                raise PreconditionError(f"tail on edge {eid}; tails only exist on rays")
            top *= k
        for a, b in ivs:
            if a > b or a < 0 or (top is not None and b > top):
                iv = f"[{Fraction(a, scale)},{Fraction(b, scale)}]"
                raise PreconditionError(f"malformed interval {iv} on {eid}" if a > b
                                        else f"interval {iv} out of range on {eid}")
        if tail is not None and tail < 0:
            raise PreconditionError(f"tail start {Fraction(tail, scale)} out of range on {eid}")
        merged: list = []
        for iv in sorted(ivs):
            a, b = iv
            if a == b and (a == 0 or a == top):
                points.add(end0 if a == 0 else end1)
            elif merged and a <= merged[-1][1]:
                if b > merged[-1][1]:
                    merged[-1] = (merged[-1][0], b)
            else:
                merged.append(iv)
        if tail is not None:
            while merged and merged[-1][1] >= tail:
                tail = min(tail, merged.pop()[0])
        if not merged and tail is None:
            continue
        # merged pieces are disjoint and a tail lies past them, so only the
        # first piece (or the tail) can start at 0 and only the last can end at length
        if (merged[0][0] if merged else tail) == 0:
            held.add(end0)
        if merged and merged[-1][1] == top:
            held.add(end1)
        for a, b in merged:
            if a == 0 and b == top:
                links.append((end0, end1))
            elif a > 0 and b != top:
                loose += 1
        loose += tail is not None and tail > 0
        ends.append((eid, tuple(merged), tail))

    # a vertex no longer piece holds is stored once, at its least representation
    aside = points - held
    if aside:
        per = {eid: (list(ivs), tail) for eid, ivs, tail in ends}
        reps = g._scaled_least_reps
        for v in aside:
            eid, c = reps[v]
            bisect.insort(per.setdefault(eid, ([], None))[0], (c * k, c * k))
        ends = [(eid, tuple(ivs), tail) for eid, (ivs, tail) in
                (sorted(per.items()) if len(per) > len(ends) else per.items())]

    if not ends:
        raise PreconditionError("empty set: elements of CL(X) are nonempty")

    vertices = frozenset(points | held)
    # loose pieces are components; vertices join only along whole edges [0, length]
    return ClosedSubset(g, tuple(ends), scale, vertices,
                        loose + (count_classes(vertices, links) if links else len(vertices)))


# ---- parsing ------------------------------------------------------------


# ELEM:{a}, ELEM:[a,inf) or ELEM:[a,b] with a and b in the digit form; group 2 holds "{"
_ATOM = re.compile(rf"([^:]*):(?:(\{{)|\[){DIGIT_FORM}(?(2)\}}|,(?:inf\)|{DIGIT_FORM}\]))")


def _read_atom(atom: str, i: int) -> tuple:
    """Atom i as (eid, a, b), b None on a tail: by ``_ATOM`` if it can, else ``parse_fraction``."""
    if m := _ATOM.fullmatch(atom):
        eid, point, p, q, pb, qb = m.groups()
        try:
            a = Fraction(int(p), int(q or 1))
            return eid, a, a if point else pb and Fraction(int(pb), int(qb or 1))
        except ValueError:  # past int's digit limit
            pass
    where = f"atom {i} ({atom!r})"
    if ":" not in atom:
        raise ParseError("atom must look like ELEM:[a,b], ELEM:[a,inf) or ELEM:{a}", where)
    eid, body = atom.split(":", 1)
    if body.startswith("{") and body.endswith("}"):
        a = b = parse_fraction(body[1:-1], where)
    elif body.startswith("[") and body.endswith(")"):
        parts = body[1:-1].split(",")
        if len(parts) != 2 or parts[1].strip() != "inf":
            raise ParseError("half-open atom must be ELEM:[a,inf)", where)
        a, b = parse_fraction(parts[0], where), None
    elif body.startswith("[") and body.endswith("]"):
        parts = body[1:-1].split(",")
        if len(parts) != 2:
            raise ParseError("interval atom must be ELEM:[a,b]", where)
        a, b = parse_fraction(parts[0], where), parse_fraction(parts[1], where)
    else:
        raise ParseError(f"unrecognized atom {atom!r}", where)
    return eid, a, b


def parse_set(text: str, g: RayGraph) -> ClosedSubset:
    """Parse a set literal: whitespace-separated ``ELEM:[a,b]``, ``ELEM:[a,inf)``, ``ELEM:{a}``.

    One pass to ``_canonicalize``'s ints, each coordinate carried as its reduced (numerator,
    denominator); ``p`` or ``p/q`` (``graph.DIGIT_FORM``) read by regex."""
    atoms = as_text(text, "a set literal").split()
    if not atoms:
        raise ParseError("empty set literal; elements of CL(X) are nonempty")
    intervals, tails = {}, {}  # eid -> [(a, b), ...] and eid -> least tail start
    for i, atom in enumerate(atoms, start=1):
        eid, lo, hi = _read_atom(atom, i)
        a = lo.numerator, lo.denominator
        b = None if hi is None else (hi.numerator, hi.denominator)
        if b is not None and a[0] * b[1] > b[0] * a[1]:
            raise ParseError(f"malformed interval (a > b) in {atom!r}", f"atom {i} ({atom!r})")
        if a[0] < 0:  # a <= b, so a is the least coordinate of the atom
            raise ParseError(f"negative coordinate {lo}", f"atom {i} ({atom!r})")
        if b is not None:
            intervals.setdefault(eid, []).append((a, b))
        elif eid not in tails or a[0] * tails[eid][1] < tails[eid][0] * a[1]:
            tails[eid] = a
    try:
        check_graph(g)
        scale = math.lcm(g.scale, *{x[1] for ivs in intervals.values() for iv in ivs for x in iv},
                         *{s[1] for s in tails.values()})
        return _canonicalize(
            g, {eid: [(na * (scale // da), nb * (scale // db)) for (na, da), (nb, db) in ivs]
                for eid, ivs in intervals.items()},
            {eid: n * (scale // d) for eid, (n, d) in tails.items()}, scale)
    except PreconditionError as exc:
        raise ParseError(str(exc)) from None


# ---- set operations -----------------------------------------------------


def scale_sets(
    g: RayGraph, sets: tuple[ClosedSubset, ...], *dens: int
) -> tuple[dict, dict, int]:
    """The sets' ends together as ``_canonicalize`` takes them, ``(a, b)`` pairs and tail
    starts read off their ints with no ``Fraction`` arithmetic: over the lcm of their
    scales, of ``g.scale`` and of ``dens``, which comes last.  A tail keeps the lower start."""
    scale = math.lcm(g.scale, *dens, *(S.scale for S in sets))
    intervals: dict[str, list] = {}
    tails: dict[str, int] = {}
    for S in sets:
        k = scale // S.scale
        for eid, ivs, s in S.ends:
            if ivs:
                intervals.setdefault(eid, []).extend(
                    [(a * k, b * k) for a, b in ivs] if k > 1 else ivs)
            if s is not None and (eid not in tails or s * k < tails[eid]):
                tails[eid] = s * k
    return intervals, tails, scale


def union(A: ClosedSubset, B: ClosedSubset) -> ClosedSubset:
    """Canonical union of two subsets of the same graph."""
    check_graph(getattr(A, "graph", None), B)
    return _canonicalize(A.graph, *scale_sets(A.graph, (A, B)))


def component_count(g: RayGraph, A: ClosedSubset) -> int:
    """Number of connected components of A as a subspace of the graph, as the
    canonical pass counted them: its loose pieces and its classes of vertices."""
    check_graph(g, A)
    return A.components


def in_cn(g: RayGraph, A: ClosedSubset, n: int) -> bool:
    """Membership in C_n(X): at most n connected components."""
    return component_count(g, A) <= as_count(n, "n")


def direction_set(g: RayGraph, A: ClosedSubset) -> frozenset[int]:
    """Indices (1-based) of the rays carrying an unbounded tail of A."""
    check_graph(g, A)
    return frozenset(g.ray_index[eid] for eid, _, tail in A.ends if tail is not None)


def canonical_element(g: RayGraph, delta: frozenset[int] | set[int]) -> ClosedSubset:
    """The connected default element of a direction class: every edge and
    vertex of the rayless subgraph, plus the full rays indexed by delta, built
    from the graph's ints over ``g.scale``."""
    delta = as_direction_set(g, delta)
    shapes = g._scaled_shapes
    intervals = {e.id: [(0, shapes[e.id][2])] for e in g.edges}
    tails = {g.ray_by_index[i].id: 0 for i in delta}
    # vertices not covered by an edge or chosen ray still belong to the set
    for eid, c in g._scaled_least_reps.values():
        intervals.setdefault(eid, []).append((c, c))
    return ClosedSubset._from_scaled(g, intervals, tails, g.scale)


def whole_space(g: RayGraph) -> ClosedSubset:
    check_graph(g)
    return canonical_element(g, frozenset(g.ray_index.values()))


def contains_point(g: RayGraph, A: ClosedSubset, p: GraphPoint) -> bool:
    """Exact membership of a point in A (vertex aliases resolved), on A's ints."""
    check_graph(g, A, p)
    v = g.vertex_at(p.element, p.coord)
    if v is not None:
        return v in A.vertices
    x, d = p.coord.numerator * A.scale, p.coord.denominator  # the point is at x / d over A.scale
    for eid, ivs, s in A.ends:
        if eid == p.element:
            return any(a * d <= x <= b * d for a, b in ivs) or (s is not None and x >= s * d)
    return False


def is_subset(g: RayGraph, A: ClosedSubset, B: ClosedSubset) -> bool:
    """A is contained in B: adding A to B leaves B's canonical form unchanged."""
    check_graph(g, A, B)
    return union(A, B) == B
