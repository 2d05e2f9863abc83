"""Symbolic cell-complex models of the hyperspace C(X) for wedge products.

A model is an inventory of pieces (formal products of base cells), the
containment locus of the wedge point with its distinguished single-point
marker, and gluing identifications.  Composing two models crosses their
containment loci and reattaches each original model along the marker slice,
which reproduces the classical drawings for nooses, n-ods and lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import CapExceededError, ParseError, PreconditionError
from .graph import count_classes

# Hard limits on user-driven model size: parenthesis nesting of a wedge
# expression, and product pieces built by one wedge (locus components of the
# two sides multiplied; nested rays double them at every level).
MAX_WEDGE_DEPTH = 64
MAX_LOCUS_PRODUCT = 4096


@dataclass(frozen=True)
class Cell:
    kind: str
    dim: int
    compact: bool

    def __str__(self) -> str:
        return self.kind


TRI = Cell("TRI", 2, True)          # solid triangle: C([0,1])
DISC = Cell("DISC", 2, True)        # solid disc: C(S^1)
TRI_INF = Cell("TRI_INF", 2, False)  # infinite triangle: bounded subsets of a ray
RAY_CELL = Cell("RAY", 1, False)    # half line
SEG = Cell("SEG", 1, True)          # compact segment
PT = Cell("PT", 0, True)            # single point


@dataclass(frozen=True)
class Piece:
    id: str
    factors: tuple[Cell, ...]

    @property
    def dim(self) -> int:
        return sum(c.dim for c in self.factors)

    @property
    def compact(self) -> bool:
        return all(c.compact for c in self.factors)

    def __str__(self) -> str:
        return "x".join(c.kind for c in self.factors)


@dataclass(frozen=True)
class LocusComponent:
    """One connected component of the containment locus, inside one piece.

    ``whole_piece`` marks components that fill their piece entirely (this
    happens for the product layer of an iterated wedge); gluing such a
    component onto a slice identifies the whole piece with that slice.
    """

    id: str
    piece: str
    face: str
    factors: tuple[Cell, ...]
    marker: str | None = None  # where the single-point element {p} sits, if here
    whole_piece: bool = False

    @property
    def dim(self) -> int:
        return sum(c.dim for c in self.factors)


@dataclass(frozen=True)
class Gluing:
    left: tuple[str, str]   # (piece id, face description)
    right: tuple[str, str]


@dataclass(frozen=True)
class HModel:
    name: str
    pieces: tuple[Piece, ...]
    containment: tuple[LocusComponent, ...]
    gluings: tuple[Gluing, ...]

    def __post_init__(self):
        ids = {p.id for p in self.pieces}
        if len(ids) != len(self.pieces):
            raise PreconditionError("duplicate piece id in model")
        for c in self.containment:
            if c.piece not in ids:
                raise PreconditionError(f"locus component {c.id} references missing piece")
        for gl in self.gluings:
            for pid, _ in (gl.left, gl.right):
                if pid not in ids:
                    raise PreconditionError("gluing references missing piece")
        if sum(1 for c in self.containment if c.marker is not None) != 1:
            raise PreconditionError("model must carry exactly one {p} marker")

    @cached_property
    def marker_component(self) -> LocusComponent:
        return next(c for c in self.containment if c.marker is not None)


@dataclass(frozen=True)
class ModelStats:
    max_dim: int
    dims: tuple[int, ...]             # piece dimension multiset, descending
    pieces: tuple[tuple[str, int, bool], ...]  # (piece id, dim, compact)

    @property
    def compact(self) -> bool:
        return all(flag for _, _, flag in self.pieces)


def base_model(kind: str) -> HModel:
    """Hyperspace model of a single arc, circle, or ray."""
    if kind == "interval":
        t = Piece("T", (TRI,))
        locus = LocusComponent("Cp", "T", "left edge", (SEG,), marker="corner (0,0)")
        return HModel("interval", (t,), (locus,), ())
    if kind == "circle":
        d = Piece("D", (DISC,))
        locus = LocusComponent("Cp", "D", "containment sub-disc", (DISC,), marker="boundary point")
        return HModel("circle", (d,), (locus,), ())
    if kind == "ray":
        tinf = Piece("Tinf", (TRI_INF,))
        tails = Piece("Tails", (RAY_CELL,))
        locus_edge = LocusComponent(
            "Cp.edge", "Tinf", "left edge", (RAY_CELL,), marker="bottom end"
        )
        locus_pt = LocusComponent("Cp.pt", "Tails", "origin point", (PT,))
        return HModel("ray", (tinf, tails), (locus_edge, locus_pt), ())
    raise PreconditionError(f"unknown base space kind {kind!r}")


def wedge(m1: HModel, m2: HModel) -> HModel:
    """Model of C(X1 v X2) from models of C(X1) and C(X2).

    Adds one product piece per pair of containment-locus components and glues
    each original locus component to its marker slice in the product; the new
    containment locus is the whole product layer, marked at (p, p).  A locus
    component that fills its piece entirely is absorbed into the slice
    (identified, not kept as a second copy) so iterated wedges report the
    classical piece inventories (cube plus fins, etc.).  Raises
    ``CapExceededError`` beyond ``MAX_LOCUS_PRODUCT`` product pieces.
    """
    if not m1.containment or not m2.containment:
        raise PreconditionError("wedge needs containment loci on both models")
    c1s, c2s = m1.containment, m2.containment
    estimate = len(c1s) * len(c2s)
    if estimate > MAX_LOCUS_PRODUCT:
        raise CapExceededError(
            f"wedge would build {estimate} product pieces (cap {MAX_LOCUS_PRODUCT}); "
            "use a smaller wedge expression"
        )
    m1_star, m2_star = m1.marker_component, m2.marker_component

    def relabel(m: HModel, tag: str):
        pieces = tuple(Piece(f"{tag}.{p.id}", p.factors) for p in m.pieces)
        loci = tuple(
            LocusComponent(
                f"{tag}.{c.id}", f"{tag}.{c.piece}", c.face, c.factors, c.marker, c.whole_piece
            )
            for c in m.containment
        )
        glues = tuple(
            Gluing((f"{tag}.{gl.left[0]}", gl.left[1]), (f"{tag}.{gl.right[0]}", gl.right[1]))
            for gl in m.gluings
        )
        return pieces, loci, glues

    p1, l1, g1 = relabel(m1, "1")
    p2, l2, g2 = relabel(m2, "2")

    def prod_id(c1: LocusComponent, c2: LocusComponent) -> str:
        return f"[{c1.id}x{c2.id}]"

    prod_pieces = tuple(
        Piece(prod_id(c1, c2), c1.factors + c2.factors) for c1 in c1s for c2 in c2s
    )
    absorbed: dict[str, str] = {}  # old piece id -> product piece it is identified with
    glues = list(g1 + g2)
    for c1, l1c in zip(c1s, l1):
        target = prod_id(c1, m2_star)
        if c1.whole_piece:
            absorbed[l1c.piece] = target
        else:
            glues.append(Gluing((l1c.piece, l1c.face), (target, f"{c1.id} x {{p}} slice")))
    for c2, l2c in zip(c2s, l2):
        target = prod_id(m1_star, c2)
        if c2.whole_piece:
            absorbed[l2c.piece] = target
        else:
            glues.append(Gluing((l2c.piece, l2c.face), (target, f"{{p}} x {c2.id} slice")))

    def redirect(end: tuple[str, str]) -> tuple[str, str]:
        pid, face = end
        if pid in absorbed:
            return (absorbed[pid], f"{face} (inside absorbed {pid})")
        return (pid, face)

    glues = [Gluing(redirect(gl.left), redirect(gl.right)) for gl in glues]
    kept = tuple(p for p in p1 + p2 if p.id not in absorbed)
    containment = tuple(
        LocusComponent(
            f"Cp{prod_id(c1, c2)}",
            prod_id(c1, c2),
            "entire product piece",
            c1.factors + c2.factors,
            marker="(p,p)" if (c1 is m1_star and c2 is m2_star) else None,
            whole_piece=True,
        )
        for c1 in c1s
        for c2 in c2s
    )
    return HModel(
        f"({m1.name} v {m2.name})",
        kept + prod_pieces,
        containment,
        tuple(glues),
    )


def model_components(m: HModel) -> int:
    """Connected components of the model: classes of pieces under the gluings."""
    glued = ((gl.left[0], gl.right[0]) for gl in m.gluings)
    return count_classes((p.id for p in m.pieces), glued)


def model_stats(m: HModel) -> ModelStats:
    dims = tuple(sorted((p.dim for p in m.pieces), reverse=True))
    return ModelStats(
        max_dim=max(dims),
        dims=dims,
        pieces=tuple((p.id, p.dim, p.compact) for p in m.pieces),
    )


# ---- expression parsing -----------------------------------------------------

_ATOMS = ("interval", "circle", "ray")
_WEDGE_TOKENS = ("∨", "v")


def parse_wedge_expr(text: str) -> HModel:
    """Parse ``interval | circle | ray | (expr ∨ expr)`` and build the model."""
    toks = _tokenize(text)
    depth = 0
    for tok in toks:
        depth += (tok == "(") - (tok == ")")
        if depth > MAX_WEDGE_DEPTH:
            raise ParseError(f"wedge expression nests deeper than {MAX_WEDGE_DEPTH} levels")
    model, rest = _parse_expr(toks)
    if rest:
        raise ParseError(f"trailing tokens {rest!r} in wedge expression")
    return model


def _tokenize(text: str) -> list[str]:
    for sym in ("(", ")"):
        text = text.replace(sym, f" {sym} ")
    text = text.replace("∨", " ∨ ")
    toks = text.split()
    if not toks:
        raise ParseError("empty wedge expression")
    return toks


def _parse_expr(toks: list[str]) -> tuple[HModel, list[str]]:
    if not toks:
        raise ParseError("unexpected end of wedge expression")
    head, rest = toks[0], toks[1:]
    if head in _ATOMS:
        return base_model(head), rest
    if head == "(":
        left, rest = _parse_expr(rest)
        if not rest or rest[0] not in _WEDGE_TOKENS:
            raise ParseError("expected '∨' inside parenthesized wedge expression")
        right, rest = _parse_expr(rest[1:])
        if not rest or rest[0] != ")":
            raise ParseError("expected ')' closing wedge expression")
        return wedge(left, right), rest[1:]
    raise ParseError(f"unexpected token {head!r} in wedge expression")


def model_report(m: HModel) -> str:
    """Structured text report: pieces, dims, gluings, loci, component count."""
    stats = model_stats(m)
    lines = [f"model {m.name}"]
    lines.append(f"components {model_components(m)}")
    lines.append(f"max_dim {stats.max_dim}")
    lines.append("dims " + " ".join(str(d) for d in stats.dims))
    lines.append(f"compact {'yes' if stats.compact else 'no'}")
    for p in m.pieces:
        lines.append(f"piece {p.id} cells {p} dim {p.dim} {'compact' if p.compact else 'noncompact'}")
    for c in m.containment:
        marker = f" marker {c.marker}" if c.marker else ""
        lines.append(f"locus {c.id} in {c.piece} ({c.face}) dim {c.dim}{marker}")
    for gl in m.gluings:
        lines.append(f"glue {gl.left[0]}:{gl.left[1]} ~ {gl.right[0]}:{gl.right[1]}")
    return "\n".join(lines)
