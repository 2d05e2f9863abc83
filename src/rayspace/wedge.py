"""Symbolic cell-complex models of the hyperspace C(X) for wedge products.

A model is an inventory of pieces (formal products of base cells), the
containment locus of the wedge point with its distinguished single-point
marker, and gluing identifications.  Composing two models crosses their
containment loci into a product layer; one pass over the two sides then
glues each locus component to its marker slice, or absorbs the piece it
fills.  This reproduces the classical drawings for nooses, n-ods and lines.
Tests check each model against the star ray-graph it draws, so this module
imports nothing of the package but the errors and ``graph.count_classes``.
"""

from __future__ import annotations

from functools import cached_property

from ._record import record
from .errors import CapExceededError, ParseError, PreconditionError
from .graph import count_classes

# Hard limits on user-driven model size: parenthesis nesting of a wedge
# expression, and product pieces built by one wedge (locus components of the
# two sides multiplied; nested rays double them at every level).
MAX_WEDGE_DEPTH = 64
MAX_LOCUS_PRODUCT = 4096


@record
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


@record
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


@record
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


@record
class Gluing:
    left: tuple[str, str]   # (piece id, face description)
    right: tuple[str, str]


@record
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


@record
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


def _check_models(*ms) -> None:
    for m in ms:
        if not isinstance(m, HModel):
            raise PreconditionError(f"expected an HModel, got {type(m).__name__}")


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
    _check_models(m1, m2)
    estimate = len(m1.containment) * len(m2.containment)
    if estimate > MAX_LOCUS_PRODUCT:
        raise CapExceededError(
            f"wedge would build {estimate} product pieces (cap {MAX_LOCUS_PRODUCT}); "
            "use a smaller wedge expression"
        )
    star1, star2 = m1.marker_component, m2.marker_component
    products = tuple(
        Piece(f"[{c1.id}x{c2.id}]", c1.factors + c2.factors)
        for c1 in m1.containment
        for c2 in m2.containment
    )
    marked = f"[{star1.id}x{star2.id}]"
    containment = tuple(
        LocusComponent(
            f"Cp{p.id}",
            p.id,
            "entire product piece",
            p.factors,
            marker="(p,p)" if p.id == marked else None,
            whole_piece=True,
        )
        for p in products
    )

    # Each side's locus component c meets the product layer in its marker
    # slice: c x {p} for the first side, {p} x c for the second.
    sides = (
        ("1", m1, lambda c: (f"[{c.id}x{star2.id}]", f"{c.id} x {{p}} slice")),
        ("2", m2, lambda c: (f"[{star1.id}x{c.id}]", f"{{p}} x {c.id} slice")),
    )
    kept: list[Piece] = []
    inner: list[Gluing] = []
    slices: list[Gluing] = []
    absorbed: dict[str, str] = {}  # tagged piece id -> product piece it is identified with
    for tag, m, marker_slice in sides:
        name = {p.id: f"{tag}.{p.id}" for p in m.pieces}
        kept += [Piece(name[p.id], p.factors) for p in m.pieces]
        inner += [
            Gluing((name[gl.left[0]], gl.left[1]), (name[gl.right[0]], gl.right[1]))
            for gl in m.gluings
        ]
        for c in m.containment:
            target, face = marker_slice(c)
            if c.whole_piece:
                absorbed[name[c.piece]] = target
            else:
                slices.append(Gluing((name[c.piece], c.face), (target, face)))

    def redirect(end: tuple[str, str]) -> tuple[str, str]:
        pid, face = end
        if pid in absorbed:
            return (absorbed[pid], f"{face} (inside absorbed {pid})")
        return end

    return HModel(
        f"({m1.name} v {m2.name})",
        tuple(p for p in kept if p.id not in absorbed) + products,
        containment,
        tuple(Gluing(redirect(gl.left), redirect(gl.right)) for gl in inner + slices),
    )


def model_components(m: HModel) -> int:
    """Connected components of the model: classes of pieces under the gluings."""
    _check_models(m)
    glued = ((gl.left[0], gl.right[0]) for gl in m.gluings)
    return count_classes((p.id for p in m.pieces), glued)


def model_stats(m: HModel) -> ModelStats:
    _check_models(m)
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
    if not isinstance(text, str):  # the wedge models take no gate from graph.py
        raise PreconditionError(f"a wedge expression must be a str, got {type(text).__name__}")
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
