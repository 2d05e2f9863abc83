import random
import re
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rayspace import (
    ClosedSubset,
    ParseError,
    PreconditionError,
    canonical_element,
    component_count,
    contains_point,
    direction_set,
    in_cn,
    is_subset,
    parse_graph,
    parse_set,
    union,
    whole_space,
)
from rayspace.cli import run
from rayspace.graph import DIGIT_FORM, GraphPoint, parse_fraction

from conftest import ints_only, random_ray_graph, random_subset, rational


def test_parse_tail(graphs):
    A = parse_set("R1:[1,inf)", graphs["G_R"])
    assert A.render() == "R1:[1,inf)"
    assert A.tail_on("R1") == 1


def test_parse_adjacent_merge(graphs):
    A = parse_set("E1:[0,1/4] E1:[1/4,1/2]", graphs["G_I"])
    assert A.render() == "E1:[0,1/2]"


def test_parse_empty_rejected(graphs):
    with pytest.raises(ParseError, match="empty"):
        parse_set("", graphs["G_I"])


def test_parse_errors(graphs):
    g = graphs["G_I"]
    with pytest.raises(ParseError, match="unknown element"):
        parse_set("E9:[0,1]", g)
    with pytest.raises(ParseError, match="out of range"):
        parse_set("E1:[0,2]", g)
    with pytest.raises(ParseError, match="a > b"):
        parse_set("E1:[1,1/2]", g)
    with pytest.raises(ParseError):
        parse_set("E1:[0,inf)", g)  # tails only exist on rays


def test_union_examples(graphs):
    g = graphs["G_I"]
    A = parse_set("E1:[0,1/4]", g)
    B = parse_set("E1:[1/8,1/2]", g)
    assert union(A, B).render() == "E1:[0,1/2]"
    assert union(A, A) == A

    gr = graphs["G_R"]
    C = union(parse_set("R1:[0,1]", gr), parse_set("R1:[2,inf)", gr))
    assert C.render() == "R1:[0,1] R1:[2,inf)"


def test_component_count_examples(graphs):
    g = graphs["G_TRIOD"]
    leaves = parse_set("E1:{1} E2:{1} E3:{1}", g)
    assert component_count(g, leaves) == 3
    wedge_at_v = parse_set("E1:[0,1/2] E2:[0,1/2]", g)
    assert component_count(g, wedge_at_v) == 1
    gl = graphs["G_LOOP"]
    assert component_count(gl, parse_set("E1:[0,1]", gl)) == 1


def test_component_count_loop_wraps_through_vertex(graphs):
    g = graphs["G_LOOP"]
    # two arcs meeting only at the loop vertex: one component
    A = parse_set("E1:[0,1/4] E1:[3/4,1]", g)
    assert component_count(g, A) == 1
    B = parse_set("E1:[1/8,1/4] E1:[3/4,7/8]", g)
    assert component_count(g, B) == 2


def test_direction_set_examples(graphs):
    g = graphs["G_LINE"]
    assert direction_set(g, parse_set("R1:[2,inf)", g)) == {1}
    assert direction_set(g, whole_space(g)) == {1, 2}
    assert direction_set(g, parse_set("R1:[0,3]", g)) == frozenset()


def test_direction_set_refuses_a_set_of_another_graph(graphs):
    line = graphs["G_LINE"]
    for A in (parse_set("R2:[0,inf)", line), parse_set("R1:[0,inf)", line)):
        with pytest.raises(PreconditionError, match="given graph"):
            direction_set(graphs["G_R"], A)


def test_set_queries_refuse_a_set_of_another_graph(graphs):
    g = graphs["G_LINE"]
    A = parse_set("R1:[0,1] R2:[3,4]", graphs["G_STAR3"])
    queries = [
        lambda: component_count(g, A),
        lambda: in_cn(g, A, 1),
        lambda: contains_point(g, A, GraphPoint("R1", F(1, 2))),
        lambda: is_subset(g, A, A),
        lambda: is_subset(g, parse_set("R1:{0}", g), A),
    ]
    for query in queries:
        with pytest.raises(PreconditionError, match="given graph"):
            query()


def test_canonical_element_examples(graphs):
    g = graphs["G_LINE"]
    assert canonical_element(g, frozenset({1, 2})) == whole_space(g)
    assert canonical_element(g, frozenset()).render() == "R1:{0}"
    gn = graphs["G_NOOSE"]
    assert canonical_element(gn, frozenset({1})) == whole_space(gn)


def test_canonical_element_properties(graphs):
    for g in graphs.values():
        k = g.ray_count
        for bits in range(2**k):
            delta = frozenset(i + 1 for i in range(k) if bits >> i & 1)
            a = canonical_element(g, delta)
            assert direction_set(g, a) == delta
            assert component_count(g, a) == 1
            assert in_cn(g, a, 1)


def test_in_cn_examples(graphs):
    g = graphs["G_TRIOD"]
    leaves = parse_set("E1:{1} E2:{1} E3:{1}", g)
    assert in_cn(g, leaves, 3)
    assert not in_cn(g, leaves, 2)


def test_vertex_alias_normalization(graphs):
    g = graphs["G_LINE"]
    assert parse_set("R2:{0}", g) == parse_set("R1:{0}", g)
    # the vertex point is absorbed once any piece covers the vertex
    assert parse_set("R1:{0} R2:[0,1]", g) == parse_set("R2:[0,1]", g)
    gt = graphs["G_TRIOD"]
    assert parse_set("E2:{0}", gt) == parse_set("E1:{0}", gt)
    assert parse_set("E2:{0} E3:[0,1/2]", gt).render() == "E3:[0,1/2]"


def test_contains_point(graphs):
    g = graphs["G_LINE"]
    A = parse_set("R2:[0,1]", g)
    assert contains_point(g, A, GraphPoint("R1", F(0)))  # the vertex, via alias
    assert contains_point(g, A, GraphPoint("R2", F(1)))
    assert not contains_point(g, A, GraphPoint("R1", F(1, 2)))


def test_is_subset(graphs):
    g = graphs["G_LINE"]
    assert is_subset(g, parse_set("R1:{0}", g), parse_set("R2:[0,2]", g))
    assert is_subset(g, parse_set("R1:[1,2]", g), parse_set("R1:[1/2,inf)", g))
    assert not is_subset(g, parse_set("R1:[1,2]", g), parse_set("R1:[3/2,inf)", g))


# ---- randomized / property tests -------------------------------------------


def test_canonicalize_idempotent_and_union_laws(graphs):
    rng = random.Random(7125)
    for g in graphs.values():
        for _ in range(40):
            A = random_subset(g, rng)
            B = random_subset(g, rng)
            C = random_subset(g, rng)
            rebuilt = ClosedSubset.from_pieces(
                g,
                {eid: list(ep.intervals) for eid, ep in A.pieces},
                {eid: ep.tail for eid, ep in A.pieces if ep.tail is not None},
            )
            assert rebuilt == A
            assert union(A, B) == union(B, A)
            assert union(union(A, B), C) == union(A, union(B, C))
            assert union(A, A) == A
            assert is_subset(g, A, union(A, B))
            assert direction_set(g, union(A, B)) == direction_set(g, A) | direction_set(g, B)
            assert component_count(g, union(A, B)) <= component_count(g, A) + component_count(g, B)


_coord = st.fractions(min_value=0, max_value=3, max_denominator=8)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_union_laws_hypothesis(data):
    g = parse_graph(
        "vertex v; edge E1 v v; ray R1 v; ray R2 v"
    )

    def subset():
        intervals = {}
        tails = {}
        for eid, cap in (("E1", F(1)), ("R1", None), ("R2", None)):
            pairs = data.draw(
                st.lists(st.tuples(_coord, _coord), max_size=2), label=f"ivs {eid}"
            )
            ivs = []
            for a, b in pairs:
                a, b = min(a, b), max(a, b)
                if cap is not None:
                    a, b = min(a, cap), min(b, cap)
                ivs.append((a, b))
            if ivs:
                intervals[eid] = ivs
            if cap is None and data.draw(st.booleans(), label=f"tail {eid}"):
                tails[eid] = data.draw(_coord, label=f"tail start {eid}")
        if not intervals and not tails:
            intervals["E1"] = [(F(0), F(1, 2))]
        return ClosedSubset.from_pieces(g, intervals, tails)

    A, B = subset(), subset()
    assert union(A, B) == union(B, A)
    assert union(A, A) == A
    assert is_subset(g, A, union(A, B)) and is_subset(g, B, union(A, B))
    assert direction_set(g, union(A, B)) == direction_set(g, A) | direction_set(g, B)


def _ref_component_count(g, A):
    """Reference: union-find over one node per piece and one per vertex."""
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def join(x, y):
        parent[find(x)] = find(y)

    piece_nodes = []
    for eid, ep in A.pieces:
        spans = [(a, b) for a, b in ep.intervals]
        if ep.tail is not None:
            spans.append((ep.tail, None))
        for a, b in spans:
            node = (eid, a)
            piece_nodes.append(node)
            ends = [a] if b is None else [a, b]
            for c in ends:
                v = g.vertex_at(eid, c)
                if v is not None:
                    join(node, ("vertex", v))
    return len({find(n) for n in piece_nodes})


def _raw_subset_near_vertices(g, rng):
    """Raw piece data rich in vertex contact: whole edges, pieces from either
    end, points at the ends, tails at 0, and vertex points restated on every
    incident representation."""
    intervals, tails = {}, {}
    for e in g.edges:
        for _ in range(rng.randint(0, 3)):
            a, b = sorted((rational(rng, 0, e.length), rational(rng, 0, e.length)))
            iv = rng.choice([
                (F(0), e.length), (F(0), b), (a, e.length), (F(0), F(0)),
                (e.length, e.length), (a, a), (a, b),
            ])
            intervals.setdefault(e.id, []).append(iv)
    for r in g.rays:
        for _ in range(rng.randint(0, 2)):
            a, b = sorted((rational(rng, 0, 3), rational(rng, 0, 3)))
            intervals.setdefault(r.id, []).append(rng.choice([(F(0), b), (a, a), (a, b)]))
        if rng.random() < 0.5:
            tails[r.id] = rng.choice([F(0), rational(rng, 0, 3)])
    for v in rng.sample(g.vertices, rng.randint(0, len(g.vertices))):
        for eid, c in g.vertex_representations(v):
            intervals.setdefault(eid, []).append((c, c))
    if not intervals and not tails:
        eid, c = g.vertex_representations(g.vertices[0])[0]
        intervals[eid] = [(c, c)]
    return intervals, tails


def _ref_vertices(g, A):
    """Reference: the vertices some representation of which lies in a piece of A."""
    def holds(eid, c):
        ep = A.by_element.get(eid)
        return ep is not None and (
            any(a <= c <= b for a, b in ep.intervals) or (ep.tail is not None and c >= ep.tail)
        )

    return {v for v in g.vertices if any(holds(*rep) for rep in g.vertex_representations(v))}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_component_count_matches_reference_on_random_graphs(seed):
    rng = random.Random(seed)
    g = random_ray_graph(rng)
    for _ in range(12):
        A = ClosedSubset.from_pieces(g, *_raw_subset_near_vertices(g, rng))
        assert A.vertices == _ref_vertices(g, A), A
        assert component_count(g, A) == _ref_component_count(g, A), A
    for A in (whole_space(g), canonical_element(g, frozenset())):
        assert component_count(g, A) == _ref_component_count(g, A) == 1


# ---- reading set literals ------------------------------------------------
#
# parse_set reads coordinates in graph.DIGIT_FORM off one pattern's ints and
# every other token through parse_fraction.  Both must give Fraction(tok)'s
# value, refuse what it refuses with the same message, and hand _canonicalize
# what from_pieces would.

_READ_AS_FRACTION = {  # token -> whether it is in the digit form
    "2/4": True, "007": True, "003/08": True, "0/5": True, "-0": True, "-0/3": True,
    "0.75": False, "+1/2": False, "1_0/20": False, "٣/4": False,
}
_REFUSED = ["1/0", "1/00", "1e3", "", "1//2",
            "1" * 4301, "1/" + "1" * 4301]  # one past int's default digit limit
_SHAPES = ["R1:{{{}}}", "R1:[{},inf)", "R1:[0,{}]"]


@pytest.mark.parametrize("tok, digits", _READ_AS_FRACTION.items())
def test_both_rational_readers_give_fractions_value(graphs, tok, digits):
    g, want = graphs["G_R"], F(tok)
    assert (re.fullmatch(DIGIT_FORM, tok) is not None) == digits
    assert parse_fraction(tok, "nowhere") == want
    for text, ivs, tails in [(f"R1:{{{tok}}}", [(want, want)], {}),
                             (f"R1:[{tok},{tok}] R1:[{tok},9]", [(want, want), (want, 9)], {}),
                             (f"R1:[{tok},inf)", [], {"R1": want})]:
        A = parse_set(text, g)
        R = ClosedSubset.from_pieces(g, {"R1": ivs} if ivs else {}, tails)
        assert (A.ends, A.scale) == (R.ends, R.scale), text


@pytest.mark.parametrize("shape", _SHAPES)
@pytest.mark.parametrize("tok", _REFUSED, ids=lambda tok: tok[:8] or "empty")
def test_refused_rationals_keep_their_error_in_the_library_and_the_cli(
        graphs, tmp_path, capsys, tok, shape):
    atom = shape.format(tok)
    msg = f"bad rational {tok!r} (at atom 1 ({atom!r}))"
    with pytest.raises(ParseError) as exc:
        parse_set(atom, graphs["G_R"])
    assert str(exc.value) == msg
    with pytest.raises(ParseError, match="bad rational"):
        parse_fraction(tok, "nowhere")
    gf = tmp_path / "g.graph"
    gf.write_text("vertex v\nray R1 v\n")
    assert run(["dist", "--graph", str(gf), "--a", atom, "--b", "R1:{0}"]) == 2
    assert capsys.readouterr().err.splitlines() == [f'error kind=parse msg="{msg}"']


def test_parse_set_refuses_in_order(graphs):
    # the atoms first, one by one, then the graph, then the elements
    with pytest.raises(ParseError, match=r"^atom must look like .* \(at atom 1 \('garbage'\)\)$"):
        parse_set("garbage", 5)
    with pytest.raises(ParseError, match="^expected a RayGraph, got int$"):
        parse_set("E1:[0,1]", 5)
    with pytest.raises(ParseError, match="^unknown element id ''$"):
        parse_set(":[0,1]", graphs["G_R"])
    with pytest.raises(ParseError) as exc:
        parse_set("R1:[0,1]]", graphs["G_R"])
    assert str(exc.value) == "bad rational '1]' (at atom 1 ('R1:[0,1]]'))"
    with pytest.raises(ParseError, match=r"a > b\) in 'R1:\[2,1\]' \(at atom 2"):
        parse_set("R1:[0,1] R1:[2,1] junk", graphs["G_R"])
    with pytest.raises(ParseError, match=r"^negative coordinate -1/2 \(at atom 1"):
        parse_set("R1:[-1/2,inf) junk", graphs["G_R"])


def _spell(x: F, rng: random.Random) -> str:
    """A token that Fraction reads as x: a digit form, unreduced or zero-padded, or not."""
    k, pad = rng.choice((1, 1, 2, 3)), "0" * rng.randint(0, 2)
    num, den = x.numerator * k, x.denominator * k
    forms = [f"{num}/{den}", f"{pad}{num}/{pad}{den}", f"+{num}/{den}", f"{num}_0/{den}0"]
    if x.denominator == 1:
        forms += [f"{pad}{x.numerator}", f"-{x.numerator}" if x == 0 else str(x)]
    if 10**6 % x.denominator == 0:  # a finite decimal
        forms.append(format(Decimal(x.numerator) / Decimal(x.denominator), "f"))
    return rng.choice(forms)


def _random_literal(g, rng: random.Random) -> tuple[str, dict, dict]:
    """A valid set literal on g, and the from_pieces data its tokens stand for: repeated
    elements, touching and overlapping intervals, points at vertices, repeated tails."""
    elements = [(e.id, e.length) for e in g.edges] + [(r.id, None) for r in g.rays]
    atoms, intervals, tails = [], {}, {}
    for _ in range(rng.randint(1, 7)):
        eid, length = rng.choice(elements)
        top = length if length is not None else F(4)
        a, b = sorted((rational(rng, 0, top, (1, 2, 3, 4, 5, 8, 10)), rational(rng, 0, top)))
        if rng.random() < 0.3 and intervals.get(eid):
            a = intervals[eid][-1][1]  # touching the last interval on eid, or inside it
            b = max(a, b)
        kind = rng.choice(("interval", "point", "vertex") + ("tail",) * (length is None))
        if kind == "vertex":
            a = b = rng.choice((F(0), length or F(0)))
        if kind == "tail":
            atoms.append(f"{eid}:[{_spell(a, rng)},inf)")
            tails[eid] = min(a, tails.get(eid, a))
        elif kind == "interval" and a < b:
            atoms.append(f"{eid}:[{_spell(a, rng)},{_spell(b, rng)}]")
            intervals.setdefault(eid, []).append((a, b))
        else:
            atoms.append(f"{eid}:{{{_spell(a, rng)}}}")
            intervals.setdefault(eid, []).append((a, a))
    return " ".join(atoms), intervals, tails


def test_parse_set_matches_from_pieces_on_random_literals(graphs):
    rng = random.Random(7)
    draws = [*graphs.values(), *(random_ray_graph(random.Random(s)) for s in range(240))]
    for g in draws:
        for _ in range(4):
            text, intervals, tails = _random_literal(g, rng)
            A = parse_set(text, g)
            R = ClosedSubset.from_pieces(g, intervals, tails)
            assert (A.ends, A.scale) == (R.ends, R.scale), text
            assert ints_only(A), text
