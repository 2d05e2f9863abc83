"""``record``, the decorator behind the package's value classes.

Records are frozen, equal and hashed by their fields within one class, built
by position or keyword with the same refusals as a generated ``__init__``,
and keep the reprs they had as frozen dataclasses.
"""

import importlib
import inspect
import pickle
from fractions import Fraction as F
from functools import cached_property

import pytest

from rayspace import ClosedSubset, GraphPoint, RayGraph
from rayspace._record import record
from rayspace.graph import Edge, Ray
from rayspace.paths import Motion
from rayspace.sets import ElementPieces
from rayspace.vietoris import WitnessResult


@record
class Pair:
    element: str
    coord: F


@record
class Counted:
    n: int
    tag: str = "x"

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("negative")

    @cached_property
    def double(self) -> int:
        return 2 * self.n


@record
class Tagged(Counted):
    extra: bool = False


def test_fields_are_frozen():
    p = GraphPoint("E1", F(1, 2))
    with pytest.raises(AttributeError):
        p.coord = F(1)
    with pytest.raises(AttributeError):
        del p.element
    with pytest.raises(AttributeError):
        p.other = 1
    assert p == GraphPoint("E1", F(1, 2))


def test_equality_holds_only_within_one_class():
    assert GraphPoint("E1", F(1)) == GraphPoint("E1", F(1))
    assert GraphPoint("E1", F(1)) != GraphPoint("E1", F(2))
    assert GraphPoint("E1", F(1)) != Pair("E1", F(1))
    assert GraphPoint("E1", F(1)) != ("E1", F(1))
    assert Ray("R1", "v") != ("R1", "v")
    assert Counted(1, "x") != Tagged(1, "x")


def test_equal_records_hash_equal():
    assert hash(GraphPoint("E1", F(1, 2))) == hash(GraphPoint("E1", F(2, 4)))
    assert hash(Edge("E1", "u", "v")) == hash(Edge(v="v", u="u", id="E1", length=F(1)))
    assert len({Counted(1), Counted(1, "x"), Counted(2)}) == 2


def test_arguments_are_bound_like_a_generated_init():
    assert Edge("E1", "u", "v") == Edge("E1", "u", v="v", length=F(1))
    assert Motion("E1", F(0), F(1)).stop == 1
    assert Tagged(3, extra=True) == Tagged(3, "x", True)
    with pytest.raises(TypeError):
        Ray("R1", "v", "w")  # too many
    with pytest.raises(TypeError):
        Ray("R1", attach="v", at="w")  # unknown
    with pytest.raises(TypeError):
        Ray("R1", "v", id="R2")  # duplicate
    with pytest.raises(TypeError):
        Ray("R1")  # missing
    with pytest.raises(TypeError):
        Ray(attach="v")  # missing, by keyword
    with pytest.raises(TypeError):
        Counted(tag="y")  # a default does not fill an earlier field


def test_an_own_init_takes_the_fields_in_order():
    # records built several times per evaluation define their own __init__;
    # repr, equality and __match_args__ still read the annotations
    own = {}
    for name in ("graph", "sets", "paths", "vietoris", "wedge", "oracle"):
        for cls in vars(importlib.import_module(f"rayspace.{name}")).values():
            if (isinstance(cls, type) and "__match_args__" in vars(cls)
                    and cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"):
                own[cls.__name__] = cls
    assert sorted(own) == ["ClosedSubset", "ElementPieces", "GraphPoint", "Motion", "Stage",
                           "_ScaledGraph"]
    for cls in own.values():
        assert tuple(inspect.signature(cls).parameters) == cls.__match_args__
    m = Motion(element="E1", a=F(0), b=None, stop=F(2))
    assert (m.start, m.stop) == (0, 2) and m == Motion("E1", F(0), None, F(0), F(2))
    assert ElementPieces(()).tail is None
    with pytest.raises(TypeError):
        GraphPoint("E1")


def test_post_init_runs_after_the_fields_are_set():
    with pytest.raises(ValueError):
        Counted(-1)
    with pytest.raises(ValueError):
        Tagged(n=-1, extra=True)


def test_match_args_list_the_fields_in_order():
    assert GraphPoint.__match_args__ == ("element", "coord")
    assert Motion.__match_args__ == ("element", "a", "b", "start", "stop")
    assert Tagged.__match_args__ == ("n", "tag", "extra")
    match Edge("E1", "u", "v"):
        case Edge(eid, u, v, length):
            assert (eid, u, v, length) == ("E1", "u", "v", 1)


def test_reprs_are_unchanged():
    assert repr(Edge("E1", "u", "v")) == "Edge(id='E1', u='u', v='v', length=Fraction(1, 1))"
    assert (repr(WitnessResult(True, delta=F(1, 4)))
            == "WitnessResult(ok=True, delta=Fraction(1, 4), failed_at=None)")
    assert (repr(RayGraph(("v",), (), (Ray("R1", "v"),)))
            == "RayGraph(vertices=('v',), edges=(), rays=(Ray(id='R1', attach='v'),))")
    assert repr(ElementPieces(((F(0), F(1)),))) == (
        "ElementPieces(intervals=((Fraction(0, 1), Fraction(1, 1)),), tail=None)")


def test_a_class_keeps_the_methods_it_defines():
    assert ClosedSubset.__eq__ is not Pair.__eq__
    assert "__repr__" in vars(ClosedSubset) and ClosedSubset.__repr__.__qualname__.startswith(
        "ClosedSubset.")
    assert ClosedSubset.__hash__.__qualname__ == "ClosedSubset.__hash__"
    assert str(WitnessResult(True, delta=F(1, 4))) == "delta=1/4"


def test_cached_properties_and_pickling_work():
    c = Counted(4)
    assert c.double == 8 and vars(c)["double"] == 8
    g = RayGraph(("v",), (), (Ray("R1", "v"),))
    for value in (c, Tagged(1, "y", True), g, Edge("E1", "u", "v", F(2, 3))):
        back = pickle.loads(pickle.dumps(value))
        assert back == value and type(back) is type(value)
