"""The package's immutable records: constructor, immutability, equality,
hash, repr and the validation each one does."""

import copy
import pickle
from fractions import Fraction

import pytest

from vpgbend.constructors import HamiltonianDecomposition, SquareRegionLayout
from vpgbend.errors import ConstructionError, GeometryError, ParameterError, ValidationError
from vpgbend.geometry import PathIntersections, Point, Segment
from vpgbend.graphs import SplitPartition
from vpgbend.lowerbound import CountingReport, GoodKSet, InducedGrid
from vpgbend.oracle import GridSearchBudget
from vpgbend.posets import LinearOrder, Poset, Realizer
from vpgbend.representation import PropernessReport, RealizationReport

P, Q = Point(0, 0), Point(2, 0)
SEG = Segment(P, Q)

# (class, field names, field values, repr)
RECORDS = [
    (Point, ("x", "y"), (Fraction(1), Fraction(1, 2)),
     "Point(x=Fraction(1, 1), y=Fraction(1, 2))"),
    (Segment, ("a", "b"), (P, Q),
     "Segment(a=Point(x=Fraction(0, 1), y=Fraction(0, 1)), b=Point(x=Fraction(2, 1), y=Fraction(0, 1)))"),
    (PathIntersections, ("points", "overlaps"), ((P,), (SEG,)),
     "PathIntersections(points=(Point(x=Fraction(0, 1), y=Fraction(0, 1)),), overlaps=("
     "Segment(a=Point(x=Fraction(0, 1), y=Fraction(0, 1)), b=Point(x=Fraction(2, 1), y=Fraction(0, 1))),))"),
    (SplitPartition, ("clique", "independent"), ((1, 2), ((1, 2),)),
     "SplitPartition(clique=(1, 2), independent=((1, 2),))"),
    (RealizationReport, ("ok", "missing_edges", "spurious_edges"), (False, (("a", "b"),), ()),
     "RealizationReport(ok=False, missing_edges=(('a', 'b'),), spurious_edges=())"),
    (PropernessReport, ("ok", "violations"), (True, ()),
     "PropernessReport(ok=True, violations=())"),
    (HamiltonianDecomposition, ("vertex_count", "cycles"), (5, ((1, 2, 3, 4, 5), (1, 3, 5, 2, 4))),
     "HamiltonianDecomposition(vertex_count=5, cycles=((1, 2, 3, 4, 5), (1, 3, 5, 2, 4)))"),
    (SquareRegionLayout, ("index", "origin", "vertical_labels", "horizontal_labels"),
     (0, (Fraction(0), Fraction(3)), (1, 2, 1), (2, 1, 2)),
     "SquareRegionLayout(index=0, origin=(Fraction(0, 1), Fraction(3, 1)), "
     "vertical_labels=(1, 2, 1), horizontal_labels=(2, 1, 2))"),
    (InducedGrid, ("x_lines", "y_lines"), ((Fraction(0), Fraction(1, 2)), (Fraction(1),)),
     "InducedGrid(x_lines=(Fraction(0, 1), Fraction(1, 2)), y_lines=(Fraction(1, 1),))"),
    (GoodKSet, ("members", "orientation", "witness"), ((1, 2), "horizontal", SEG),
     "GoodKSet(members=(1, 2), orientation='horizontal', witness=Segment(a=Point(x=Fraction(0, 1), "
     "y=Fraction(0, 1)), b=Point(x=Fraction(2, 1), y=Fraction(0, 1))))"),
    (CountingReport, ("observation_bound", "factorial_split", "simplified_growth", "claim_chain"),
     (True, None, False, True),
     "CountingReport(observation_bound=True, factorial_split=None, simplified_growth=False, "
     "claim_chain=True)"),
    (GridSearchBudget, ("grid_width", "grid_height", "max_bends", "node_limit"), (4, 3, 1, 100),
     "GridSearchBudget(grid_width=4, grid_height=3, max_bends=1, node_limit=100)"),
    (Poset, ("ground", "less"), (("a", "b"), frozenset({("a", "b")})),
     "Poset(ground=('a', 'b'), less=frozenset({('a', 'b')}))"),
    (LinearOrder, ("sequence",), (("b", "a"),), "LinearOrder(sequence=('b', 'a'))"),
    (Realizer, ("orders",), ((LinearOrder(("a", "b")),),),
     "Realizer(orders=(LinearOrder(sequence=('a', 'b')),))"),
]


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=lambda v: getattr(v, "__name__", ""))
def test_record_behaviour(cls, names, values, text):
    rec = cls(*values)
    assert tuple(getattr(rec, name) for name in names) == values
    assert cls(**dict(zip(names, values))) == rec
    assert repr(rec) == text
    # equal by type and field values, and hashed as the tuple of the values
    twin = cls(*values)
    assert twin == rec and not twin != rec and twin is not rec
    assert hash(twin) == hash(rec) == hash(values)
    assert rec != values and rec.__eq__(object()) is NotImplemented
    assert len({rec, twin}) == 1
    assert copy.copy(rec) == copy.deepcopy(rec) == pickle.loads(pickle.dumps(rec)) == rec
    for name in names + ("extra",):
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
    with pytest.raises(AttributeError):
        delattr(rec, names[0])
    assert tuple(getattr(rec, name) for name in names) == values


def test_records_of_other_types_with_equal_values_differ():
    assert SplitPartition((1,), (2,)) != InducedGrid((1,), (2,))
    assert Point(1, 2) != Point(2, 1)
    assert GoodKSet((1,), "vertical", SEG) != GoodKSet((1,), "horizontal", SEG)


def test_point_converts_coordinates_and_refuses_floats():
    assert Point("7/2", -1) == Point(Fraction(7, 2), Fraction(-1))
    assert type(Point(1, 2).x) is Fraction
    with pytest.raises(GeometryError, match=r"^not an exact coordinate: 0\.5 \(floats are not allowed\)$"):
        Point(0.5, 0)


def test_point_orders_by_x_then_y():
    pts = [Point(1, 2), Point(0, 5), Point(1, -1), Point(0, 5)]
    assert sorted(pts) == [Point(0, 5), Point(0, 5), Point(1, -1), Point(1, 2)]
    a, b = Point(0, 5), Point(1, -1)
    assert (a < b, a <= b, a > b, a >= b) == (True, True, False, False)
    assert (a <= Point(0, 5), a >= Point(0, 5), a < Point(0, 5)) == (True, True, False)
    assert max(a, b) is b and min(a, b) is a
    with pytest.raises(TypeError):
        a < (1, 2)


def test_segment_stores_its_endpoints_in_increasing_order():
    for s in (Segment(Q, P), Segment(a=Q, b=P), Segment(P, Q)):
        assert (s.a, s.b) == (P, Q)
    up = Segment(Point(1, 3), Point(1, -1))
    assert (up.a, up.b, up.orientation) == (Point(1, -1), Point(1, 3), "vertical")
    assert Segment(Q, P) == SEG and hash(Segment(Q, P)) == hash(SEG)


def test_segment_refuses_zero_length_and_diagonals():
    with pytest.raises(GeometryError, match="^zero-length segment$"):
        Segment(P, Point(0, 0))
    with pytest.raises(GeometryError, match=r"^segment \(0,0\)-\(1,1\) is not axis-parallel$"):
        Segment(P, Point(1, 1))


@pytest.mark.parametrize("args, message", [
    ((0, 3, 1, 10), "grid dimensions and node limit must be positive"),
    ((3, 0, 1, 10), "grid dimensions and node limit must be positive"),
    ((3, 3, 1, 0), "grid dimensions and node limit must be positive"),
    ((257, 256, 1, 10), "grid 257x256 has more than 65536 lattice points"),
    ((3, 3, -1, 10), "max_bends must be nonnegative"),
])
def test_grid_search_budget_refusals(args, message):
    with pytest.raises(ParameterError) as info:
        GridSearchBudget(*args)
    assert str(info.value) == message
    GridSearchBudget(256, 256, 0, 1)  # the largest grid is accepted


def test_square_region_layout_needs_closed_label_sequences():
    with pytest.raises(ConstructionError, match="^leftmost/rightmost vertical labels differ$"):
        SquareRegionLayout(0, (0, 0), (1, 2), (1, 1))
    with pytest.raises(ConstructionError, match="^topmost/bottommost horizontal labels differ$"):
        SquareRegionLayout(0, (0, 0), (1, 1), (1, 2))


@pytest.mark.parametrize("ground, less, message", [
    (("a", "a"), frozenset(), "duplicate ground elements"),
    (("a",), frozenset({("a", "z")}), "relation uses unknown element in ('a','z')"),
    (("a",), frozenset({("a", "a")}), "reflexive pair ('a','a')"),
    (("a", "b"), frozenset({("a", "b"), ("b", "a")}), "antisymmetry violated on ('a','b')"),
    (("a", "b", "c"), frozenset({("a", "b"), ("b", "c")}), "transitivity violated: 'a'<'b'<'c'"),
])
def test_poset_validation(ground, less, message):
    with pytest.raises(ValidationError) as info:
        Poset(ground, less)
    assert str(info.value) == message


def test_linear_order_and_realizer_validation():
    with pytest.raises(ValidationError, match="^linear order repeats an element$"):
        LinearOrder(("a", "b", "a"))
    with pytest.raises(ValidationError, match="^a realizer needs at least one linear order$"):
        Realizer(())
    assert Realizer(orders=(LinearOrder(sequence=("a",)),)).orders[0].sequence == ("a",)
