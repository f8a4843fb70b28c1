from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from direction_vectors import DOWN, LEFT, RIGHT, UP, direction_vector
from rep_strategies import grid_path, representation
from vpgbend.errors import GeometryError
from vpgbend.geometry import (
    Point,
    RectPath,
    Segment,
    bend_count,
    path_intersections,
    rational,
    segment_intersection,
    transversal_at,
)


def P(x, y):
    return Point(rational(x), rational(y))


def test_rational_rejects_floats():
    with pytest.raises(GeometryError):
        rational(0.5)


@pytest.mark.parametrize(
    "value, message",
    [
        (0.5, "not an exact coordinate: 0.5 (floats are not allowed)"),
        (None, "not an exact coordinate: None"),
        ([1], "not an exact coordinate: [1]"),
        (True, "not an exact coordinate: True"),
        ("1/0", "not an exact coordinate: '1/0'"),
    ],
)
def test_rational_names_floats_only_for_floats(value, message):
    with pytest.raises(GeometryError) as err:
        rational(value)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "corners", [[(1, 2, 3), (1, 5)], [5, 6], [(0, 0), (1,)], [(0, 0), None]]
)
def test_malformed_corner_is_a_geometry_error(corners):
    with pytest.raises(GeometryError, match="a corner needs two coordinates"):
        RectPath(corners)


def test_rational_parses_strings():
    assert rational("3/4") == Fraction(3, 4)
    assert rational(7) == Fraction(7)


def test_segment_normalizes_endpoint_order():
    s = Segment(P(5, 0), P(1, 0))
    assert s.a == P(1, 0) and s.b == P(5, 0)


def test_segment_rejects_diagonal_and_degenerate():
    with pytest.raises(GeometryError):
        Segment(P(0, 0), P(1, 1))
    with pytest.raises(GeometryError):
        Segment(P(2, 2), P(2, 2))


# --- bend_count -------------------------------------------------------------


def test_bend_count_single_segment():
    assert bend_count(RectPath([(0, 0), (1, 0)])) == 0


def test_bend_count_unit_stair():
    # 3-bend stair with direction vector <right, down, right, down>
    stair = RectPath([(0, 0), (1, 0), (1, -1), (2, -1), (2, -2)])
    assert bend_count(stair) == 3
    assert direction_vector(stair) == (RIGHT, DOWN, RIGHT, DOWN)


def test_bend_count_four_segments():
    p = RectPath([(0, 0), (0, 1), (2, 1), (2, 3), (5, 3)])
    assert bend_count(p) == 3


def test_bend_count_plus_two_is_corner_count():
    for corners in [
        [(0, 0), (4, 0)],
        [(0, 0), (1, 0), (1, -1)],
        [(0, 0), (1, 0), (1, 2), (3, 2), (3, 0), (9, 0)],
    ]:
        p = RectPath(corners)
        assert bend_count(p) + 2 == len(p.corners)


# --- construction invariants ------------------------------------------------


def test_collinear_continuation_is_merged():
    p = RectPath([(0, 0), (1, 0), (2, 0)])
    assert p.corners == (P(0, 0), P(2, 0))


def test_duplicate_corners_dropped():
    p = RectPath([(0, 0), (0, 0), (2, 0)])
    assert p.corners == (P(0, 0), P(2, 0))


def test_backtracking_rejected():
    with pytest.raises(GeometryError):
        RectPath([(0, 0), (3, 0), (1, 0)])


def test_diagonal_move_rejected():
    with pytest.raises(GeometryError):
        RectPath([(0, 0), (1, 1)])


def test_self_intersection_rejected():
    # spiral crossing its own first segment
    with pytest.raises(GeometryError):
        RectPath([(0, 0), (4, 0), (4, 2), (2, 2), (2, -1)])


def test_too_few_corners_rejected():
    with pytest.raises(GeometryError):
        RectPath([(0, 0)])


# --- direction vectors ------------------------------------------------------


def test_direction_vector_definition():
    assert direction_vector(RectPath([(0, 0), (1, 0), (1, -1)])) == (RIGHT, DOWN)


def test_direction_vector_reversal_flips_symbols():
    p = RectPath([(0, 0), (1, 0), (1, -1)])
    assert direction_vector(p.reversed()) == (UP, LEFT)


def test_direction_vector_alternates_axes():
    p = RectPath([(0, 0), (3, 0), (3, 5), (1, 5), (1, 9)])
    dv = direction_vector(p)
    horizontal = {RIGHT, LEFT}
    for a, b in zip(dv, dv[1:]):
        assert (a in horizontal) != (b in horizontal)


# --- intersections ----------------------------------------------------------


def test_perpendicular_crossing_point():
    p = RectPath([(0, 0), (2, 0)])
    q = RectPath([(1, -1), (1, 1)])
    inter = path_intersections(p, q)
    assert inter.points == (P(1, 0),)
    assert inter.overlaps == ()


def test_collinear_overlap():
    p = RectPath([(0, 0), (2, 0)])
    q = RectPath([(1, 0), (3, 0)])
    inter = path_intersections(p, q)
    assert inter.points == ()
    assert inter.overlaps == (Segment(P(1, 0), P(2, 0)),)


def test_disjoint_parallel():
    p = RectPath([(0, 0), (2, 0)])
    q = RectPath([(0, 1), (2, 1)])
    inter = path_intersections(p, q)
    assert not inter


def test_collinear_single_point_touch_is_isolated():
    p = RectPath([(0, 0), (2, 0)])
    q = RectPath([(2, 0), (4, 0)])
    inter = path_intersections(p, q)
    assert inter.points == (P(2, 0),)
    assert inter.overlaps == ()


def test_overlap_pieces_merge_to_maximal():
    # q's two horizontal runs both share y=0 with p; a bridge between them
    p = RectPath([(0, 0), (10, 0)])
    q = RectPath([(1, 0), (3, 0), (3, 1), (5, 1), (5, 0), (7, 0)])
    inter = path_intersections(p, q)
    assert inter.overlaps == (
        Segment(P(1, 0), P(3, 0)),
        Segment(P(5, 0), P(7, 0)),
    )
    assert inter.points == ()


def test_point_inside_overlap_not_duplicated():
    p = RectPath([(0, 0), (4, 0)])
    q = RectPath([(1, 0), (2, 0), (2, 3)])
    inter = path_intersections(p, q)
    assert inter.overlaps == (Segment(P(1, 0), P(2, 0)),)
    assert inter.points == ()


def test_symmetry_of_path_intersections():
    p = RectPath([(0, 0), (5, 0), (5, 5)])
    q = RectPath([(2, -2), (2, 2), (7, 2)])
    a, b = path_intersections(p, q), path_intersections(q, p)
    assert a.points == b.points and a.overlaps == b.overlaps


# --- crossing predicate -----------------------------------------------------


def test_crossing_at_interior_point():
    p = RectPath([(0, 0), (2, 0)])
    q = RectPath([(1, -1), (1, 1)])
    assert transversal_at(p, q, P(1, 0))


def test_endpoint_touch_is_not_crossing():
    p = RectPath([(0, 0), (2, 0)])
    q = RectPath([(2, -1), (2, 1)])
    assert not transversal_at(p, q, P(2, 0))


def test_t_touch_is_not_crossing():
    p = RectPath([(0, 0), (2, 0)])
    q = RectPath([(1, 1), (1, 0)])  # ends on p's interior
    assert not transversal_at(p, q, P(1, 0))


def test_crossing_at_corner_of_one_path_is_not_crossing():
    p = RectPath([(0, 0), (2, 0), (2, 2)])
    q = RectPath([(2, -1), (2, 0), (3, 0)])  # shares the corner point (2,0)
    inter = path_intersections(p, q)
    assert P(2, 0) in inter.points
    assert not transversal_at(p, q, P(2, 0))


# --- properties -------------------------------------------------------------

coord = st.integers(min_value=-6, max_value=6)


@given(coord, coord, coord, coord, coord, coord)
def test_translation_invariance(x1, y1, x2, y2, dx, dy):
    if x1 == x2 and y1 == y2:
        return
    p = RectPath([(0, 0), (4, 0), (4, 4)])
    try:
        q = RectPath([(x1, y1), (x2, y1), (x2, y2)])
    except GeometryError:
        return
    before = path_intersections(p, q)
    after = path_intersections(p.translated(dx, dy), q.translated(dx, dy))
    assert len(before.points) == len(after.points)
    assert len(before.overlaps) == len(after.overlaps)
    moved = tuple(sorted(pt.translated(dx, dy) for pt in before.points))
    assert moved == after.points
    for pt in before.points:
        same = transversal_at(p, q, pt) == transversal_at(
            p.translated(dx, dy), q.translated(dx, dy), pt.translated(dx, dy)
        )
        assert same


@given(st.lists(st.tuples(coord, coord), min_size=2, max_size=6))
def test_rectpath_invariants_whenever_constructible(pts):
    try:
        p = RectPath(pts)
    except GeometryError:
        return
    assert bend_count(p) + 2 == len(p.corners)
    dv = direction_vector(p)
    horizontal = {RIGHT, LEFT}
    for a, b in zip(dv, dv[1:]):
        assert (a in horizontal) != (b in horizontal)


def test_segment_intersection_perpendicular_miss():
    s = Segment(P(0, 0), P(1, 0))
    t = Segment(P(5, -1), P(5, 1))
    assert segment_intersection(s, t) == (None, None)


def test_segment_intersection_collinear_cases():
    s = Segment(P(0, 0), P(0, 2))
    assert segment_intersection(s, Segment(P(0, 3), P(0, 1))) == (None, Segment(P(0, 1), P(0, 2)))
    assert segment_intersection(s, Segment(P(0, 2), P(0, 5))) == (P(0, 2), None)
    assert segment_intersection(s, Segment(P(0, 3), P(0, 5))) == (None, None)
    assert segment_intersection(s, Segment(P(1, 0), P(1, 2))) == (None, None)
    h = Segment(P(0, 0), P(2, 0))
    assert segment_intersection(h, Segment(P(1, 1), P(3, 1))) == (None, None)
    assert segment_intersection(Segment(P(3, 0), P(1, 0)), h) == (None, Segment(P(1, 0), P(2, 0)))


@settings(max_examples=300, deadline=None)
@given(grid_path(max_segments=7), grid_path(max_segments=7))
@example([(0, 0), (5, 0)], [(1, 0), (2, 0), (2, 1), (3, 1), (3, 0), (4, 0)])
# the second path would meet its own first segment along [(1,0)-(2,0)]
@example([(0, 0), (5, 0)], [(0, 0), (2, 0), (2, 2), (4, 2), (4, 0), (1, 0)])
def test_collinear_pieces_of_simple_paths_share_no_point(a, b):
    # what lets path_intersections report each segment pair's overlap as it
    # is: pieces on one line from two segment pairs would put two collinear
    # segments of one path through a point, which RectPath rejects.  Ends are
    # ints, so two pieces on one axis that meet share a lattice point.
    rep = representation([a, b])
    pieces = {"horizontal": [], "vertical": []}
    for sp in rep.path(0).segments():
        for sq in rep.path(1).segments():
            pt, ov = segment_intersection(sp, sq)
            if sp.orientation == sq.orientation and (pt or ov):
                lo, hi = (pt, pt) if pt else (ov.a, ov.b)
                pieces[sp.orientation].append({(x, y) for x in range(int(lo.x), int(hi.x) + 1)
                                               for y in range(int(lo.y), int(hi.y) + 1)})
    for axis in pieces.values():
        assert sum(map(len, axis)) == len(set().union(*axis))


def test_rectpath_repr_lists_its_corners():
    assert repr(RectPath([(0, 0), (3, 0), (3, "1/2")])) == "RectPath(['(0,0)', '(3,0)', '(3,1/2)'])"
