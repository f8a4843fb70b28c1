"""`RectPath` validation and corner ranking on common-denominator ints against
the `Fraction` forms in `path_reference`.

Corner walks of 2-8 corners on a 5x5 grid mix axis moves, repeated corners
and jumps, so straight continuations, backtracking, diagonals, self-touches,
self-overlaps and closed loops all occur.  Scaled and shifted copies give
mixed denominators, and some walks are passed as `Point`s.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import path_reference as reference
import vpgbend.geometry
from rep_strategies import representation, representations, scales, shifts
from vpgbend.constructors import construct_k3n_proper
from vpgbend.geometry import Point, RectPath, _ranked_corners, segment_tables
from vpgbend.representation import read_representation_text, write_representation_text

GRID = st.integers(min_value=0, max_value=4)


@st.composite
def corner_walks(draw):
    """2-8 corners, each a step from the last: mostly a turn onto the other
    axis, sometimes a step on the same axis (a straight continuation or a
    backtrack), a repeated corner, or a jump (a diagonal unless it shares an
    axis)."""
    x, y = draw(GRID), draw(GRID)
    corners = [(x, y)]
    horizontal = draw(st.booleans())
    for _ in range(draw(st.integers(min_value=1, max_value=7))):
        step = draw(st.sampled_from(("turn", "turn", "turn", "turn", "same", "repeat", "jump")))
        if step == "jump":
            x, y = draw(GRID), draw(GRID)
        elif step != "repeat":
            horizontal = horizontal != (step == "turn")
            if horizontal:
                x = draw(GRID.filter(lambda c, x=x: c != x))
            else:
                y = draw(GRID.filter(lambda c, y=y: c != y))
        corners.append((x, y))
    return corners


def _outcome(build, corners):
    """(corners, segments) of the built path, or the error's type and message."""
    try:
        result = build(corners)
    except Exception as exc:  # the error itself is part of what is compared
        return type(exc), str(exc)
    if isinstance(result, RectPath):
        return result.corners, result.segments()
    return result


@settings(max_examples=500, deadline=None)
@given(corner_walks(), scales, scales, shifts, shifts, st.booleans())
@example([(0, 0), (2, 0), (2, 2), (0, 2), (0, 0)], 1, 1, 0, 0, False)  # closed loop
@example([(0, 1), (3, 1), (3, 0), (1, 0), (1, 2)], 1, 1, 0, 0, False)  # self-crossing
@example([(0, 0), (2, 0), (2, 1), (1, 1), (1, 0)], 1, 1, 0, 0, False)  # self-touch
@example([(0, 0), (3, 0), (3, 1), (1, 1), (1, 0), (2, 0)], 1, 1, 0, 0, True)  # overlap
@example([(0, 0), (1, 0), (1, 0), (3, 0), (3, 2), (3, 4)], 1, 1, 0, 0, True)  # merges
@example([(0, 0), (3, 0), (1, 0), (1, 2)], 1, 1, 0, 0, False)  # backtracking
def test_path_validation_matches_reference(walk, sx, sy, dx, dy, as_points):
    corners = [(x * sx + dx, y * sy + dy) for x, y in walk]
    if as_points:
        corners = [Point(x, y) for x, y in corners]
    assert _outcome(RectPath, corners) == _outcome(reference.validated, corners)


def _assert_same_ranks(paths):
    xs, ys, ranked = reference.ranked_corners(paths)
    assert _ranked_corners(paths) == (xs, ys, ranked)
    assert segment_tables(paths)[:2] == (xs, ys)


@settings(max_examples=300, deadline=None)
@given(representations, scales, shifts)
def test_ranks_match_reference(paths, scale, shift):
    _assert_same_ranks(list(representation(paths, lambda c: c * scale + shift).assignment.values()))


@pytest.mark.parametrize("n", [4, 7, 10])
def test_ranks_match_reference_on_k3n(k3n_reps, n):
    _assert_same_ranks(list(k3n_reps[n].assignment.values()))


def test_building_paths_tests_no_fraction_segment_pairs(monkeypatch):
    # simplicity is decided by the int contact sweep, not pair by pair
    calls = []
    real = vpgbend.geometry.segment_intersection

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(vpgbend.geometry, "segment_intersection", counted)
    text = write_representation_text(construct_k3n_proper(6))
    read_representation_text(text)
    assert calls == []
