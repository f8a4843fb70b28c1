"""The sweep-line checkers against the pairwise reference in `pairwise_reference`.

Random representations live on a 6x6 integer grid, so collinear touches,
corner touches, overlaps and points on three or more paths are common.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pairwise_reference as reference
from vpgbend.errors import GeometryError
from vpgbend.geometry import RectPath
from vpgbend.representation import VpgRepresentation, intersection_graph, is_proper

COORD = st.integers(min_value=0, max_value=5)


@st.composite
def grid_path(draw):
    """Corners of a 1-4 segment path with alternating axes on the 6x6 grid."""
    x, y = draw(COORD), draw(COORD)
    horizontal = draw(st.booleans())
    corners = [(x, y)]
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        if horizontal:
            x = draw(COORD.filter(lambda c, x=x: c != x))
        else:
            y = draw(COORD.filter(lambda c, y=y: c != y))
        corners.append((x, y))
        horizontal = not horizontal
    return corners


representations = st.lists(grid_path(), min_size=2, max_size=6)


def _rep(paths, scale=lambda c: c):
    """A representation of simple paths; a self-crossing path keeps its
    longest simple prefix (three segments never cross themselves)."""
    assignment = {}
    for label, corners in enumerate(paths):
        corners = [(scale(x), scale(y)) for x, y in corners]
        while True:
            try:
                assignment[label] = RectPath(corners)
                break
            except GeometryError:
                corners = corners[:-1]
    return VpgRepresentation(assignment)


def _assert_same(rep):
    assert intersection_graph(rep).edges() == reference.intersection_graph(rep).edges()
    assert is_proper(rep) == reference.is_proper(rep)


@settings(max_examples=600, deadline=None)
@given(representations)
def test_checkers_match_reference_on_small_grids(paths):
    _assert_same(_rep(paths))


@settings(max_examples=150, deadline=None)
@given(representations, st.fractions(min_value=Fraction(1, 9), max_value=3, max_denominator=9),
       st.fractions(min_value=-2, max_value=2, max_denominator=7))
def test_checkers_match_reference_on_fraction_coordinates(paths, scale, shift):
    _assert_same(_rep(paths, lambda c: c * scale + shift))


@pytest.mark.parametrize("n", range(4, 11))
def test_checkers_match_reference_on_k3n(k3n_reps, n):
    _assert_same(k3n_reps[n])


@pytest.mark.parametrize("nk", [(6, 3), (7, 4)])
def test_checkers_match_reference_on_staircases(gtm_reps, nk):
    _assert_same(gtm_reps[nk])
