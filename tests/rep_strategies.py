"""Hypothesis strategies for random representations shared by the
differential tests.

Random representations live on a 6x6 integer grid, so collinear touches,
corner touches, overlaps and points on three or more paths are common;
`scales` and `shifts` map the grid onto Fraction coordinates.
"""

from fractions import Fraction

from hypothesis import strategies as st

from vpgbend.errors import GeometryError
from vpgbend.geometry import RectPath
from vpgbend.representation import VpgRepresentation

COORD = st.integers(min_value=0, max_value=5)


@st.composite
def grid_path(draw, coord=COORD):
    """Corners of a 1-4 segment path with alternating axes on the grid of
    `coord` (the 6x6 grid by default)."""
    x, y = draw(coord), draw(coord)
    horizontal = draw(st.booleans())
    corners = [(x, y)]
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        if horizontal:
            x = draw(coord.filter(lambda c, x=x: c != x))
        else:
            y = draw(coord.filter(lambda c, y=y: c != y))
        corners.append((x, y))
        horizontal = not horizontal
    return corners


representations = st.lists(grid_path(), min_size=2, max_size=6)


def representation(paths, scale=lambda c: c):
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


scales = st.fractions(min_value=Fraction(1, 9), max_value=3, max_denominator=9)
shifts = st.fractions(min_value=-2, max_value=2, max_denominator=7)
