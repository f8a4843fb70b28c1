"""Hypothesis strategies for random representations and random oracle
searches shared by the tests, and how an oracle search is compared.

Random representations live on a 6x6 integer grid, so collinear touches,
corner touches, overlaps and points on three or more paths are common;
`scales` and `shifts` map the grid onto Fraction coordinates.
"""

from fractions import Fraction
from itertools import combinations

from hypothesis import strategies as st

from vpgbend.errors import GeometryError
from vpgbend.geometry import RectPath
from vpgbend.graphs import Graph
from vpgbend.oracle import GridSearchBudget
from vpgbend.representation import VpgRepresentation, _contact_table

COORD = st.integers(min_value=0, max_value=5)


@st.composite
def grid_path(draw, coord=COORD, max_segments=4):
    """Corners of a path of 1 to `max_segments` segments with alternating axes
    on the grid of `coord` (the 6x6 grid by default)."""
    x, y = draw(coord), draw(coord)
    horizontal = draw(st.booleans())
    corners = [(x, y)]
    for _ in range(draw(st.integers(min_value=1, max_value=max_segments))):
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


def rank_table(paths):
    """The rank table of `paths` (`representation._contact_table`), whose
    path index i is paths[i]."""
    return _contact_table(VpgRepresentation(dict(enumerate(paths))))


scales = st.fractions(min_value=Fraction(1, 9), max_value=3, max_denominator=9)
shifts = st.fractions(min_value=-2, max_value=2, max_denominator=7)


@st.composite
def searches(draw, max_side=4, min_bends=0, max_bends=2):
    """(graph, budget, require_proper): a graph on at most 4 vertices and a
    grid of side at most `max_side` with `min_bends` to `max_bends` bends and
    at most 5,000 nodes."""
    n = draw(st.integers(1, 4))
    edges = [pr for pr in combinations(range(n), 2) if draw(st.booleans())]
    budget = GridSearchBudget(draw(st.integers(1, max_side)), draw(st.integers(1, max_side)),
                              draw(st.integers(min_bends, max_bends)), draw(st.integers(1, 5_000)))
    return Graph(range(n), edges), budget, draw(st.booleans())


def finished(search):
    """(outcome, node count, witness corners per vertex) of a search run to its end."""
    outcome, rep = search.outcome()
    corners = None if rep is None else [(v, [(c.x, c.y) for c in p.corners]) for v, p in rep.assignment.items()]
    return outcome, search.nodes, corners
