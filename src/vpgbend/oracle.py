"""Bounded-grid backtracking search for small representations.

The search assigns grid paths vertex by vertex (highest degree first), skips
every candidate that cannot join the placed paths in a representation of the
target graph (or, for a proper search, in a proper one), and re-verifies the
complete assignment with the real checkers before returning it.  A `None`
result means "not found within budget" and never implies non-realizability.

Paths with integer corners meet only at lattice points, so each candidate
path is one int: a mask on the grid's doubled lattice, where corner (x, y) is
bit 2y·(2w−1) + 2x and the odd bits between corners are unit edges.  Two paths
meet iff their masks share a bit, and overlap iff they share an odd bit.  A
proper representation is then one in which no two masks share an odd bit, no
bit lies on three masks, and no shared bit is a corner of either path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from .errors import ParameterError
from .geometry import RectPath
from .graphs import Graph
from .representation import VpgRepresentation, is_proper, verify_realizes

Corner = Tuple[int, int]


class _BudgetExhausted(Exception):
    pass


@dataclass(frozen=True)
class GridSearchBudget:
    grid_width: int
    grid_height: int
    max_bends: int
    node_limit: int

    def __post_init__(self):
        if self.grid_width < 1 or self.grid_height < 1 or self.node_limit < 1:
            raise ParameterError("grid dimensions and node limit must be positive")
        if self.max_bends < 0:
            raise ParameterError("max_bends must be nonnegative")


def _grid_paths(budget: GridSearchBudget) -> Iterator[Tuple[Tuple[Corner, ...], int]]:
    """All simple rectilinear paths with corners on the grid, each geometric
    path exactly once (canonical corner order), in a fixed enumeration order,
    as (corners, lattice mask)."""
    w, h, max_segments = budget.grid_width, budget.grid_height, budget.max_bends + 1
    row = 2 * w - 1

    def extend(corners: List[Corner], mask: int, horizontal_next: bool):
        x, y = corners[-1]
        start = 2 * y * row + 2 * x
        before = mask & ~(1 << start)  # the new segment may meet the path only at its start
        # along the segment's axis: grid size, current coordinate, bit stride
        size, at, stride = (w, x, 1) if horizontal_next else (h, y, row)
        for c in range(size):
            if c == at:
                continue
            lo, hi = sorted((start, start + 2 * (c - at) * stride))
            # bits lo, lo + stride, ..., hi
            seg = ((1 << (hi - lo + stride)) - 1) // ((1 << stride) - 1) << lo
            if seg & before:
                continue
            corners.append((c, y) if horizontal_next else (x, c))
            if corners[0] <= corners[-1]:
                yield tuple(corners), mask | seg
            if len(corners) <= max_segments:
                yield from extend(corners, mask | seg, not horizontal_next)
            corners.pop()

    for y in range(h):
        for x in range(w):
            for horizontal_first in (True, False):
                yield from extend([(x, y)], 0, horizontal_first)


def search_representation(
    g: Graph, budget: GridSearchBudget, require_proper: bool = False
) -> Optional[VpgRepresentation]:
    """A verified representation of `g` within the budget, else None."""
    order = sorted(g.vertices, key=lambda v: (-g.degree(v), g.index(v)))
    adjacent = [[g.has_edge(u, v) for u in order[:i]] for i, v in enumerate(order)]
    row = 2 * budget.grid_width - 1
    odd_bits = int("10" * row * (2 * budget.grid_height - 1), 2) if require_proper else 0
    placed: List[Tuple[Tuple[Corner, ...], int]] = []
    nodes = 0

    def place(idx: int, union: int, ends_union: int, met: int) -> Optional[VpgRepresentation]:
        # the masks of every placed path, of their corners and of the points
        # two of them share (all three are kept only under require_proper)
        nonlocal nodes
        if idx == len(order):
            # every pair passed the tests below, so this re-check runs once
            paths = {v: RectPath(corners) for v, (corners, _) in zip(order, placed)}
            rep = VpgRepresentation({v: paths[v] for v in g.vertices})
            if verify_realizes(rep, g).ok and (not require_proper or is_proper(rep).ok):
                return rep
            return None
        apart, neighbours = 0, []
        for (_, other), adj in zip(placed, adjacent[idx]):
            if adj:
                neighbours.append(other)
            else:
                apart |= other
        # a candidate must miss every placed non-neighbour and, to stay
        # proper, overlap no placed path, meet none at a corner of either and
        # miss every point already on two paths
        forbid = apart | (union & odd_bits) | ends_union | met
        for corners, mask in _grid_paths(budget):
            nodes += 1
            if nodes > budget.node_limit:
                raise _BudgetExhausted
            if mask & forbid or not all(mask & other for other in neighbours):
                continue
            if require_proper:
                ends = sum(1 << 2 * (y * row + x) for x, y in corners)
                if ends & union:
                    continue
                down = (union | mask, ends_union | ends, met | mask & union)
            else:
                down = (0, 0, 0)
            placed.append((corners, mask))
            result = place(idx + 1, *down)
            if result is not None:
                return result
            placed.pop()
        return None

    try:
        return place(0, 0, 0, 0)
    except _BudgetExhausted:
        return None
