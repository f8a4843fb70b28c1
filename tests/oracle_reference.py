"""Reference grid oracles, kept only to test the lattice-mask oracle
`vpgbend.oracle` against.

`grid_paths` and `search_representation` are the original search: each
candidate path is built from `Point`/`Segment` objects, checked for
simplicity by `segment_intersection`, and compared with every placed path
through `path_intersections`.  It is slow but shares no geometry with the
mask search.

`lazy_grid_paths` and `LazySearch` are the lattice-mask enumerator and lazy
search as they were before the enumerator took over the keep test and the
node count: the enumerator yields every candidate, building each segment's
bits with a sort and a division, and the search counts and tests each one.
They pin the outcome, node count and witness of `vpgbend.oracle._LazySearch`.

`columns` is the table search's bit transpose as a loop over every set bit of
every mask, kept to test the bulk transpose `vpgbend.oracle._columns`
against, and `corner_bits` builds a path's corner mask from its corners, to
test the corner masks that `vpgbend.oracle._grid_paths` carries.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from vpgbend.geometry import Point, RectPath, Segment, path_intersections, segment_intersection
from vpgbend.graphs import Graph
from vpgbend.oracle import Corner, GridSearchBudget, _Search
from vpgbend.representation import VpgRepresentation, is_proper, verify_realizes


class _BudgetExhausted(Exception):
    pass


def corner_bits(corners: Sequence[Corner], row: int) -> int:
    """The lattice bits of a path's corners on a grid whose doubled rows are
    `row` bits long."""
    mask = 0
    for x, y in corners:
        mask |= 1 << 2 * (y * row + x)
    return mask


def columns(masks: Sequence[int], width: int) -> List[int]:
    """For each bit b < width, the int whose bit i is bit b of masks[i]."""
    out = [0] * width
    for i, mask in enumerate(masks):
        index = 1 << i
        while mask:
            low = mask & -mask
            out[low.bit_length() - 1] |= index
            mask ^= low
    return out


def grid_paths(budget: GridSearchBudget) -> Iterator[RectPath]:
    """All simple rectilinear paths with corners on the grid, each geometric
    path exactly once (canonical corner order), in a fixed enumeration order."""
    w, h, max_segments = budget.grid_width, budget.grid_height, budget.max_bends + 1

    def extend(corners: List[Point], segs: List[Segment], horizontal_next: bool):
        last = corners[-1]
        rng = range(w) if horizontal_next else range(h)
        for c in rng:
            nxt = Point(c, last.y) if horizontal_next else Point(last.x, c)
            if nxt == last:
                continue
            new_seg = Segment(last, nxt)
            ok = True
            for old in segs[:-1]:
                pt, ov = segment_intersection(new_seg, old)
                if pt is not None or ov is not None:
                    ok = False
                    break
            if not ok:
                continue
            corners.append(nxt)
            segs.append(new_seg)
            if corners[0] <= corners[-1]:
                yield RectPath(list(corners))
            if len(segs) < max_segments:
                yield from extend(corners, segs, not horizontal_next)
            corners.pop()
            segs.pop()

    for y in range(h):
        for x in range(w):
            start = Point(x, y)
            for horizontal_first in (True, False):
                yield from extend([start], [], horizontal_first)


def search_representation(
    g: Graph, budget: GridSearchBudget, require_proper: bool = False
) -> Optional[VpgRepresentation]:
    """A verified representation of `g` within the budget, else None."""
    order = sorted(g.vertices, key=lambda v: (-g.degree(v), g.index(v)))
    placed: Dict = {}
    nodes = 0

    def place(idx: int) -> Optional[VpgRepresentation]:
        nonlocal nodes
        if idx == len(order):
            assignment = {v: placed[v] for v in g.vertices}
            rep = VpgRepresentation(assignment)
            if verify_realizes(rep, g).ok and (not require_proper or is_proper(rep).ok):
                return rep
            return None
        v = order[idx]
        for path in grid_paths(budget):
            nodes += 1
            if nodes > budget.node_limit:
                raise _BudgetExhausted
            ok = True
            for u, pu in placed.items():
                inter = path_intersections(path, pu)
                if bool(inter) != g.has_edge(u, v):
                    ok = False
                    break
                if require_proper and inter.overlaps:
                    ok = False
                    break
            if not ok:
                continue
            placed[v] = path
            result = place(idx + 1)
            if result is not None:
                return result
            del placed[v]
        return None

    try:
        return place(0)
    except _BudgetExhausted:
        return None


def lazy_grid_paths(budget: GridSearchBudget) -> Iterator[Tuple[Tuple[Corner, ...], int]]:
    """All simple rectilinear paths with corners on the grid, each geometric
    path exactly once (canonical corner order), in a fixed enumeration order,
    as (corners, lattice mask).  The depth-first search keeps its own stack,
    so a path may have more segments than Python's recursion limit."""
    w, h, max_segments = budget.grid_width, budget.grid_height, budget.max_bends + 1
    row = 2 * w - 1
    for y, x, horizontal_first in product(range(h), range(w), (True, False)):
        corners = [(x, y)]
        # one frame per segment being chosen: the path's mask before it, the
        # segment's axis and the end coordinates not yet tried
        stack = [(0, horizontal_first, iter(range(w if horizontal_first else h)))]
        while stack:
            mask, horizontal, ends = stack[-1]
            cx, cy = corners[-1]
            start = 2 * cy * row + 2 * cx
            before = mask & ~(1 << start)  # the new segment may meet the path only at its start
            at, stride = (cx, 1) if horizontal else (cy, row)
            for c in ends:
                if c == at:
                    continue
                lo, hi = sorted((start, start + 2 * (c - at) * stride))
                # bits lo, lo + stride, ..., hi
                seg = ((1 << (hi - lo + stride)) - 1) // ((1 << stride) - 1) << lo
                if seg & before:
                    continue
                corners.append((c, cy) if horizontal else (cx, c))
                if corners[0] <= corners[-1]:
                    yield tuple(corners), mask | seg
                if len(corners) <= max_segments:
                    stack.append((mask | seg, not horizontal, iter(range(h if horizontal else w))))
                    break
                corners.pop()
            else:
                # the frame is done, and so is the corner that opened it
                stack.pop()
                corners.pop()


class LazySearch(_Search):
    """Vertices in the fixed order; candidates enumerated lazily at every
    depth, each kept iff it can join the placed paths."""

    def __init__(self, g: Graph, budget: GridSearchBudget, require_proper: bool):
        super().__init__(g, budget, require_proper)
        self.adjacent = [[g.has_edge(u, v) for u in self.order[:i]] for i, v in enumerate(self.order)]
        self.odd_bits = (int("10" * self.row * (2 * budget.grid_height - 1), 2)
                         if require_proper else 0)
        self.placed: List[Tuple[Tuple[Corner, ...], int]] = []

    def start(self) -> Optional[VpgRepresentation]:
        return self.place(0, 0, 0, 0)

    def place(self, idx: int, union: int, ends_union: int, met: int) -> Optional[VpgRepresentation]:
        # the masks of every placed path, of their corners and of the points
        # two of them share (all three are kept only under require_proper)
        if idx == len(self.order):
            return self.verified([corners for corners, _ in self.placed])
        apart, neighbours = 0, []
        for (_, other), adj in zip(self.placed, self.adjacent[idx]):
            if adj:
                neighbours.append(other)
            else:
                apart |= other
        # a candidate must miss every placed non-neighbour and, to stay
        # proper, overlap no placed path, meet none at a corner of either and
        # miss every point already on two paths
        forbid = apart | (union & self.odd_bits) | ends_union | met
        for corners, mask in lazy_grid_paths(self.budget):
            self.take()
            if mask & forbid or not all(mask & other for other in neighbours):
                continue
            if self.require_proper:
                ends = corner_bits(corners, self.row)
                if ends & union:
                    continue
                down = (union | mask, ends_union | ends, met | mask & union)
            else:
                down = (0, 0, 0)
            self.placed.append((corners, mask))
            result = self.place(idx + 1, *down)
            if result is not None:
                return result
            self.placed.pop()
        return None
