"""The Fraction-geometry grid oracle, kept only to test the lattice-mask
oracle `vpgbend.oracle` against.

`grid_paths` and `search_representation` are the original search: each
candidate path is built from `Point`/`Segment` objects, checked for
simplicity by `segment_intersection`, and compared with every placed path
through `path_intersections`.  It is slow but shares no geometry with the
mask search.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from vpgbend.geometry import Point, RectPath, Segment, path_intersections, segment_intersection
from vpgbend.graphs import Graph
from vpgbend.oracle import GridSearchBudget
from vpgbend.representation import VpgRepresentation, is_proper, verify_realizes


class _BudgetExhausted(Exception):
    pass


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
