"""Pairwise reference checkers, kept only to test the sweep-line core against.

This is the straightforward form of `intersection_graph` and `is_proper`:
every pair of labels whose bounding boxes meet is intersected with
`geometry.path_intersections`, and each isolated point is tested with
`geometry.transversal_at`.  It is quadratic in the number of paths but shares
no code with the rank-compressed sweep in `vpgbend.representation`.
"""

from typing import Dict, List

from vpgbend.geometry import Point, RectPath, path_intersections, transversal_at
from vpgbend.graphs import Graph, label_str
from vpgbend.representation import PropernessReport, VpgRepresentation


def _bbox(path: RectPath):
    xs = [c.x for c in path.corners]
    ys = [c.y for c in path.corners]
    return min(xs), min(ys), max(xs), max(ys)


def _bbox_disjoint(b1, b2) -> bool:
    return b1[2] < b2[0] or b2[2] < b1[0] or b1[3] < b2[1] or b2[3] < b1[1]


def pairwise_intersections(rep: VpgRepresentation):
    """Yield (u, v, PathIntersections) for label pairs with nonempty bbox overlap."""
    labels = rep.labels()
    boxes = {l: _bbox(rep.path(l)) for l in labels}
    for i, u in enumerate(labels):
        for v in labels[i + 1 :]:
            if _bbox_disjoint(boxes[u], boxes[v]):
                continue
            inter = path_intersections(rep.path(u), rep.path(v))
            if inter:
                yield u, v, inter


def intersection_graph(rep: VpgRepresentation) -> Graph:
    g = Graph(rep.labels())
    for u, v, _ in pairwise_intersections(rep):
        g.add_edge(u, v)
    return g


def is_proper(rep: VpgRepresentation) -> PropernessReport:
    violations: List[str] = []
    point_owners: Dict[Point, set] = {}
    for u, v, inter in pairwise_intersections(rep):
        su, sv = label_str(u), label_str(v)
        for ov in inter.overlaps:
            violations.append(f"overlap between {su} and {sv} along {ov}")
        for pt in inter.points:
            point_owners.setdefault(pt, set()).update((u, v))
            if not transversal_at(rep.path(u), rep.path(v), pt):
                violations.append(f"non-crossing touch of {su} and {sv} at {pt}")
    for pt, owners in sorted(point_owners.items(), key=lambda kv: kv[0]):
        if len(owners) > 2:
            names = ",".join(sorted(label_str(o) for o in owners))
            violations.append(f"point {pt} lies on {len(owners)} paths ({names})")
    return PropernessReport(ok=not violations, violations=tuple(sorted(violations)))
