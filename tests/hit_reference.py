"""Two clique-hit walks along an independent path, kept only to test the
single walk `vpgbend.representation.clique_hit_sequence` against, and the
exposure scan on `Segment`s that `vpgbend.constructors._exposures` replaced.

`hit_details` is the walk behind S_H/S_V and F_h/F_v, and `hit_sequence` the
one behind the recurring-leaf trim, each in its original form on `Fraction`
arc lengths (`arc_position`); the three consumers below are the original
`classify_sh_sv`, `build_auxiliary_fh_fv` and `trim_independent_path` on top
of them, the trim cutting its subpath by arc length (`subpath_between`).
`_contract_same_path_edges` is the original two-pass union-find behind
F'_h/F'_v, so the contraction is checked against code of its own.
"""

from fractions import Fraction
from operator import attrgetter
from typing import Dict, Sequence, Tuple

from vpgbend.errors import ConstructionError, DegenerateTrimError, DomainError
from vpgbend.geometry import (
    HORIZONTAL,
    VERTICAL,
    Point,
    RectPath,
    Segment,
    path_intersections,
    segment_intersection,
)
from vpgbend.graphs import Graph, label_str
from vpgbend.representation import is_proper, leaf_trim_window


def arc_position(path: RectPath, pt: Point) -> Fraction:
    """Arc length from the first corner to `pt` (which must lie on the path)."""
    total = Fraction(0)
    for seg, a, b in zip(path.segments(), path.corners, path.corners[1:]):
        if seg.contains(pt):
            return total + abs(pt.x - a.x) + abs(pt.y - a.y)
        total += seg.length
    raise DomainError(f"{pt} does not lie on the path")


def subpath_between(path: RectPath, start: Point, end: Point) -> RectPath:
    """Contiguous subpath of `path` from `start` to `end` (both on the path)."""
    s_pos, e_pos = arc_position(path, start), arc_position(path, end)
    if s_pos > e_pos:
        start, end, s_pos, e_pos = end, start, e_pos, s_pos
    if s_pos == e_pos:
        raise DomainError("degenerate subpath (start equals end)")
    corners = [start]
    total = Fraction(0)
    for seg, a, b in zip(path.segments(), path.corners, path.corners[1:]):
        nxt = total + seg.length
        if s_pos < nxt and total < e_pos:
            corners.append(b)
        total = nxt
    corners[-1] = end
    return RectPath(corners)


def hit_details(rep, b, clique_verts):
    """Ordered (clique label, orientation, segment index, point) hits of P(b).

    Overlap hits contribute with the orientation of the shared portion; point
    hits take the orientation of the unique clique-path segment whose interior
    contains the point (segment endpoints fall back to any containing segment).
    """
    pb = rep.path(b)
    out = []
    for a in clique_verts:
        if a == b:
            continue
        pa = rep.path(a)
        inter = path_intersections(pb, pa)
        segs = list(pa.segments())
        for pt in inter.points:
            owner = None
            for idx, seg in enumerate(segs):
                if seg.interior_contains(pt):
                    owner = (idx, seg.orientation)
                    break
            if owner is None:
                for idx, seg in enumerate(segs):
                    if seg.contains(pt):
                        owner = (idx, seg.orientation)
                        break
            out.append((arc_position(pb, pt), a, owner[1], owner[0], pt))
        for ov in inter.overlaps:
            for idx, seg in enumerate(segs):
                if segment_intersection(seg, ov)[1] is not None:
                    out.append((arc_position(pb, ov.a), a, seg.orientation, idx, ov.a))
                    break
    out.sort(key=lambda h: h[0])
    return [(a, ori, idx, pt) for _, a, ori, idx, pt in out]


def hit_sequence(rep, b, clique_verts):
    """Clique vertices hit by P(b), ordered by arc length along P(b).

    Requires all intersections with clique paths to be isolated points.
    """
    pb = rep.path(b)
    hits = []
    for a in clique_verts:
        if a == b:
            continue
        inter = path_intersections(pb, rep.path(a))
        if inter.overlaps:
            raise DomainError(f"path of {label_str(b)} overlaps clique path {label_str(a)}")
        for pt in inter.points:
            hits.append((arc_position(pb, pt), a, pt))
    hits.sort(key=lambda h: h[0])
    return [(a, pt) for _, a, pt in hits]


def classify_sh_sv(rep, clique_verts, indep_verts):
    clique_verts = list(clique_verts)
    s_h, s_v = [], []
    for b in indep_verts:
        details = hit_details(rep, b, clique_verts)
        nbrs = {a for a, _, _, _ in details}
        if len(nbrs) < 3:
            raise DomainError(f"independent vertex {label_str(b)} meets {len(nbrs)} clique paths")
        horiz = {a for a, ori, _, _ in details if ori == HORIZONTAL}
        vert = {a for a, ori, _, _ in details if ori == VERTICAL}
        if len(horiz) >= 2:
            s_h.append(b)
        if len(vert) >= 2:
            s_v.append(b)
    if set(s_h) | set(s_v) != set(indep_verts):
        raise ConstructionError("S_H and S_V fail to cover the independent set")
    return tuple(s_h), tuple(s_v)


def _contract_same_path_edges(f: Graph) -> Graph:
    parent: Dict = {v: v for v in f.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in f.edges():
        if u[1] == v[1]:  # same clique path owns both segments
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[rv] = ru
    reps = []
    seen = set()
    for v in f.vertices:
        r = find(v)
        if r not in seen:
            seen.add(r)
            reps.append(r)
    out = Graph(reps)
    for u, v in f.edges():
        ru, rv = find(u), find(v)
        if ru != rv:
            out.add_edge(ru, rv)
    return out


def build_auxiliary_fh_fv(rep, clique_verts, indep_verts):
    report = is_proper(rep)
    if not report.ok:
        raise DomainError("representation is not proper: " + "; ".join(report.violations[:3]))
    clique_verts = list(clique_verts)
    h_vertices, v_vertices = [], []
    for a in clique_verts:
        for idx, seg in enumerate(rep.path(a).segments()):
            if seg.orientation == HORIZONTAL:
                h_vertices.append(("h", a, idx))
            else:
                v_vertices.append(("v", a, idx))
    f_h = Graph(h_vertices)
    f_v = Graph(v_vertices)
    for b in indep_verts:
        details = hit_details(rep, b, clique_verts)
        lo, hi = leaf_trim_window([a for a, _, _, _ in details])
        details = details[lo : hi + 1]
        h_hits = [("h", a, idx) for a, ori, idx, _ in details if ori == HORIZONTAL]
        v_hits = [("v", a, idx) for a, ori, idx, _ in details if ori == VERTICAL]
        for hits, f in ((h_hits, f_h), (v_hits, f_v)):
            for u, v in zip(hits, hits[1:]):
                if u != v:
                    f.add_edge(u, v)
    return f_h, f_v, _contract_same_path_edges(f_h), _contract_same_path_edges(f_v)


def trim_independent_path(rep, b, clique_verts):
    hits = hit_sequence(rep, b, clique_verts)
    if not hits:
        raise DomainError(f"path of {label_str(b)} hits no clique path")
    lo, hi = leaf_trim_window([h[0] for h in hits])
    if lo == hi:
        raise DegenerateTrimError(
            f"trimmed hit sequence of {label_str(b)} has a single element"
        )
    if hits[lo][1] == hits[hi][1]:
        raise DegenerateTrimError(
            f"trimmed hit sequence of {label_str(b)} starts and ends at one point"
        )
    return subpath_between(rep.path(b), hits[lo][1], hits[hi][1])


def _exposed_interval(paths, target: Segment, along, across) -> Tuple[Fraction, Fraction]:
    """Maximal [lo, cap) sub-interval of `target`, anchored at its low end,
    whose open rays towards lower `across` miss every path.  `along` and
    `across` read a point's coordinates along and across the target, so one
    scan serves both orientations: each other segment starting below the
    target and reaching [lo, cap] moves cap down to its low end, not below lo."""
    c0 = across(target.a)
    lo, cap = along(target.a), along(target.b)
    for path in paths:
        for s in path.segments():
            if s != target and across(s.a) < c0 and along(s.a) <= cap and along(s.b) >= lo:
                cap = max(along(s.a), lo)
    return lo, cap


def exposed_below_interval(
    paths: Sequence[RectPath], target: Segment
) -> Tuple[Fraction, Fraction]:
    """Maximal [lo, cap) sub-interval of a horizontal segment, anchored at its
    left end, whose open downward rays miss every path."""
    if target.orientation != HORIZONTAL:
        raise ConstructionError("exposure from below needs a horizontal segment")
    return _exposed_interval(paths, target, attrgetter("x"), attrgetter("y"))


def exposed_left_interval(
    paths: Sequence[RectPath], target: Segment
) -> Tuple[Fraction, Fraction]:
    """Maximal [lo, cap) sub-interval of a vertical segment, anchored at its
    bottom end, whose open leftward rays miss every path."""
    if target.orientation != VERTICAL:
        raise ConstructionError("exposure from the left needs a vertical segment")
    return _exposed_interval(paths, target, attrgetter("y"), attrgetter("x"))
