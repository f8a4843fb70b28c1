"""VPG representations: realization, properness, bend stats, path trimming."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Dict, Iterable, List, Tuple

from .errors import DegenerateTrimError, DomainError, ValidationError
from .geometry import (
    Point,
    RectPath,
    Segment,
    _contacts,
    bend_count,
    _ranked_corners,
    merge_overlaps,
    rational,
    segment_tables,
)
from .graphs import Graph, Label, label_str


class VpgRepresentation:
    """Finite map from vertex labels to rectilinear paths."""

    __slots__ = ("assignment",)

    def __init__(self, assignment: Dict[Label, RectPath]):
        for label, path in assignment.items():
            if not isinstance(path, RectPath):
                raise ValidationError(f"vertex {label!r} is not assigned a RectPath")
        self.assignment = dict(assignment)

    def labels(self) -> Tuple[Label, ...]:
        return tuple(self.assignment)

    def path(self, label: Label) -> RectPath:
        return self.assignment[label]

    def __len__(self):
        return len(self.assignment)

    def restricted(self, labels: Iterable[Label]) -> "VpgRepresentation":
        keep = set(labels)
        return VpgRepresentation({l: p for l, p in self.assignment.items() if l in keep})

    def __eq__(self, other):
        return (
            isinstance(other, VpgRepresentation) and self.assignment == other.assignment
        )


def intersection_graph(rep: VpgRepresentation) -> Graph:
    """Graph on the representation's labels; edge iff the paths intersect."""
    labels = rep.labels()
    g = Graph(labels)
    _, _, hs, vs = segment_tables(rep.assignment.values())
    for i, j, *_ in _contacts(hs, vs):
        g.add_edge(labels[i], labels[j])
    return g


@dataclass(frozen=True)
class RealizationReport:
    ok: bool
    missing_edges: Tuple[Tuple[str, str], ...]
    spurious_edges: Tuple[Tuple[str, str], ...]

    def __bool__(self):
        return self.ok

    def lines(self) -> List[str]:
        out = []
        for u, v in self.missing_edges:
            out.append(f"missing edge: {u} {v}")
        for u, v in self.spurious_edges:
            out.append(f"spurious edge: {u} {v}")
        return out


def verify_realizes(rep: VpgRepresentation, g: Graph) -> RealizationReport:
    """Check intersection_graph(rep) == g, reporting each mismatched edge."""
    if set(rep.labels()) != set(g.vertices):
        raise DomainError("representation and graph have different vertex label sets")
    derived = intersection_graph(rep)
    missing = sorted(
        tuple(sorted((label_str(u), label_str(v))))
        for u, v in g.edges()
        if not derived.has_edge(u, v)
    )
    spurious = sorted(
        tuple(sorted((label_str(u), label_str(v))))
        for u, v in derived.edges()
        if not g.has_edge(u, v)
    )
    return RealizationReport(
        ok=not missing and not spurious,
        missing_edges=tuple(missing),
        spurious_edges=tuple(spurious),
    )


@dataclass(frozen=True)
class PropernessReport:
    ok: bool
    violations: Tuple[str, ...]

    def __bool__(self):
        return self.ok


def is_proper(rep: VpgRepresentation) -> PropernessReport:
    """Check the three properness conditions.

    (a) no two paths share an overlap sub-segment, (b) every isolated
    intersection point lies on exactly two paths, (c) every intersection is a
    transversal crossing (interior of a horizontal segment of one path and of
    a vertical segment of the other).
    """
    labels = rep.labels()
    names = [label_str(l) for l in labels]
    xs, ys, hs, vs = segment_tables(rep.assignment.values())
    n_pairs, n_ys = len(labels) ** 2, len(ys)
    # (point rank * n_pairs + pair) -> whether the pair crosses transversally
    # there, which holds iff one of its contacts there is interior to both
    # segments; keys sort by point, so the pairs at a point come together
    crossed: Dict[int, bool] = {}
    raw_overlaps: Dict[int, List[Segment]] = {}
    for i, j, x0, y0, x1, y1, crossing in _contacts(hs, vs):
        pair = i * len(labels) + j
        if x0 == x1 and y0 == y1:
            key = (x0 * n_ys + y0) * n_pairs + pair
            crossed[key] = crossing or crossed.get(key, False)
        else:
            ov = Segment(Point(xs[x0], ys[y0]), Point(xs[x1], ys[y1]))
            raw_overlaps.setdefault(pair, []).append(ov)
    overlaps = {pair: merge_overlaps(ovs) for pair, ovs in raw_overlaps.items()}
    violations: List[str] = []
    for pair, ovs in overlaps.items():
        i, j = divmod(pair, len(labels))
        for ov in ovs:
            violations.append(f"overlap between {names[i]} and {names[j]} along {ov}")
    for point, keys in groupby(sorted(crossed), key=lambda key: key // n_pairs):
        x, y = divmod(point, n_ys)
        pt = Point(xs[x], ys[y])
        owners = set()
        for key in keys:
            pair = key % n_pairs
            if any(ov.contains(pt) for ov in overlaps.get(pair, ())):
                continue
            i, j = divmod(pair, len(labels))
            owners.update((i, j))
            if not crossed[key]:
                violations.append(f"non-crossing touch of {names[i]} and {names[j]} at {pt}")
        if len(owners) > 2:
            on = ",".join(sorted(names[o] for o in owners))
            violations.append(f"point {pt} lies on {len(owners)} paths ({on})")
    return PropernessReport(ok=not violations, violations=tuple(sorted(violations)))


def max_bends(rep: VpgRepresentation) -> int:
    """Largest bend count over all paths of the representation."""
    if not rep.assignment:
        return 0
    return max(bend_count(p) for p in rep.assignment.values())


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


def _hit_table(rep: VpgRepresentation, labels: Iterable[Label]):
    """Rank table for clique-hit walks: (xs, ys, label -> ranked segments).

    Ranks the corners of the paths of `labels`, so one table serves every
    walk among them: two paths meet only at points whose coordinates are
    corner coordinates.  A segment is the int tuple (horizontal, fixed, lo,
    hi, start), `start` being the coordinate along it of its first corner.
    Labels absent from `rep` are left out, so a walk that needs one raises
    the KeyError that looking its path up would.
    """
    present = [l for l in dict.fromkeys(labels) if l in rep.assignment]
    xs, ys, ranked = _ranked_corners([rep.assignment[l] for l in present])
    table = {}
    for label, corners in zip(present, ranked):
        segs = table[label] = []
        for (ax, ay), (bx, by) in zip(corners, corners[1:]):
            if ay == by:
                segs.append((True, ay, min(ax, bx), max(ax, bx), ax))
            else:
                segs.append((False, ax, min(ay, by), max(ay, by), ay))
    return xs, ys, table


def _holds(seg, pt) -> bool:
    horizontal, fixed, lo, hi, _ = seg
    along, across = pt if horizontal else pt[::-1]
    return across == fixed and lo <= along <= hi


def _meet(pb, pa):
    """Meetings of two ranked paths as `path_intersections` gives them: the
    isolated points, sorted, and the merged overlaps as (first end, last
    end) pairs in `merge_overlaps` order."""
    points, raw = set(), []
    for hb, fb, lb, ub, _ in pb:
        for ha, fa, la, ua, _ in pa:
            if hb != ha:
                if la <= fb <= ua and lb <= fa <= ub:
                    points.add((fa, fb) if hb else (fb, fa))
            elif fb == fa:
                lo, hi = max(lb, la), min(ub, ua)
                if lo == hi:
                    points.add((lo, fb) if hb else (fb, lo))
                elif lo < hi:
                    ends = ((lo, fb), (hi, fb)) if hb else ((fb, lo), (fb, hi))
                    raw.append(Segment(Point(*ends[0]), Point(*ends[1])))
    overlaps = [
        ((int(ov.a.x), int(ov.a.y)), (int(ov.b.x), int(ov.b.y))) for ov in merge_overlaps(raw)
    ]
    # an overlap is axis-parallel, so its bounding box is the overlap itself
    isolated = sorted(
        (x, y) for x, y in points
        if not any(a[0] <= x <= b[0] and a[1] <= y <= b[1] for a, b in overlaps)
    )
    return isolated, overlaps


def _clique_hits(table, b: Label, clique_verts: List[Label]):
    """`clique_hit_sequence` on a `_hit_table`, each point as its ranks.

    A hit is ordered by the first segment of P(b) containing it and its
    rank offset from that segment's first corner: P(b) is simple, so that
    is the order of arc length, and only equal points tie.
    """
    pb = table[b]
    hits = []
    for a in clique_verts:
        if a == b:
            continue
        pa = table[a]
        points, overlaps = _meet(pb, pa)
        found = [(pt, (pt,), False) for pt in points]
        found += [(ends[0], ends, True) for ends in overlaps]
        for pt, ends, overlap in found:
            idx = next(i for i, s in enumerate(pa) if all(_holds(s, e) for e in ends))
            k, seg = next((k, s) for k, s in enumerate(pb) if _holds(s, pt))
            offset = abs((pt[0] if seg[0] else pt[1]) - seg[4])
            hits.append(((k, offset), a, pt, idx, overlap))
    hits.sort(key=lambda h: h[0])
    return [h[1:] for h in hits]


def clique_hit_sequence(
    rep: VpgRepresentation, b: Label, clique_verts: Iterable[Label]
) -> List[Tuple[Label, Point, int, bool]]:
    """Hits of P(b) on the clique paths, ordered by arc length along P(b).

    Each hit is (clique label, point, segment index, overlap): an isolated
    meeting point, or an overlap taken at its first end, with the first
    segment of the clique path that contains the whole hit.  The path is
    simple, so for a point interior to a segment that is the only one.  Hits
    at equal arc length keep the order of `clique_verts`.
    """
    clique_verts = list(clique_verts)
    xs, ys, table = _hit_table(rep, [b, *clique_verts])
    return [
        (a, Point(xs[x], ys[y]), idx, overlap)
        for a, (x, y), idx, overlap in _clique_hits(table, b, clique_verts)
    ]


def leaf_trim_window(labels: List[Label]) -> Tuple[int, int]:
    """Surviving index window after the recurring-leaf rule.

    A leaf is dropped while its element also occurs elsewhere in the remaining
    sequence, first from the front and then from the back; afterwards both
    leaves are distinct (or the window has collapsed to one hit).
    """
    lo, hi = 0, len(labels) - 1
    while lo < hi and labels[lo] in labels[lo + 1 : hi + 1]:
        lo += 1
    while lo < hi and labels[hi] in labels[lo:hi]:
        hi -= 1
    return lo, hi


def trim_independent_path(
    rep: VpgRepresentation, b: Label, clique_verts: Iterable[Label]
) -> RectPath:
    """Leaf-trimmed minimal subpath of P(b) per the recurring-leaf rule.

    Walks P(b) end to end, records the ordered sequence of clique vertices
    hit, removes a leaf while its element recurs in the remaining sequence
    (first from the front, then from the back), and returns the subpath
    spanning the surviving hits.  The subpath ends exactly at the surviving
    end hits, so it still meets every clique vertex the sequence retains.
    An overlap with a clique path is a `DomainError` naming the first such
    path in `clique_verts` order.
    """
    clique_verts = list(clique_verts)
    hits = clique_hit_sequence(rep, b, clique_verts)
    overlapping = {a for a, _, _, overlap in hits if overlap}
    for a in clique_verts:
        if a in overlapping:
            raise DomainError(f"path of {label_str(b)} overlaps clique path {label_str(a)}")
    if not hits:
        raise DomainError(f"path of {label_str(b)} hits no clique path")
    lo, hi = leaf_trim_window([h[0] for h in hits])
    if lo == hi:
        raise DegenerateTrimError(
            f"trimmed hit sequence of {label_str(b)} has a single element"
        )
    return subpath_between(rep.path(b), hits[lo][1], hits[hi][1])


def write_representation_text(rep: VpgRepresentation) -> str:
    """One record per vertex: 'label : (x1,y1) (x2,y2) ...'."""
    lines = []
    for label in rep.labels():
        pts = " ".join(str(c) for c in rep.path(label).corners)
        lines.append(f"{label_str(label)} : {pts}")
    return "\n".join(lines) + "\n"


def read_representation_text(text: str) -> VpgRepresentation:
    assignment: Dict[Label, RectPath] = {}
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln:
            continue
        if " : " not in ln:
            raise ValidationError(f"bad representation line {ln!r}")
        label, rest = ln.split(" : ", 1)
        corners = []
        for tok in rest.split():
            if not (tok.startswith("(") and tok.endswith(")")):
                raise ValidationError(f"bad corner token {tok!r}")
            xy = tok[1:-1].split(",")
            if len(xy) != 2:
                raise ValidationError(f"bad corner token {tok!r}")
            corners.append(Point(rational(xy[0]), rational(xy[1])))
        label = label.strip()
        if label in assignment:
            raise ValidationError(f"duplicate label {label!r}")
        assignment[label] = RectPath(corners)
    return VpgRepresentation(assignment)
