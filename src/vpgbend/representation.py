"""VPG representations: realization, properness, bend stats, path trimming."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, groupby
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .errors import DegenerateTrimError, DomainError, ValidationError
from .geometry import (Point, RectPath, _collinear_contacts, _coordinate_text, _corner_text,
                       _crossing_contacts, _parse_ratio, _segment_rows, bend_count)
from .graphs import Graph, Label, _label_texts, label_str


class VpgRepresentation:
    """Finite map from vertex labels to rectilinear paths."""

    # `_table` memoises the contact table of `assignment` (`_contact_table`)
    __slots__ = ("assignment", "_table")

    def __init__(self, assignment: Dict[Label, RectPath]):
        for label, path in assignment.items():
            if not isinstance(path, RectPath):
                raise ValidationError(f"vertex {label!r} is not assigned a RectPath")
        self.assignment = dict(assignment)
        self._table = None

    def labels(self) -> Tuple[Label, ...]:
        return tuple(self.assignment)

    def path(self, label: Label) -> RectPath:
        return self.assignment[label]

    def __len__(self):
        return len(self.assignment)

    def restricted(self, labels: Iterable[Label]) -> "VpgRepresentation":
        keep = set(labels)
        return VpgRepresentation({l: p for l, p in self.assignment.items() if l in keep})

    def compressed(self) -> "VpgRepresentation":
        """The same paths with every corner coordinate replaced by its rank
        among the distinct corner coordinates on its axis.

        Meeting, overlap, crossing and corner contacts depend only on the
        order of coordinates, so the result realizes the same graph, is proper
        iff this one is and keeps every bend count.  A path with b bends has
        b+1 segments, alternating between the axes, so at most ⌊b/2⌋+1 of them
        are horizontal.  Only a horizontal segment brings a corner with a new
        x, so the path's corners have at most ⌊b/2⌋+2 distinct x, and by the
        same count as many distinct y.  n paths with at most b bends therefore
        lie on a grid of side n·(⌊b/2⌋+2).
        """
        ranked = _contact_table(self).ranked
        return VpgRepresentation({l: RectPath._of_ints(1, c) for l, c in ranked.items()})

    def __eq__(self, other):
        return isinstance(other, VpgRepresentation) and self.assignment == other.assignment


class _ContactTable:
    """The rank table of a representation's paths, packed into ints: one
    ranking of the corners, the segment rows over it and every contact from
    one sweep of those rows: the collinear sweeps of `hs` and of `vs` and the
    crossing sweep of the two.

    `xs` and `ys` are the sorted distinct corner coordinates as ints over the
    lcm `den` of the paths' denominators, and `ranked` maps a label to its
    path's corners as (x rank, y rank) pairs.  A segment is the row (fixed,
    lo, hi, path index) over ranks, in `hs` or `vs` by its axis, in label and
    then path order.  Transposing swaps the two, so an algorithm over them is
    written once and run on (xs, ys, hs, vs) and on (ys, xs, vs, hs).

    Labels are indexed in `rep.labels()` order and a pair of indices i < j is
    the code i·n + j.  A point contact at rank point x·len(ys) + y is the key
    point·n² + pair: a crossing is the only contact of its pair at its point,
    so the `crossings` keys are distinct and none of them is a touch key.
    `crossings` is unsorted, in the order of the sweep's runs per vertical.
    `overlaps` maps a pair to its overlaps as rank boxes (x0, y0, x1, y1);
    collinear overlaps of two simple paths never touch, so none is merged.
    `met` is the set of the pair codes of every contact, so of meeting pairs.

    No point contact lies in an overlap of its own pair: such touches are
    dropped, and a crossing point is interior to a horizontal segment of A
    and a vertical one of B, so an overlap of A and B through it would give
    A or B two segments through a point interior to one of them.
    """

    __slots__ = ("items", "index", "den", "xs", "ys", "ranked", "hs", "vs", "crossings",
                 "touches", "overlaps", "met", "_points")

    def __init__(self, items):
        self.items = items
        labels = [l for l, _ in items]
        self.index = {l: k for k, l in enumerate(labels)}
        self.den = den = math.lcm(*(p._scaled[0] for _, p in items))
        scaled = []
        for _, p in items:
            m = den // p._scaled[0]
            scaled.append([v * m for v in p._scaled[1:]])
        self.xs = sorted({x for ints in scaled for x in ints[::2]})
        self.ys = sorted({y for ints in scaled for y in ints[1::2]})
        x_rank = {x: r for r, x in enumerate(self.xs)}
        y_rank = {y: r for r, y in enumerate(self.ys)}
        ranked = [[(x_rank[x], y_rank[y]) for x, y in zip(ints[::2], ints[1::2])]
                  for ints in scaled]
        self.ranked = dict(zip(labels, ranked))
        self.hs, self.vs = hs, vs = _segment_rows(ranked)
        n, n_ys = len(labels), len(self.ys)
        crossings: List[int] = []
        touches: Set[int] = set()
        overlaps: Dict[int, List[Tuple[int, int, int, int]]] = {}
        # a point (x, y) of pair p is the key (x·n_ys + y)·n² + p
        for rows, vertical in ((hs, False), (vs, True)):
            for i, j, fixed, lo, hi in _collinear_contacts(rows):
                x0, y0, x1, y1 = (fixed, lo, fixed, hi) if vertical else (lo, fixed, hi, fixed)
                if lo == hi:
                    touches.add((x0 * n_ys + y0) * n * n + i * n + j)
                else:
                    overlaps.setdefault(i * n + j, []).append((x0, y0, x1, y1))
        for (x, y_lo, y_hi, lv), run in _crossing_contacts(hs, vs):
            column = x * n_ys
            for y, hk in run:
                _, x_lo, x_hi, lh = hs[hk]
                if lh == lv:
                    continue
                key = (column + y) * n * n + (lh * n + lv if lh < lv else lv * n + lh)
                if x_lo < x < x_hi and y_lo < y < y_hi:
                    crossings.append(key)
                else:
                    touches.add(key)
        if overlaps:  # a touch inside an overlap of its own pair is part of it
            touches = {key for key in touches if not any(
                x0 <= x <= x1 and y0 <= y <= y1 for x, y in [divmod(key // (n * n), n_ys)]
                for x0, y0, x1, y1 in overlaps.get(key % (n * n), ()))}
        self.crossings, self.touches, self.overlaps = crossings, touches, overlaps
        self.met = {key % (n * n) for key in chain(crossings, touches)}.union(overlaps)
        self._points: Optional[Dict[int, List[int]]] = None

    def points(self, pair: int) -> List[int]:
        """The rank points of the point contacts of `pair`, in sweep order,
        grouped by pair on the first call."""
        if self._points is None:
            self._points, n_pairs = {}, len(self.index) ** 2
            for key in chain(self.crossings, self.touches):
                point, p = divmod(key, n_pairs)
                self._points.setdefault(p, []).append(point)
        return self._points.get(pair, [])


def _contact_table(rep: VpgRepresentation) -> _ContactTable:
    """The contact table of `rep`, kept on it until its assignment changes."""
    items = tuple(rep.assignment.items())
    table = rep._table
    if table is None or table.items != items:
        table = rep._table = _ContactTable(items)
    return table


def intersection_graph(rep: VpgRepresentation) -> Graph:
    """Graph on the representation's labels; edge iff the paths intersect."""
    labels = rep.labels()
    g = Graph(labels)
    for code in _contact_table(rep).met:
        i, j = divmod(code, len(labels))
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
        return [f"missing edge: {u} {v}" for u, v in self.missing_edges] + [
            f"spurious edge: {u} {v}" for u, v in self.spurious_edges
        ]


def verify_realizes(rep: VpgRepresentation, g: Graph) -> RealizationReport:
    """Check intersection_graph(rep) == g, reporting each mismatched edge.

    The graph's edges, as a set of pair codes, are compared with the table's
    set `met` of meeting pairs, so only the mismatched pairs are named and
    sorted.  No meeting point is examined: two paths are adjacent iff they
    have any contact, whatever its kind or place.
    """
    labels = rep.labels()
    if set(labels) != set(g.vertices):
        raise DomainError("representation and graph have different vertex label sets")
    n = len(labels)
    table = _contact_table(rep)
    # the adjacency in the table's numbering, unsorted: the codes only go into a set
    at = [table.index[v] for v in g.vertices]
    want = set()
    for i, nbrs in zip(at, g._adj):
        want.update(i * n + j for j in map(at.__getitem__, nbrs) if i < j)

    def named(codes):
        pairs = (divmod(code, n) for code in codes)
        return tuple(sorted(
            tuple(sorted((label_str(labels[i]), label_str(labels[j])))) for i, j in pairs
        ))

    missing, spurious = named(want - table.met), named(table.met - want)
    return RealizationReport(not missing and not spurious, missing, spurious)


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

    With no overlap and no touch it is proper: a third path through a
    crossing point p of A and B would be collinear at p with A or B, whose
    segment has p inside, and so overlap it.  Otherwise only points with a
    touch or on two or more pairs are examined, which is exact: a point met by
    a single pair through one crossing contact has two owners and is crossed.
    The table holds no point contact inside an overlap of its own pair.
    """
    table = _contact_table(rep)
    if not table.overlaps and not table.touches:
        return PropernessReport(ok=True, violations=())
    labels = rep.labels()
    names = [label_str(l) for l in labels]
    # sorted, so the pairs crossing at one point are neighbours
    den, xs, ys, crossings = table.den, table.xs, table.ys, sorted(table.crossings)
    overlaps, touches, n_pairs, n_ys = table.overlaps, table.touches, len(labels) ** 2, len(ys)
    violations: List[str] = []
    for pair, ovs in overlaps.items():
        i, j = divmod(pair, len(labels))
        for x0, y0, x1, y1 in ovs:
            ov = f"[{_corner_text(xs[x0], ys[y0], den)}-{_corner_text(xs[x1], ys[y1], den)}]"
            violations.append(f"overlap between {names[i]} and {names[j]} along {ov}")
    point_of = n_pairs.__rfloordiv__
    screened = set(map(point_of, touches))
    screened.update(
        a // n_pairs for a, b in zip(crossings, crossings[1:]) if a // n_pairs == b // n_pairs
    )
    keys = [key for key in chain(crossings, touches) if key // n_pairs in screened]
    for point, group in groupby(sorted(keys), key=point_of):
        x, y = divmod(point, n_ys)
        pt = _corner_text(xs[x], ys[y], den)
        owners = set()
        for key in group:
            i, j = divmod(key % n_pairs, len(labels))
            owners.update((i, j))
            if key in touches:
                violations.append(f"non-crossing touch of {names[i]} and {names[j]} at {pt}")
        if len(owners) > 2:
            on = ",".join(sorted(names[o] for o in owners))
            violations.append(f"point {pt} lies on {len(owners)} paths ({on})")
    return PropernessReport(ok=not violations, violations=tuple(sorted(violations)))


def max_bends(rep: VpgRepresentation) -> int:
    """Largest bend count over all paths of the representation."""
    return max(map(bend_count, rep.assignment.values()), default=0)


def _known_labels(rep: VpgRepresentation, labels: Iterable[Label]) -> List[Label]:
    """`labels` as a list; a `DomainError` names the first that labels no path."""
    labels = list(labels)
    for label in labels:
        if label not in rep.assignment:
            raise DomainError(f"representation has no path labelled {label_str(label)}")
    return labels


def _segment_lines(corners) -> Dict[Tuple[str, int], list]:
    """A ranked path's segments (index, lo, hi, first corner's rank along the
    line) under their line, ("h", y) or ("v", x), each line's in index order."""
    lines: Dict[Tuple[str, int], list] = {}
    for idx, ((ax, ay), (bx, by)) in enumerate(zip(corners, corners[1:])):
        line, a, b = (("h", ay), ax, bx) if ay == by else (("v", ax), ay, by)
        lines.setdefault(line, []).append((idx, min(a, b), max(a, b), a))
    return lines


def _segment_at(lines, x0, y0, x1, y1) -> Tuple[int, int, str]:
    """(index, offset, axis): the first segment in `lines` that holds the box (x0, y0, x1,
    y1), a corner being on two, the rank distance of (x0, y0) from its first corner and its axis."""
    found = None
    for line, u0, u1, flat in ((("h", y0), x0, x1, y0 == y1), (("v", x0), y0, y1, x0 == x1)):
        for idx, lo, hi, a in lines.get(line, ()) if flat else ():
            if lo <= u0 and u1 <= hi:  # the line's first holder; at a corner, the lower index
                if found is None or idx < found[0]:
                    found = idx, abs(u0 - a), line[0]
                break
    return found


def _hit_walk(table: _ContactTable, b: Label, clique_verts: List[Label], lines=None):
    """`clique_hit_sequence` on a contact table, each point as its ranks.

    A hit is (a, point, (axis, a, idx), overlap, b_idx), with the F_h/F_v
    vertex of the segment of P(a) that holds it and the first segment b_idx
    of P(b) holding it.  Hits are ordered by b_idx and the rank offset from its
    first corner: P(b) is simple, so that is the order of arc length, and only
    equal points tie.  Walks that share `lines`, label -> `_segment_lines` of
    its path, index each path once.
    """
    lines = {} if lines is None else lines
    for label in {b, *clique_verts} - lines.keys():
        lines[label] = _segment_lines(table.ranked[label])
    pb, ib, n = lines[b], table.index[b], len(table.index)
    hits = []
    for a in clique_verts:
        ia = table.index[a]
        pair = min(ia, ib) * n + max(ia, ib)
        if pair not in table.met:  # met holds no code i·n + j with i >= j, so a == b skips
            continue
        points = (divmod(point, len(table.ys)) for point in table.points(pair))
        # sorted, since overlaps along both segments at a shared corner tie
        boxes = sorted(table.overlaps.get(pair, ())) + [(x, y, x, y) for x, y in points]
        for box in boxes:
            x, y = box[:2]
            idx, _, axis = _segment_at(lines[a], *box)
            hits.append((_segment_at(pb, x, y, x, y), a, (x, y), (axis, a, idx), (x, y) != box[2:]))
    hits.sort(key=lambda h: h[0])
    return [(*h[1:], h[0][0]) for h in hits]


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
    (b, *clique_verts), table = _known_labels(rep, [b, *clique_verts]), _contact_table(rep)
    den, xs, ys = table.den, table.xs, table.ys
    return [
        (a, Point(Fraction(xs[x], den), Fraction(ys[y], den)), idx, overlap)
        for a, (x, y), (_, _, idx), overlap, _ in _hit_walk(table, b, clique_verts)
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
    path in `clique_verts` order.  The subpath is cut from P(b)'s ranked
    corners between the segments that hold the two surviving hits.
    """
    b, *clique_verts = _known_labels(rep, [b, *clique_verts])
    table = _contact_table(rep)
    hits = _hit_walk(table, b, clique_verts)
    overlapping = {a for a, _, _, overlap, _ in hits if overlap}
    for a in clique_verts:
        if a in overlapping:
            raise DomainError(f"path of {label_str(b)} overlaps clique path {label_str(a)}")
    if not hits:
        raise DomainError(f"path of {label_str(b)} hits no clique path")
    lo, hi = leaf_trim_window([h[0] for h in hits])
    if lo == hi:
        raise DegenerateTrimError(f"trimmed hit sequence of {label_str(b)} has a single element")
    start, end = hits[lo][1], hits[hi][1]
    if start == end:
        raise DegenerateTrimError(
            f"trimmed hit sequence of {label_str(b)} starts and ends at one point")
    first, last = hits[lo][-1], hits[hi][-1]
    # a start at the far end of its segment repeats the next corner, which is dropped
    corners = [start, *table.ranked[b][first + 1 : last + 1], end]
    return RectPath._of_ints(table.den, [(table.xs[x], table.ys[y]) for x, y in corners])


def write_representation_text(rep: VpgRepresentation) -> str:
    """One record per vertex: 'label : (x1,y1) (x2,y2) ...'.

    A label the reader would not return unchanged is a `ValidationError`:
    one that is empty, holds a line break or ' : ', ends in ' :' (the
    reader splits at the first ' : '), has whitespace at either end or
    shares its text with another label.
    """
    names = _label_texts(
        rep.labels(),
        lambda name: name.splitlines() == [name] == [name.strip()] and " : " not in name + " :",
        "representation",
        ValidationError,
    )
    lines = []
    for name, path in zip(names, rep.assignment.values()):
        den, *flat = path._scaled
        if den == 1:
            words = list(map(str, flat))
        else:  # each coordinate's text once: a path's corners share many
            text = {}
            words = [text[v] if v in text else text.setdefault(v, _coordinate_text(v, den)) for v in flat]
        pts = " ".join([f"({x},{y})" for x, y in zip(words[::2], words[1::2])])
        lines.append(f"{name} : {pts}")
    return "\n".join(lines) + "\n"


# a corner token in ASCII digits, as the writer makes it
_CORNER = re.compile(r"\((-?[0-9]+)(?:/([0-9]+))?,(-?[0-9]+)(?:/([0-9]+))?\)")


def _plain_corners(rest: str) -> Optional[Tuple[int, list]]:
    """(den, int corners) of a line's corner tokens from one split, or None
    unless whitespace alone lies around the `_CORNER` matches and every
    denominator is a nonzero int."""
    # the text before the first match, then per match its four groups (None
    # for no denominator) and the text after it
    pieces = _CORNER.split(rest.strip())
    xd, yd = pieces[2::5], pieces[4::5]
    try:  # a ValueError is a number past int()'s digit limit
        xn, yn = list(map(int, pieces[1::5])), list(map(int, pieces[3::5]))
        dens = {t: int(t) for t in {*xd, *yd} - {None}}
    except ValueError:
        return None
    den = math.lcm(*dens.values())  # 0 for a zero denominator
    if not den or pieces[0] or pieces[-1] or not all(map(str.isspace, pieces[5:-1:5])):
        return None
    if den == 1:
        return 1, list(zip(xn, yn))
    scale = {t: den // d for t, d in dens.items()}
    scale[None] = den
    return den, [(x * scale[a], y * scale[b]) for x, a, y, b in zip(xn, xd, yn, yd)]


def read_representation_text(text: str) -> VpgRepresentation:
    """Parse the text format: one regex split per line, and each line's
    coordinates scaled to the lcm of its denominators."""
    assignment: Dict[Label, RectPath] = {}
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln:
            continue
        if " : " not in ln:
            raise ValidationError(f"bad representation line {ln!r}")
        label, rest = ln.split(" : ", 1)
        corners = _plain_corners(rest)
        if corners is None:
            # some token is not a `_CORNER` match with nonzero int
            # denominators, and the first such one fails these checks
            for tok in rest.split():
                xy = tok[1:-1].split(",")
                if not (tok.startswith("(") and tok.endswith(")")) or len(xy) != 2:
                    raise ValidationError(f"bad corner token {tok!r}")
                _parse_ratio(xy[0]), _parse_ratio(xy[1])
        label = label.strip()
        if label in assignment:
            raise ValidationError(f"duplicate label {label!r}")
        assignment[label] = RectPath._of_ints(*corners)
    return VpgRepresentation(assignment)
