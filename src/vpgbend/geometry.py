"""Exact rational geometry for axis-parallel (rectilinear) paths.

Coordinates are exact rationals and floats are rejected outright: the
layered epsilon offsets used by the constructions only make sense with exact
arithmetic.  A `RectPath` keeps only ints, its corners times the lcm of their
denominators, which every producer hands it through `RectPath._of_ints`, and
builds `Fraction` `Point`s on demand.  The hot predicates
compare those ints, or coordinate ranks over ints (the contact sweeps, over
the rank table of `representation`), which keep the order of coordinates and
so stay exact; a `Fraction` is made only where a point is reported or
returned.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from fractions import Fraction
from functools import total_ordering
from typing import Iterable, List, Optional, Tuple, Union

from .errors import GeometryError, Record, _set

Coord = Union[int, str, Fraction]

HORIZONTAL = "horizontal"
VERTICAL = "vertical"


def _parse_ratio(tok: str) -> Tuple[int, int]:
    """(num, den), reduced with den > 0, of a coordinate written `7`, `-7` or
    `7/2` in ASCII digits with a nonzero denominator.  Anything else, such as
    `0.5`, `1e9`, `+1` or ` 1`, is an error, so no text is costly to parse."""
    num, slash, den = tok.partition("/")
    if tok.isascii() and num.removeprefix("-").isdigit() and (den.isdigit() or not slash):
        try:
            n, d = int(num), int(den or 1)
        except ValueError:  # more digits than int() converts
            d = 0
        if d:
            g = math.gcd(n, d)
            return n // g, d // g
    raise GeometryError(f"not an exact coordinate: {tok!r}")


def rational(value: Coord) -> Fraction:
    """Convert an exact value (int, Fraction, or a string `7`, `-7`, `7/2`) to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return Fraction(*_parse_ratio(value))
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    note = " (floats are not allowed)" if isinstance(value, float) else ""
    raise GeometryError(f"not an exact coordinate: {value!r}{note}")


@total_ordering
class Point(Record):
    """Exact point, ordered by (x, y)."""

    __slots__ = ("x", "y")

    def __init__(self, x: Coord, y: Coord):
        _set(self, "x", rational(x))
        _set(self, "y", rational(y))

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.x, self.y) < (other.x, other.y)

    def translated(self, dx: Coord, dy: Coord) -> "Point":
        return Point(self.x + rational(dx), self.y + rational(dy))

    def __str__(self):
        return f"({self.x},{self.y})"


class Segment(Record):
    """Closed axis-parallel segment; endpoints stored in increasing order."""

    __slots__ = ("a", "b")

    def __init__(self, a: Point, b: Point):
        if a == b:
            raise GeometryError("zero-length segment")
        if a.x != b.x and a.y != b.y:
            raise GeometryError(f"segment {a}-{b} is not axis-parallel")
        if (b.x, b.y) < (a.x, a.y):
            a, b = b, a
        _set(self, "a", a)
        _set(self, "b", b)

    @property
    def orientation(self) -> str:
        return HORIZONTAL if self.a.y == self.b.y else VERTICAL

    @property
    def length(self) -> Fraction:
        return (self.b.x - self.a.x) + (self.b.y - self.a.y)

    def contains(self, pt: Point) -> bool:
        if self.orientation == HORIZONTAL:
            return pt.y == self.a.y and self.a.x <= pt.x <= self.b.x
        return pt.x == self.a.x and self.a.y <= pt.y <= self.b.y

    def interior_contains(self, pt: Point) -> bool:
        return self.contains(pt) and pt != self.a and pt != self.b

    def __str__(self):
        return f"[{self.a}-{self.b}]"


def segment_intersection(
    s: Segment, t: Segment
) -> Tuple[Optional[Point], Optional[Segment]]:
    """Intersection of two segments: (isolated point, positive-length overlap).

    At most one of the two results is non-None.  Collinear segments sharing a
    single endpoint yield an isolated point, not an overlap.
    """
    if s.orientation != t.orientation:
        h, v = (s, t) if s.orientation == HORIZONTAL else (t, s)
        x, y = v.a.x, h.a.y
        if h.a.x <= x <= h.b.x and v.a.y <= y <= v.b.y:
            return Point(x, y), None
        return None, None
    # parallel: on one line, Point order is the order along it, so the shared
    # part runs from the later start to the earlier end
    on_one_line = s.a.y == t.a.y if s.orientation == HORIZONTAL else s.a.x == t.a.x
    lo, hi = max(s.a, t.a), min(s.b, t.b)
    if not on_one_line or lo > hi:
        return None, None
    if lo == hi:
        return lo, None
    return None, Segment(lo, hi)


def _segment_rows(paths):
    """(hs, vs): the row (fixed, lo, hi, i) of each segment of the i-th corner
    list in `paths`, in `hs` if it is horizontal and in `vs` if vertical, in
    list and then segment order."""
    hs, vs = [], []
    for i, corners in enumerate(paths):
        for (ax, ay), (bx, by) in zip(corners, corners[1:]):
            if ay == by:
                hs.append((ay, min(ax, bx), max(ax, bx), i))
            else:
                vs.append((ax, min(ay, by), max(ay, by), i))
    return hs, vs


def _collinear_contacts(table):
    """Meetings of segments of different paths on one shared line.

    Yields (i, j, fixed, lo, hi) with label indices i < j; lo == hi is a touch
    of two segment ends.  Written once over (fixed, lo, hi, label) tuples, so
    it serves the horizontal and the vertical table alike.
    """
    line, active = None, []
    for fixed, lo, hi, li in sorted(table):
        if fixed != line:
            line, active = fixed, []
        else:
            active = [seg for seg in active if seg[0] >= lo]
        for other_hi, other in active:
            if other != li:
                yield min(li, other), max(li, other), fixed, lo, min(hi, other_hi)
        active.append((hi, li))


def _crossing_contacts(hs, vs):
    """Meetings of a horizontal and a vertical segment, one run per vertical.

    Sweeps x over the verticals, keeping the horizontals that span the
    current x sorted by y.  Yields (v, run) per vertical v that meets one:
    run is the slice of (y, horizontal index) rows in v's closed y range, v's
    own path included; a meeting interior to both segments is a crossing.
    """
    # at equal x a horizontal opens (0) before and closes (2) after the
    # verticals there (1) are queried: segments are closed
    events = [(h[1], 0, k) for k, h in enumerate(hs)]
    events += [(h[2], 2, k) for k, h in enumerate(hs)]
    events += [(v[0], 1, k) for k, v in enumerate(vs)]
    events.sort()
    active: List[Tuple[int, int]] = []  # (y, horizontal index)
    for x, kind, k in events:
        if kind == 0:
            insort(active, (hs[k][0], k))
        elif kind == 2:
            del active[bisect_left(active, (hs[k][0], k))]
        else:
            v = vs[k]
            # ints, so every row at y_hi sorts before (y_hi + 1,)
            at = bisect_left(active, (v[1],))
            end = bisect_left(active, (v[2] + 1,), at)
            if at < end:
                yield v, active[at:end]


def _coordinate_text(v: int, den: int) -> str:
    """`str(Fraction(v, den))`, formatted on ints."""
    g = math.gcd(v, den)
    return str(v // g) if g == den else f"{v // g}/{den // g}"


def _corner_text(x: int, y: int, den: int) -> str:
    """`str(Point(Fraction(x, den), Fraction(y, den)))`, formatted on ints."""
    return f"({_coordinate_text(x, den)},{_coordinate_text(y, den)})"


class RectPath:
    """Axis-parallel path stored by its corner sequence.

    Invariants enforced on construction: at least two corners, consecutive
    corners differ in exactly one coordinate, consecutive segments alternate
    orientation (straight continuations are merged away), and the path is
    simple.  The path keeps only ints: `_scaled` is (den, x0, y0, x1, y1, ...),
    each coordinate times the lcm `den` of the corners' reduced denominators,
    on which the checks and the ranking run.  `corners` are `Point`s, built on
    first access.
    """

    __slots__ = ("_scaled", "_corners", "_segments")

    def __init__(self, corners: Iterable):
        pts = []
        for c in corners:
            try:
                x, y = (c.x, c.y) if isinstance(c, Point) else c
            except (TypeError, ValueError):
                raise GeometryError(f"a corner needs two coordinates: {c!r}") from None
            pts.append((rational(x), rational(y)))
        den = math.lcm(*(v.denominator for xy in pts for v in xy))
        self._build(den, [(x.numerator * (den // x.denominator),
                           y.numerator * (den // y.denominator)) for x, y in pts])

    @classmethod
    def _of_ints(cls, den: int, corners) -> "RectPath":
        """The path through the int corners (x, y), each standing for
        (x/den, y/den); den is positive and need not be the least one."""
        path = cls.__new__(cls)
        path._build(den, corners)
        return path

    def _build(self, den: int, corners) -> None:
        # one pass; a, b are the last two kept corners.  A straight continuation
        # moves b on along its segment's axis, so a kept segment's axis is final.
        # The first diagonal raises at once; any diagonal outranks a backtrack
        flat = []
        ax = ay = bx = by = None
        backtrack = False
        for x, y in corners:
            if x == bx:
                if y == by:  # a repeated corner
                    continue
                if ax == x:  # a second vertical step: straight on, or back
                    if (y - by) * (by - ay) > 0:
                        flat[-1] = by = y
                        continue
                    backtrack = True
            elif y == by:
                if ay == y:  # a second horizontal step
                    if (x - bx) * (bx - ax) > 0:
                        flat[-2] = bx = x
                        continue
                    backtrack = True
            elif bx is not None:
                a, b = _corner_text(bx, by, den), _corner_text(x, y, den)
                raise GeometryError(f"diagonal move {a} -> {b}")
            flat.append(x)
            flat.append(y)
            ax, ay, bx, by = bx, by, x, y
        if len(flat) < 4:
            raise GeometryError("a path needs at least two distinct corners")
        if backtrack:
            raise GeometryError("consecutive segments on the same axis (backtracking)")
        # consecutive segments are perpendicular, so they meet only at their
        # shared corner, and segments i and i+2 lie on distinct parallel
        # lines, since segment i+1 has nonzero length: a path of at most three
        # segments is simple.  So is one with monotone corner x's: p(s) = p(t),
        # s < t, puts [s, t] in one vertical segment, where y is strictly
        # monotone; likewise for y's.  In any other path two segments on one
        # axis are never consecutive, so any collinear meeting is non-simple.
        if len(flat) > 8 and all(sorted(v) not in (v, v[::-1]) for v in (flat[::2], flat[1::2])):
            ints = list(zip(flat[::2], flat[1::2]))
            # each segment is a path of its own, so a row's index is the segment's
            hs, vs = _segment_rows(zip(ints, ints[1:]))
            if (next(_collinear_contacts(hs), None) or next(_collinear_contacts(vs), None)
                    or any(abs(hs[hk][3] - v[3]) > 1
                           for v, run in _crossing_contacts(hs, vs) for _, hk in run)):
                raise GeometryError("path is not simple")
        # a den above the least one, or merged-away corners, leave a common factor
        g = math.gcd(den, *flat)
        self._scaled = (den, *flat) if g == 1 else (den // g, *(v // g for v in flat))
        self._corners = self._segments = None

    @property
    def corners(self) -> Tuple[Point, ...]:
        if self._corners is None:
            den, flat = self._scaled[0], self._scaled[1:]
            self._corners = tuple(
                Point(Fraction(x, den), Fraction(y, den)) for x, y in zip(flat[::2], flat[1::2])
            )
        return self._corners

    def segments(self) -> Tuple[Segment, ...]:
        if self._segments is None:
            self._segments = tuple(
                Segment(a, b) for a, b in zip(self.corners, self.corners[1:])
            )
        return self._segments

    def reversed(self) -> "RectPath":
        return RectPath(tuple(reversed(self.corners)))

    def translated(self, dx: Coord, dy: Coord) -> "RectPath":
        return RectPath(tuple(c.translated(dx, dy) for c in self.corners))

    def __eq__(self, other):
        return isinstance(other, RectPath) and self._scaled == other._scaled

    def __hash__(self):
        return hash(self._scaled)

    def __repr__(self):
        return f"RectPath({[str(c) for c in self.corners]})"


def bend_count(p: RectPath) -> int:
    """Number of bends: segments minus one, read off the int corners."""
    return len(p._scaled) // 2 - 2


class PathIntersections(Record):
    """Decomposition of the intersection of two paths.

    `points` are the isolated intersection points (sorted); `overlaps` are the
    maximal collinear shared sub-segments of positive length.
    """

    __slots__ = ("points", "overlaps")

    def __init__(self, points: Tuple[Point, ...], overlaps: Tuple[Segment, ...]):
        _set(self, "points", points)
        _set(self, "overlaps", overlaps)

    def __bool__(self):
        return bool(self.points or self.overlaps)


def path_intersections(p: RectPath, q: RectPath) -> PathIntersections:
    """All isolated intersection points and maximal overlaps of two paths.

    The overlap of each segment pair is maximal as it is: two collinear
    overlaps that touch or overlap would lie on two collinear segments of p
    or of q that meet, and `RectPath` rejects such a path.
    """
    pts = set()
    overlaps = []
    for sp in p.segments():
        for sq in q.segments():
            pt, ov = segment_intersection(sp, sq)
            if pt is not None:
                pts.add(pt)
            elif ov is not None:
                overlaps.append(ov)
    overlaps.sort(key=lambda s: (s.a, s.b))
    isolated = tuple(
        sorted(pt for pt in pts if not any(ov.contains(pt) for ov in overlaps))
    )
    return PathIntersections(points=isolated, overlaps=tuple(overlaps))


def transversal_at(p: RectPath, q: RectPath, pt: Point) -> bool:
    """True iff the paths cross transversally at `pt`, a known isolated
    intersection point: interior to a horizontal segment of one and a
    vertical segment of the other, so no touch at a corner crosses."""
    p_axes, q_axes = ({s.orientation for s in path.segments() if s.interior_contains(pt)} for path in (p, q))
    return any(a != b for a in p_axes for b in q_axes)
