"""Fraction coordinate parsing, path validation, corner ranking and the
representation reader, kept only to test the int core of
`geometry.RectPath`, `geometry._parse_ratio`, the corner ranking of
`representation._contact_table` and `representation.read_representation_text`
against.

This is the straightforward form: a coordinate is the grammar's regex and
then `Fraction`, corners are merged and checked on `Fraction`s, the path is
simple when no two segments that are not consecutive meet under
`geometry.segment_intersection`, a quadratic test, and ranks come from sorted
sets of `Fraction`s.  It shares no code with the common-denominator ints and
the contact sweep of `vpgbend.geometry`.
"""

import math
import re
from fractions import Fraction
from typing import Iterable, Sequence

from vpgbend.errors import GeometryError, ValidationError
from vpgbend.geometry import Point, Segment, rational, segment_intersection


COORDINATE = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parsed_ratio(tok: str):
    """(numerator, denominator) of a coordinate token, or the error for it."""
    if COORDINATE.fullmatch(tok):
        try:
            value = Fraction(tok)
        except (ValueError, ZeroDivisionError):
            pass
        else:
            return value.numerator, value.denominator
    raise GeometryError(f"not an exact coordinate: {tok!r}")


def scaled(corners) -> tuple:
    """(den, x0, y0, x1, y1, ...): the corners times the lcm of their
    denominators."""
    values = [v for pt in corners for v in (pt.x, pt.y)]
    den = math.lcm(*(v.denominator for v in values))
    return (den, *(int(v * den) for v in values))


def _normalize_corners(points) -> list:
    out = []
    for pt in points:
        if out and pt == out[-1]:
            continue
        if len(out) >= 2:
            a, b = out[-2], out[-1]
            same_x = a.x == b.x == pt.x
            same_y = a.y == b.y == pt.y
            if same_x and (pt.y - b.y) * (b.y - a.y) > 0:
                out[-1] = pt
                continue
            if same_y and (pt.x - b.x) * (b.x - a.x) > 0:
                out[-1] = pt
                continue
        out.append(pt)
    return out


def validated(corners: Iterable):
    """(scaled, corners, segments) of the path `RectPath(corners)` would
    build, or the `GeometryError` it would raise."""
    pts = []
    for c in corners:
        if isinstance(c, Point):
            pts.append(c)
        else:
            x, y = c
            pts.append(Point(rational(x), rational(y)))
    pts = _normalize_corners(pts)
    if len(pts) < 2:
        raise GeometryError("a path needs at least two distinct corners")
    segs = []
    for a, b in zip(pts, pts[1:]):
        if a.x != b.x and a.y != b.y:
            raise GeometryError(f"diagonal move {a} -> {b}")
        segs.append(Segment(a, b))
    for s1, s2 in zip(segs, segs[1:]):
        if s1.orientation == s2.orientation:
            raise GeometryError("consecutive segments on the same axis (backtracking)")
    for i in range(len(segs)):
        for j in range(i + 2, len(segs)):
            pt, ov = segment_intersection(segs[i], segs[j])
            if pt is not None or ov is not None:
                raise GeometryError("path is not simple")
    return scaled(pts), tuple(pts), tuple(segs)


def ranked_corners(paths: Sequence):
    """(xs, ys, ranked): the sorted distinct corner coordinates of `paths`
    and each path's corners as (x rank, y rank) pairs, in path order."""
    xs = sorted({c.x for p in paths for c in p.corners})
    ys = sorted({c.y for p in paths for c in p.corners})
    x_rank = {x: r for r, x in enumerate(xs)}
    y_rank = {y: r for r, y in enumerate(ys)}
    return xs, ys, [[(x_rank[c.x], y_rank[c.y]) for c in p.corners] for p in paths]


def read_representation_text(text: str) -> list:
    """[(label, scaled)] of a representation file, or the reader's error:
    the reader that split each token and parsed each coordinate on its own,
    on `parsed_ratio` and `validated`."""
    assignment = {}
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln:
            continue
        if " : " not in ln:
            raise ValidationError(f"bad representation line {ln!r}")
        label, rest = ln.split(" : ", 1)
        ratios = []
        for tok in rest.split():
            if not (tok.startswith("(") and tok.endswith(")")):
                raise ValidationError(f"bad corner token {tok!r}")
            xy = tok[1:-1].split(",")
            if len(xy) != 2:
                raise ValidationError(f"bad corner token {tok!r}")
            ratios.append((*parsed_ratio(xy[0]), *parsed_ratio(xy[1])))
        label = label.strip()
        if label in assignment:
            raise ValidationError(f"duplicate label {label!r}")
        assignment[label] = validated(
            [(Fraction(xn, xd), Fraction(yn, yd)) for xn, xd, yn, yd in ratios])[0]
    return list(assignment.items())
