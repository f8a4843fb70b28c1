"""Fraction probe sweep, kept only to test the integer-rank sweep against.

This is the straightforward form of `induced_grid`, `enumerate_good_sets` and
`strip_small_sets`: every probe position is a `Fraction`, and each one
rescans every segment of every path.  It is slow but shares no code with the
rank-compressed sweep in `vpgbend.lowerbound`.  `probe_hit_set` is the
witness re-check on `segment_intersection` that the int-box re-check in
`vpgbend.lowerbound` replaced.  `certificate` is `bend_lb_certificate`
with c taken by a scan of this module's good j-sets, with no hit-set lookup.

`all_starts_sweep` is the integer sweep over the rank table with a probe
started at every position of each column, not only below the first event and
at the 1/3 point of each gap: the first probe it records for each hit-set,
and the order it records them in, pin those of the sweep in
`vpgbend.lowerbound`.
"""

from bisect import bisect_left
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence

from vpgbend.errors import DomainError, ParameterError
from vpgbend.geometry import HORIZONTAL, VERTICAL, Point, Segment, segment_intersection
from vpgbend.lowerbound import GoodKSet, InducedGrid
from vpgbend.representation import VpgRepresentation


def induced_grid(ra: VpgRepresentation) -> InducedGrid:
    if not ra.assignment:
        raise DomainError("empty representation has no grid")
    xs, ys = set(), set()
    for path in ra.assignment.values():
        for seg in path.segments():
            if seg.orientation == VERTICAL:
                xs.add(seg.a.x)
            else:
                ys.add(seg.a.y)
        for endpoint in (path.corners[0], path.corners[-1]):
            xs.add(endpoint.x)
            ys.add(endpoint.y)
    return InducedGrid(x_lines=tuple(sorted(xs)), y_lines=tuple(sorted(ys)))


def _positions(events: Sequence[Fraction]) -> List[Fraction]:
    if not events:
        return []
    out = [events[0] - 1]
    for a, b in zip(events, events[1:]):
        gap = b - a
        out.extend((a, a + gap / 3, a + 2 * gap / 3))
    out.append(events[-1])
    out.append(events[-1] + 1)
    return out


def _probe_sets_one_axis(ra: VpgRepresentation, k: int, vertical: bool):
    """All exactly-k hit-sets of one probe orientation, with witnesses."""
    labels = list(ra.assignment)

    def lo_coord(pt: Point) -> Fraction:
        return pt.y if vertical else pt.x

    def fix_coord(pt: Point) -> Fraction:
        return pt.x if vertical else pt.y

    events = set()
    for label in labels:
        for seg in ra.path(label).segments():
            along = seg.orientation == (HORIZONTAL if vertical else VERTICAL)
            if along:
                events.add(fix_coord(seg.a))
                events.add(fix_coord(seg.b))
            else:
                events.add(fix_coord(seg.a))
    found: Dict[frozenset, GoodKSet] = {}
    for x in _positions(sorted(events)):
        atoms = []  # (lo, hi, label)
        for label in labels:
            for seg in ra.path(label).segments():
                along = seg.orientation == (HORIZONTAL if vertical else VERTICAL)
                if along:
                    if fix_coord(seg.a) <= x <= fix_coord(seg.b):
                        y = lo_coord(seg.a)
                        atoms.append((y, y, label))
                else:
                    if fix_coord(seg.a) == x:
                        atoms.append((lo_coord(seg.a), lo_coord(seg.b), label))
        if not atoms:
            continue
        ys = set()
        for lo, hi, _ in atoms:
            ys.add(lo)
            ys.add(hi)
        pos = _positions(sorted(ys))
        atoms.sort(key=lambda a: (a[0], a[1]))
        for ai in range(len(pos)):
            ya = pos[ai]
            active = [a for a in atoms if a[1] >= ya]
            hit: set = set()
            ptr = 0
            for bi in range(ai + 1, len(pos)):
                yb = pos[bi]
                while ptr < len(active) and active[ptr][0] <= yb:
                    hit.add(active[ptr][2])
                    ptr += 1
                if len(hit) > k:
                    break
                if len(hit) == k:
                    key = frozenset(hit)
                    if key not in found:
                        if vertical:
                            witness = Segment(Point(x, ya), Point(x, yb))
                        else:
                            witness = Segment(Point(ya, x), Point(yb, x))
                        found[key] = GoodKSet(
                            members=tuple(sorted(hit, key=str)),
                            orientation=VERTICAL if vertical else HORIZONTAL,
                            witness=witness,
                        )
    return found


def enumerate_good_sets(ra: VpgRepresentation, k: int) -> List[GoodKSet]:
    """Every k-subset of path labels met exactly by some axis-parallel probe.

    One witness probe per set; a set realizable by both orientations is
    reported once (vertical witness preferred).
    """
    if k < 1:
        raise ParameterError("need k >= 1")
    found = _probe_sets_one_axis(ra, k, vertical=True)
    for key, gs in _probe_sets_one_axis(ra, k, vertical=False).items():
        found.setdefault(key, gs)
    return [found[key] for key in sorted(found, key=lambda s: tuple(sorted(s, key=str)))]


def certificate(good_sets: Iterable[GoodKSet], target: Iterable) -> Optional[int]:
    """ceil(k/c) - 1 for the k-set target, with c the size of the largest of
    `good_sets` inside it, or None when none is; `good_sets` holds the
    `enumerate_good_sets` of every j <= k."""
    t = frozenset(target)
    c = max((len(gs.members) for gs in good_sets if t.issuperset(gs.members)), default=0)
    return None if c == 0 else -(-len(t) // c) - 1


def strip_small_sets(ra: VpgRepresentation, k: int) -> List[frozenset]:
    """For each grid strip met by fewer than k paths, the set of those paths.

    A vertical strip is crossed only by horizontal segments (vertical segments
    lie on grid lines), so its unique maximal probe hit-set is exactly the set
    of paths with a horizontal segment spanning the strip interior; similarly
    for horizontal strips.
    """
    grid = induced_grid(ra)
    out: List[frozenset] = []
    for lines, orient in ((grid.x_lines, HORIZONTAL), (grid.y_lines, VERTICAL)):
        for g1, g2 in zip(lines, lines[1:]):
            members = set()
            for label, path in ra.assignment.items():
                for seg in path.segments():
                    if seg.orientation != orient:
                        continue
                    lo = seg.a.x if orient == HORIZONTAL else seg.a.y
                    hi = seg.b.x if orient == HORIZONTAL else seg.b.y
                    if lo < g2 and hi > g1:
                        members.add(label)
                        break
            if 0 < len(members) < k:
                out.append(frozenset(members))
    return out


def probe_hit_set(ra: VpgRepresentation, probe: Segment) -> frozenset:
    """Labels of paths met by a probe segment (independent witness re-check)."""
    hit = set()
    for label, path in ra.assignment.items():
        for seg in path.segments():
            pt, ov = segment_intersection(seg, probe)
            if pt is not None or ov is not None:
                hit.add(label)
                break
    return frozenset(hit)


def _int_positions(events: Sequence[int]) -> List[int]:
    """Probe positions around sorted event codes 3 * rank, as codes that order
    like the coordinates: one below the first event, each event e with the
    1/3 and 2/3 points e + 1 and e + 2 of the gap above it, one above the last."""
    out = [events[0] - 1]
    for e in events[:-1]:
        out.extend((e, e + 1, e + 2))
    out.extend((events[-1], events[-1] + 1))
    return out


def all_starts_sweep(width: int, hs, vs, k: int) -> Dict[int, tuple]:
    """`vpgbend.lowerbound._probe_sets_one_axis` with a probe started at every
    position of `_int_positions` in every column: the same (hs, vs) rank
    table rows, the same int mask keys and (x, events, ya, yb) codes."""
    opening: Dict[int, list] = {}
    for y, lo, hi, li in hs:
        opening.setdefault(lo, []).append((hi, 3 * y, 1 << li))
    on_line: Dict[int, list] = {}
    for x, lo, hi, li in vs:
        on_line.setdefault(x, []).append((3 * lo, 3 * hi, 1 << li))
    found: Dict[int, tuple] = {}
    spanning: list = []  # (hi, 3 * y, path bit) of the horizontals at the current x
    for r in range(width):
        spanning += opening.get(r, ())
        intervals = on_line.get(r, [])
        columns = [(3 * r, intervals, intervals + [(y, y, bit) for _, y, bit in spanning])]
        spanning = [h for h in spanning if h[0] > r]
        if spanning:
            columns.append((3 * r + 1, [], [(y, y, bit) for _, y, bit in spanning]))
        for x, intervals, atoms in columns:
            atoms.sort()
            events = sorted({e for lo, hi, _ in atoms for e in (lo, hi)})
            pos = _int_positions(events)
            for ya, yb in zip(pos, pos[1:]):
                # [ya, yb] meets the intervals across ya and the atoms from ya
                # to yb; growing yb changes that only where it reaches an atom
                hit = 0
                for lo, hi, bit in intervals:
                    if lo < ya <= hi:
                        hit |= bit
                at = bisect_left(atoms, (ya,))
                while True:
                    while at < len(atoms) and atoms[at][0] <= yb:
                        hit |= atoms[at][2]
                        at += 1
                    if hit.bit_count() > k:
                        break
                    if hit and hit not in found:
                        found[hit] = (x, events, ya, yb)
                    if at == len(atoms):
                        break
                    yb = atoms[at][0]
    return found
