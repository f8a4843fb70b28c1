"""Good k-set enumeration, bend lower-bound certificates, counting validators,
and the auxiliary planar graphs built from proper representations.

Probe enumeration is event-driven: the set of paths met by an axis-parallel
probe can only change where one of its coordinates crosses a segment endpoint
or line.  Probes on each line and a third into each cell, started below the
first event or a third into a gap and grown to each event above, are
exhaustive, and every realizable hit-set gets a positive-length witness.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations, repeat
from operator import xor
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import DomainError, ParameterError
from .geometry import HORIZONTAL, VERTICAL, Point, Segment
from .graphs import Graph, Label, label_str
from .planarity import is_planar  # the F_h/F_v chain's test, named here too
from .representation import (
    VpgRepresentation,
    _contact_table,
    _hit_walk,
    _known_labels,
    is_proper,
    leaf_trim_window,
    max_bends,
)


@dataclass(frozen=True)
class InducedGrid:
    """Lines extending every segment of the clique paths plus the endpoint
    lines: each corner is a path end or joins a horizontal and a vertical
    segment, so these are exactly the distinct corner coordinates."""

    x_lines: Tuple[Fraction, ...]
    y_lines: Tuple[Fraction, ...]


def induced_grid(ra: VpgRepresentation) -> InducedGrid:
    if not ra.assignment:
        raise DomainError("empty representation has no grid")
    table = _contact_table(ra)
    return InducedGrid(*(tuple(Fraction(v, table.den) for v in vs) for vs in (table.xs, table.ys)))


@dataclass(frozen=True)
class GoodKSet:
    members: Tuple[Label, ...]
    orientation: str
    witness: Segment


def _coordinate(values: Sequence[int], den: int, events: Sequence[int], code: int) -> Fraction:
    """The coordinate of a probe code around sorted event codes 3 * rank, where
    event 3 * r lies at values[r] / den: a - 1 below the first event a, a + 1
    above the last, else a + (code - event) * gap / 3 from the event a at or
    below, so the codes e + 1 and e + 2 are the 1/3 and 2/3 points of a gap."""
    at = bisect_right(events, code) - 1
    if at < 0:
        return Fraction(values[events[0] // 3] - den, den)
    a = values[events[at] // 3]
    if at + 1 == len(events):
        return Fraction(a + (code - events[at]) * den, den)
    return Fraction(3 * a + (code - events[at]) * (values[events[at + 1] // 3] - a), 3 * den)


def _probe_sets_one_axis(width: int, hs, vs, k: int, held=(), missing: int = 0) -> Dict[int, tuple]:
    """Every nonempty hit-set of at most k paths of probes along the y axis.

    Over the segment rows of a rank table, whose x ranks run below `width`, a
    probe at x meets the horizontals spanning x in points and the verticals
    on x in intervals (the atoms).  Called on the transposed tables (vs, hs)
    and the count of y ranks it gives the probes along the x axis.  Keys are
    int masks over path indices (bit li for path li); each maps to the int
    codes (x, events, ya, yb) of its first probe, which `_coordinate` maps
    back to exact coordinates.

    x runs over each line 3 * rank and the 1/3 point of each cell (its 2/3
    point meets the same); the rows of the horizontals carry from column to
    column, each path bit XORed in where its horizontal opens and out after
    it closes, as a simple path has at most one horizontal across x on a
    line.  In each column a probe starts below the first atom end (event)
    and at the 1/3 point e + 1 of each gap, then grows up one row of atoms at
    a time.  Any other start repeats a subsequence of an earlier run: at a
    gap's 2/3 point or closing event it sees the intervals across it and the
    atoms above it that the gap's 1/3 point sees, at the first event those
    that the start below it sees.  So does a start whose predecessor met the
    same intervals across it and began one row lower, on a row of no path
    beyond those and this start's first row.

    Given `missing` > 0, the sweep returns once it has recorded that many
    sets that are not keys of `held`; the default 0 never counts down to 0
    again, so the four-argument call sweeps to the end.
    """
    opening, closing, on_line = {}, {}, {}
    for y, lo, hi, li in hs:
        opening.setdefault(lo, []).append((3 * y, 1 << li))
        closing.setdefault(hi, []).append((3 * y, 1 << li))
    for x, lo, hi, li in vs:
        on_line.setdefault(x, []).append((3 * lo, 3 * hi, 1 << li))
    found, rows = {}, {}  # rows: y code -> the paths of the horizontals across the current x
    for r in range(width):
        # line r has the horizontals opening at r, the cell right of it not those closing at r
        for x, moves, intervals in ((3 * r, opening, on_line.get(r)), (3 * r + 1, closing, None)):
            for y, bit in moves.get(r, ()):
                rows[y] = rows.get(y, 0) ^ bit
                if not rows[y]:
                    del rows[y]
            if not (rows or intervals):
                break
            if intervals:
                starting, ends = dict(rows), {}  # the paths starting, and starting or ending, at y
                for lo, hi, bit in intervals:
                    starting[lo] = starting.get(lo, 0) | bit
                    ends[lo] = ends.get(lo, 0) ^ bit
                    ends[hi] = ends.get(hi, 0) ^ bit
                column = sorted({**dict.fromkeys(ends, 0), **starting}.items())
                across = accumulate([ends.get(e, 0) for e, _ in column], xor, initial=0)
            else:
                column, across = sorted(rows.items()), repeat(0)
            # start i lies below the i-th event and meets across[i] across it
            events = [e for e, _ in column]
            ya, last_b, last_hit = events[0] - 1, 0, -1
            for i, ((e, b), hit) in enumerate(zip(column, across)):
                start, ya = ya, e + 1
                skip = hit == last_hit and last_b | hit | b == hit | b
                last_b, last_hit = b, hit
                if skip or hit.bit_count() > k:
                    continue
                if hit and hit not in found:
                    found[hit] = (x, events, start, start + 1)
                    missing -= hit not in held
                    if not missing:
                        return found
                for yb, b in column[i:]:
                    if hit | b == hit:
                        continue
                    hit |= b
                    if hit.bit_count() > k:
                        break
                    if hit not in found:
                        found[hit] = (x, events, start, yb)
                        missing -= hit not in held
                        if not missing:
                            return found
    return found


def _probe_sweep(ra: VpgRepresentation, k: int):
    """(den, xs, ys, vertical, horizontal): `_probe_sets_one_axis` on both axes.

    Each stops once the two axes hold all N nonempty sets of at most k of the
    n paths, after which no probe can record a new key: the vertical sweep
    after its N-th set, the horizontal one after the set that brings the
    union to N, and the horizontal one does not run if the vertical one holds
    all N.  So the vertical dict is whole, and the horizontal one is a prefix
    of the full sweep's that lacks only sets the vertical one holds: good
    sets, witnesses, candidates and their order are those of full sweeps.
    """
    if k < 1:
        raise ParameterError("need k >= 1")
    table = _contact_table(ra)
    xs, ys, hs, vs = table.xs, table.ys, table.hs, table.vs
    # N = C(n, 1) + ... + C(n, min(k, n)), each binomial made from the one before
    n = len(ra)
    binomials = accumulate(range(1, min(k, n) + 1), lambda c, j: c * (n + 1 - j) // j, initial=1)
    missing = sum(binomials) - 1
    vertical = _probe_sets_one_axis(len(xs), hs, vs, k, (), missing)
    missing -= len(vertical)
    horizontal = _probe_sets_one_axis(len(ys), vs, hs, k, vertical, missing) if missing else {}
    return table.den, xs, ys, vertical, horizontal


def _members(labels: Sequence[Label], mask: int) -> List[Label]:
    out = []
    while mask:  # lowest set bit first
        low = mask & -mask
        out.append(labels[low.bit_length() - 1])
        mask ^= low
    return out


def enumerate_good_sets(ra: VpgRepresentation, k: int) -> List[GoodKSet]:
    """Every k-subset of path labels met exactly by some axis-parallel probe.

    One witness probe per set; a set realizable by both orientations is
    reported once (vertical witness preferred).
    """
    labels = ra.labels()
    den, xs, ys, vertical, horizontal = _probe_sweep(ra, k)
    sets = []
    for orientation, found, us, ws in ((VERTICAL, vertical, xs, ys), (HORIZONTAL, horizontal, ys, xs)):
        for mask, (x, events, ya, yb) in found.items():
            if mask.bit_count() != k or (found is horizontal and mask in vertical):
                continue
            u = _coordinate(us, den, range(0, 3 * len(us), 3), x)
            ends = (_coordinate(ws, den, events, ya), _coordinate(ws, den, events, yb))
            witness = Segment(*(Point(u, c) if found is vertical else Point(c, u) for c in ends))
            members = tuple(sorted(_members(labels, mask), key=str))
            sets.append(GoodKSet(members, orientation, witness))
    # type name first: labels of two types (ints and tuples) are never compared
    return sorted(sets, key=lambda gs: [(type(label).__name__, label) for label in gs.members])


def probe_hit_set(ra: VpgRepresentation, probe: Segment) -> frozenset:
    """Labels of paths met by a probe segment (independent witness re-check).

    An axis-parallel segment is its own bounding box, so a path meets the
    probe iff the box of one of its segments meets the probe's.  Each path's
    own ints are compared with the probe's ends over a common denominator,
    with no ranking or sweep shared with the probe sweep that this checks.
    """
    ends = (probe.a.x, probe.a.y, probe.b.x, probe.b.y)
    pden = math.lcm(*(c.denominator for c in ends))
    box = [c.numerator * (pden // c.denominator) for c in ends]
    hit = set()
    for label, path in ra.assignment.items():
        den, *flat = path._scaled
        # the probe and the path over the common denominator den * pden
        x0, y0, x1, y1 = (v * den for v in box)
        xs, ys = [x * pden for x in flat[::2]], [y * pden for y in flat[1::2]]
        if any(
            min(ax, bx) <= x1 and x0 <= max(ax, bx) and min(ay, by) <= y1 and y0 <= max(ay, by)
            for ax, bx, ay, by in zip(xs, xs[1:], ys, ys[1:])
        ):
            hit.add(label)
    return frozenset(hit)


def kset_distance(s1: Iterable, s2: Iterable) -> int:
    """|S1 \\ S2| for equal-size sets."""
    f1, f2 = frozenset(s1), frozenset(s2)
    if len(f1) != len(f2):
        raise DomainError("k-set distance needs equal-size sets")
    return len(f1 - f2)


def strip_small_sets(ra: VpgRepresentation, k: int) -> List[frozenset]:
    """For each grid strip met by fewer than k paths, the set of those paths.

    A vertical strip is crossed only by horizontal segments (vertical segments
    lie on grid lines), so its unique maximal probe hit-set is exactly the set
    of paths with a horizontal segment spanning the strip interior; similarly
    for horizontal strips.  Vertical strips come first, each axis in order.
    """
    if not ra.assignment:
        raise DomainError("empty representation has no grid")
    labels = ra.labels()
    table = _contact_table(ra)
    out: List[frozenset] = []
    for lines, across in ((table.xs, table.hs), (table.ys, table.vs)):
        strips = [set() for _ in lines[1:]]
        for _, lo, hi, li in across:
            for r in range(lo, hi):
                strips[r].add(labels[li])
        out.extend(frozenset(members) for members in strips if 0 < len(members) < k)
    return out


def find_far_kset(good_sets: Iterable[Iterable], n: int, k: int) -> Optional[Tuple[int, ...]]:
    """First k-subset of [n] at distance > k-3 from every given k-set, or None."""
    sets = [frozenset(s) for s in good_sets]
    for t in combinations(range(1, n + 1), k):
        ft = frozenset(t)
        if all(len(ft - s) > k - 3 for s in sets):
            return t
    return None


class _Candidates(list):
    """The hit-sets of `certificate_candidates`, with a frozenset of them, a
    copy of the label -> path map and the k that they were swept for."""


def certificate_candidates(ra: VpgRepresentation, k: int) -> List[frozenset]:
    """Every nonempty probe hit-set of at most k paths, reusable across targets."""
    labels = ra.labels()
    *_, vertical, horizontal = _probe_sweep(ra, k)
    out = _Candidates(frozenset(_members(labels, mask)) for mask in {**vertical, **horizontal})
    out.sets, out.paths, out.k = frozenset(out), dict(ra.assignment), k
    return out


def bend_lb_certificate(
    ra: VpgRepresentation,
    target: Iterable,
    candidates: Optional[List[frozenset]] = None,
) -> Optional[int]:
    """Bend lower bound for any path meeting exactly the clique paths of `target`.

    With c = max |S| over the candidate sets S contained in the k-set target,
    such a path needs at least ceil(k/c) segments.  Sound: the hit-sets of its
    segments cover the target, each is a probe hit-set S of the target with
    |S| <= k, and `certificate_candidates(ra, k)` records every nonempty such
    S.  Returns None when c = 0 (no probe meets only target members:
    unrealizable).  Pass `candidates` from `certificate_candidates(ra, j)`
    with j >= k to amortize the probe sweep over many targets; any other
    list, which may miss some S and so overstate the bound, is a
    `ParameterError`.
    """
    t = frozenset(_known_labels(ra, target))
    k = len(t)
    if k < 1:
        raise ParameterError("empty target set")
    if candidates is None:
        candidates = certificate_candidates(ra, k)
    elif not (isinstance(candidates, _Candidates) and candidates.k >= k
              and candidates.paths == ra.assignment):
        raise ParameterError(f"candidates are not from certificate_candidates(ra, j) with j >= {k}")
    # a target that is a hit-set itself holds the largest S <= t, so c = k
    c = k if t in candidates.sets else max((len(s) for s in candidates if s <= t), default=0)
    if c == 0:
        return None
    return -(-k // c) - 1


@dataclass(frozen=True)
class CountingReport:
    """Exact big-integer checks of the counting chain."""

    observation_bound: bool          # 8 n^2 (t+1)^2 <= 2 n^2 k^2
    factorial_split: Optional[bool]  # k! < ceil(k/2)! floor(k/2)! (k-5)!
    simplified_growth: bool          # 2 n^2 k^2 k! < n(n-1)(n-2)
    claim_chain: Optional[bool]      # 2 n^2 k^2 (k-3) C(k,ceil k/2) C(n-k,k-3) < C(n,k)

    def all_defined_true(self) -> bool:
        return all(v for v in (self.observation_bound, self.factorial_split,
                               self.simplified_growth, self.claim_chain)
                   if v is not None)

    def lines(self) -> List[str]:
        def show(v):
            return "undefined" if v is None else ("true" if v else "false")

        return [
            f"(a) 8n^2(t+1)^2 <= 2n^2k^2: {show(self.observation_bound)}",
            f"(b) k! < ceil(k/2)! floor(k/2)! (k-5)!: {show(self.factorial_split)}",
            f"(c) 2n^2k^2 k! < n(n-1)(n-2): {show(self.simplified_growth)}",
            f"(d) 2n^2k^2(k-3) C(k,ceil(k/2)) C(n-k,k-3) < C(n,k): {show(self.claim_chain)}",
        ]


def validate_counting(n: int, k: int, t: int) -> CountingReport:
    """Evaluate the counting inequalities exactly with arbitrary precision."""
    if not (n > k >= 1) or t < 0:
        raise ParameterError(f"need n > k >= 1 and t >= 0, got n={n}, k={k}, t={t}")
    f, comb = math.factorial, math.comb
    a = 8 * n * n * (t + 1) ** 2 <= 2 * n * n * k * k
    b = f(k) < f(-(-k // 2)) * f(k // 2) * f(k - 5) if k >= 5 else None
    c = 2 * n * n * k * k * f(k) < n * (n - 1) * (n - 2)
    d = (2 * n * n * k * k * (k - 3) * comb(k, -(-k // 2)) * comb(n - k, k - 3) < comb(n, k)
         if k >= 3 else None)
    return CountingReport(a, b, c, d)


def _good_set_bound(ra: VpgRepresentation, t: int) -> int:
    """8 n^2 (t+1)^2, once t >= 0 and every path is checked to have at most t bends."""
    if t < 0:
        raise ParameterError(f"need t >= 0, got t={t}")
    n, worst = len(ra), max_bends(ra)
    if worst > t:
        raise ParameterError(f"a path has {worst} bends, above the declared t={t}")
    return 8 * n * n * (t + 1) ** 2


def count_good_sets_vs_bound(ra: VpgRepresentation, k: int, t: int) -> Tuple[int, int, bool]:
    """(number of good k-sets, 8 n^2 (t+1)^2, count <= bound)."""
    bound = _good_set_bound(ra, t)
    count = sum(mask.bit_count() == k for mask in set().union(*_probe_sweep(ra, k)[3:]))
    return count, bound, count <= bound


# ---------------------------------------------------------------------------
# auxiliary graphs of proper representations of the 3-subset split graph


def classify_sh_sv(rep: VpgRepresentation, clique_verts, indep_verts):
    """Partition-cover (S_H, S_V): b lands in S_H when it meets horizontal
    segments of at least two of its three clique neighbors, S_V symmetrically.

    Every clique path b meets is met on a horizontal or a vertical segment,
    so once b meets three of them one axis holds two, and S_H and S_V cover
    the independent set."""
    clique_verts, indep_verts = _known_labels(rep, clique_verts), _known_labels(rep, indep_verts)
    table, lines, s_h, s_v = _contact_table(rep), {}, [], []
    for b in indep_verts:
        hits = _hit_walk(table, b, clique_verts, lines)
        met = {vertex[:2] for _, _, vertex, _, _ in hits}
        nbrs = {a for _, a in met}
        if len(nbrs) < 3:
            raise DomainError(f"independent vertex {label_str(b)} meets {len(nbrs)} clique paths")
        tags = [tag for tag, _ in met]
        if tags.count("h") >= 2:
            s_h.append(b)
        if tags.count("v") >= 2:
            s_v.append(b)
    return tuple(s_h), tuple(s_v)


def _contract_same_path_edges(f: Graph) -> Graph:
    parent = {v: v for v in f.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    edges = f.edges()
    for u, v in edges:
        if u[1] == v[1]:  # same clique path owns both segments
            parent[find(v)] = find(u)
    root = {v: find(v) for v in f.vertices}
    out = Graph(dict.fromkeys(root.values()))
    for u, v in edges:
        if root[u] != root[v]:
            out.add_edge(root[u], root[v])
    return out


def build_auxiliary_fh_fv(rep: VpgRepresentation, clique_verts, indep_verts):
    """(F_h, F_v, F'_h, F'_v) for a proper representation.

    F_h has one vertex per horizontal segment of a clique path; consecutive
    horizontal hits of an independent path contribute an edge.  F'_h contracts
    the edges joining segments of the same clique path.  F_v / F'_v mirror the
    construction on vertical segments.

    Each independent path is first trimmed by the recurring-leaf rule; only
    hits inside the surviving window generate edges (the window equals the hit
    sequence of the trimmed subpath, so the given representation stays whole
    and proper).
    """
    clique_verts, indep_verts = _known_labels(rep, clique_verts), _known_labels(rep, indep_verts)
    report = is_proper(rep)
    if not report.ok:
        raise DomainError("representation is not proper: " + "; ".join(report.violations[:3]))
    table, lines = _contact_table(rep), {}
    ranked = table.ranked  # every clique segment's vertex, in index order
    segments = [("h" if ay == by else "v", a, idx) for a in clique_verts
                for idx, ((_, ay), (_, by)) in enumerate(zip(ranked[a], ranked[a][1:]))]
    f = {tag: Graph(s for s in segments if s[0] == tag) for tag in "hv"}
    for b in indep_verts:
        hits = _hit_walk(table, b, clique_verts, lines)
        lo, hi = leaf_trim_window([a for a, *_ in hits])
        walk = [vertex for _, _, vertex, _, _ in hits[lo : hi + 1]]
        for tag, g in f.items():
            steps = [s for s in walk if s[0] == tag]
            for u, v in zip(steps, steps[1:]):
                if u != v:
                    g.add_edge(u, v)
    return f["h"], f["v"], _contract_same_path_edges(f["h"]), _contract_same_path_edges(f["v"])
