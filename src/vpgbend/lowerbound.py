"""Good k-set enumeration, bend lower-bound certificates, counting validators,
and the auxiliary planar graphs built from proper representations.

Probe enumeration is event-driven: the set of paths met by an axis-parallel
probe can only change when one of its coordinates crosses a segment endpoint
or a segment line, so sweeping a refined position set (every event coordinate
plus two interior points per open cell plus one value beyond each extreme) is
exhaustive, and every realizable hit-set gets a positive-length witness.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import ConstructionError, DomainError, ParameterError
from .geometry import (
    HORIZONTAL,
    VERTICAL,
    Point,
    Segment,
    bend_count,
    segment_intersection,
    segment_tables,
)
from .graphs import Graph, Label
from .representation import (
    VpgRepresentation,
    clique_hit_sequence,
    is_proper,
    leaf_trim_window,
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
    xs, ys, _, _ = segment_tables(ra.assignment.values())
    return InducedGrid(x_lines=tuple(xs), y_lines=tuple(ys))


@dataclass(frozen=True)
class GoodKSet:
    members: Tuple[Label, ...]
    orientation: str
    witness: Segment


def _positions(events: Sequence[int]) -> List[int]:
    """Probe positions around sorted event codes 3 * rank, as codes that order
    like the coordinates: one below the first event, each event e with the
    1/3 and 2/3 points e + 1 and e + 2 of the gap above it, one above the last."""
    out = [events[0] - 1]
    for e in events[:-1]:
        out.extend((e, e + 1, e + 2))
    out.extend((events[-1], events[-1] + 1))
    return out


def _coordinate(values: Sequence[Fraction], events: Sequence[int], code: int) -> Fraction:
    """The coordinate of position `code` of `_positions(events)`, where event
    3 * r lies at values[r]: a - 1 below the first event a, a + 1 above the
    last, else a + (code - event) * gap / 3 from the event a at or below."""
    at = bisect_right(events, code) - 1
    if at < 0:
        return values[events[0] // 3] - 1
    a = values[events[at] // 3]
    if at + 1 == len(events):
        return a + (code - events[at])
    return a + (code - events[at]) * (values[events[at + 1] // 3] - a) / 3


def _probe_sets_one_axis(xs, ys, hs, vs, k: int) -> Dict[int, tuple]:
    """Every nonempty hit-set of at most k paths of probes along the y axis.

    Over the tables of `segment_tables`, a probe at x meets the horizontals
    spanning x in points and the verticals on x in intervals (the atoms).
    Called on the transposed tables (ys, xs, vs, hs) it gives the probes
    along the x axis.  Keys are int masks over path indices (bit li for path
    li); each maps to the int codes (x, events, ya, yb) of its first probe,
    which `_coordinate` maps back to exact coordinates.  The x positions are
    those of `_positions` except the two beyond the ends, which meet nothing,
    and the 2/3 point of each cell, which meets what its 1/3 point meets.
    """
    opening: Dict[int, list] = {}
    for y, lo, hi, li in hs:
        opening.setdefault(lo, []).append((hi, 3 * y, 1 << li))
    on_line: Dict[int, list] = {}
    for x, lo, hi, li in vs:
        on_line.setdefault(x, []).append((3 * lo, 3 * hi, 1 << li))
    found: Dict[int, tuple] = {}
    spanning: list = []  # (hi, 3 * y, path bit) of the horizontals at the current x
    for r in range(len(xs)):
        spanning += opening.get(r, ())
        intervals = on_line.get(r, [])
        columns = [(3 * r, intervals, intervals + [(y, y, bit) for _, y, bit in spanning])]
        spanning = [h for h in spanning if h[0] > r]
        if spanning:
            columns.append((3 * r + 1, [], [(y, y, bit) for _, y, bit in spanning]))
        for x, intervals, atoms in columns:
            atoms.sort()
            events = sorted({e for lo, hi, _ in atoms for e in (lo, hi)})
            pos = _positions(events)
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


def _probe_sweep(ra: VpgRepresentation, k: int):
    """(xs, ys, vertical, horizontal): `_probe_sets_one_axis` on both axes."""
    if k < 1:
        raise ParameterError("need k >= 1")
    xs, ys, hs, vs = segment_tables(ra.assignment.values())
    return xs, ys, _probe_sets_one_axis(xs, ys, hs, vs, k), _probe_sets_one_axis(ys, xs, vs, hs, k)


def _members(labels: Sequence[Label], mask: int) -> List[Label]:
    return [label for i, label in enumerate(labels) if mask >> i & 1]


def enumerate_good_sets(ra: VpgRepresentation, k: int) -> List[GoodKSet]:
    """Every k-subset of path labels met exactly by some axis-parallel probe.

    One witness probe per set; a set realizable by both orientations is
    reported once (vertical witness preferred).
    """
    labels = ra.labels()
    xs, ys, vertical, horizontal = _probe_sweep(ra, k)
    sets = []
    for orientation, found, us, ws in ((VERTICAL, vertical, xs, ys), (HORIZONTAL, horizontal, ys, xs)):
        for mask, (x, events, ya, yb) in found.items():
            if mask.bit_count() != k or (found is horizontal and mask in vertical):
                continue
            u = _coordinate(us, range(0, 3 * len(us), 3), x)
            ends = (_coordinate(ws, events, ya), _coordinate(ws, events, yb))
            witness = Segment(*(Point(u, c) if found is vertical else Point(c, u) for c in ends))
            members = tuple(sorted(_members(labels, mask), key=str))
            sets.append(GoodKSet(members, orientation, witness))
    # type name first: labels of two types (ints and tuples) are never compared
    return sorted(sets, key=lambda gs: [(type(label).__name__, label) for label in gs.members])


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
    xs, ys, hs, vs = segment_tables(ra.assignment.values())
    out: List[frozenset] = []
    for lines, across in ((xs, hs), (ys, vs)):
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


def certificate_candidates(ra: VpgRepresentation, k: int) -> List[frozenset]:
    """Every nonempty probe hit-set of at most k paths, reusable across targets."""
    labels = ra.labels()
    _, _, vertical, horizontal = _probe_sweep(ra, k)
    return [frozenset(_members(labels, mask)) for mask in {**vertical, **horizontal}]


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
    unrealizable).  Pass `candidates` from `certificate_candidates(ra, k)` to
    amortize the probe sweep over many targets of size k.
    """
    t = frozenset(target)
    k = len(t)
    if k < 1:
        raise ParameterError("empty target set")
    if candidates is None:
        candidates = certificate_candidates(ra, k)
    c = max((len(s) for s in candidates if s <= t), default=0)
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
    a = 8 * n * n * (t + 1) ** 2 <= 2 * n * n * k * k
    if k >= 5:
        b = math.factorial(k) < (
            math.factorial(-(-k // 2)) * math.factorial(k // 2) * math.factorial(k - 5)
        )
    else:
        b = None
    c = 2 * n * n * k * k * math.factorial(k) < n * (n - 1) * (n - 2)
    if k >= 3:
        lhs = 2 * n * n * k * k * (k - 3) * math.comb(k, -(-k // 2)) * math.comb(n - k, k - 3)
        d = lhs < math.comb(n, k)
    else:
        d = None
    return CountingReport(
        observation_bound=a, factorial_split=b, simplified_growth=c, claim_chain=d
    )


def count_good_sets_vs_bound(ra: VpgRepresentation, k: int, t: int) -> Tuple[int, int, bool]:
    """(number of good k-sets, 8 n^2 (t+1)^2, count <= bound)."""
    n = len(ra)
    worst = max((bend_count(p) for p in ra.assignment.values()), default=0)
    if worst > t:
        raise ParameterError(f"a path has {worst} bends, above the declared t={t}")
    count = len(enumerate_good_sets(ra, k))
    bound = 8 * n * n * (t + 1) ** 2
    return count, bound, count <= bound


# ---------------------------------------------------------------------------
# auxiliary graphs of proper representations of the 3-subset split graph


def classify_sh_sv(rep: VpgRepresentation, clique_verts, indep_verts):
    """Partition-cover (S_H, S_V): b lands in S_H when it meets horizontal
    segments of at least two of its three clique neighbors, S_V symmetrically."""
    clique_verts = list(clique_verts)
    s_h, s_v = [], []
    for b in indep_verts:
        hits = clique_hit_sequence(rep, b, clique_verts)
        nbrs = {a for a, *_ in hits}
        if len(nbrs) < 3:
            raise DomainError(f"independent vertex {b!r} meets {len(nbrs)} clique paths")
        met = {HORIZONTAL: set(), VERTICAL: set()}
        for a, _, idx, _ in hits:
            met[rep.path(a).segments()[idx].orientation].add(a)
        if len(met[HORIZONTAL]) >= 2:
            s_h.append(b)
        if len(met[VERTICAL]) >= 2:
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
    report = is_proper(rep)
    if not report.ok:
        raise DomainError("representation is not proper: " + "; ".join(report.violations[:3]))
    clique_verts = list(clique_verts)
    tag = {HORIZONTAL: "h", VERTICAL: "v"}
    vertices = {HORIZONTAL: [], VERTICAL: []}
    for a in clique_verts:
        for idx, seg in enumerate(rep.path(a).segments()):
            vertices[seg.orientation].append((tag[seg.orientation], a, idx))
    f = {orientation: Graph(vs) for orientation, vs in vertices.items()}
    for b in indep_verts:
        hits = clique_hit_sequence(rep, b, clique_verts)
        lo, hi = leaf_trim_window([a for a, *_ in hits])
        walks = {HORIZONTAL: [], VERTICAL: []}
        for a, _, idx, _ in hits[lo : hi + 1]:
            orientation = rep.path(a).segments()[idx].orientation
            walks[orientation].append((tag[orientation], a, idx))
        for orientation, walk in walks.items():
            for u, v in zip(walk, walk[1:]):
                if u != v:
                    f[orientation].add_edge(u, v)
    f_h, f_v = f[HORIZONTAL], f[VERTICAL]
    return f_h, f_v, _contract_same_path_edges(f_h), _contract_same_path_edges(f_v)


def is_planar(g: Graph) -> bool:
    """Planarity via the standard linear-time test."""
    import networkx as nx  # here, so that a process that tests no planarity never imports it

    ng = nx.Graph()
    ng.add_nodes_from(g.vertices)
    ng.add_edges_from(g.edges())
    ok, _ = nx.check_planarity(ng, counterexample=False)
    return ok
