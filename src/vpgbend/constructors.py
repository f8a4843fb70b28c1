"""Explicit bend-bounded representations of the split-graph families.

Four constructions live here, plus the Hamiltonian-cycle machinery that the
clique layout of `construct_k3n_proper` is built on:

* `construct_split_upper` - every split graph, clique paths threading the
  horizontal label segments of their independent neighbors.
* `construct_k2n_proper`  - proper 1-bend layout for the 2-subset split graph
  (nested L-shapes plus one hook per 2-subset).
* `construct_gtm_stairs`  - proper (2k-3)-bend staircases realizing the
  clique + k-subset family with a complete subset clique.
* `construct_k3n_proper`  - proper representation of the 3-subset split graph
  with at most 2n+4 bends per path, via square regions labeled by
  edge-disjoint Hamiltonian cycle sequences.

All coordinates are exact rationals; every epsilon offset is an explicit
fraction so identical inputs give bit-identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .errors import ConstructionError, ParameterError
from .geometry import RectPath
from .graphs import Graph, SplitPartition, check_split_partition, ksubsets
from .representation import VpgRepresentation, _contact_table

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


# ---------------------------------------------------------------------------
# split upper bound


def construct_split_upper(g: Graph, part: SplitPartition) -> VpgRepresentation:
    """Representation of a split graph with 2(|N(v) cap I|-1)+1 bends per
    clique path and 0 bends per independent path.

    The j-th independent vertex gets a vertical segment crossing the
    horizontal label segment l_j = (2j,2j)-(2j+1,2j); each clique path starts
    near the origin and threads its label segments with 1-bend connectors.
    """
    check_split_partition(g, part)
    c_verts = list(part.clique)
    i_verts = list(part.independent)
    assignment: Dict = {}

    for j, u in enumerate(i_verts, start=1):
        x = 2 * j + HALF
        assignment[u] = RectPath([(x, 2 * j - HALF), (x, 2 * j + HALF)])

    jindex = {u: j for j, u in enumerate(i_verts, start=1)}
    rows = {v: sorted(jindex[u] for u in g.neighbors(v) if u in jindex) for v in c_verts}

    # smaller first-row vertices get smaller start offsets so that every
    # clique pair crosses near the origin
    c = len(c_verts)
    by_first_row = sorted(range(c), key=lambda t: (rows[c_verts[t]][0] if rows[c_verts[t]] else 0, t))
    offset = {}
    for rank, t in enumerate(by_first_row, start=1):
        offset[c_verts[t]] = Fraction(rank, c + 1)

    for v in c_verts:
        js = rows[v]
        if not js:
            # no independent neighbor: a flat segment through every start point
            assignment[v] = RectPath([(0, 0), (1, 0)])
            continue
        o = offset[v]
        corners = [(o, Fraction(0)), (o, Fraction(2 * js[0]))]
        for idx, j in enumerate(js):
            corners.append((Fraction(2 * j + 1), Fraction(2 * j)))
            if idx + 1 < len(js):
                corners.append((Fraction(2 * j + 1), Fraction(2 * js[idx + 1])))
        assignment[v] = RectPath(corners)

    ordered = {v: assignment[v] for v in list(c_verts) + list(i_verts)}
    return VpgRepresentation(ordered)


# ---------------------------------------------------------------------------
# Hamiltonian decompositions


@dataclass(frozen=True)
class HamiltonianDecomposition:
    """2s edge-disjoint Hamiltonian cycles covering the complete graph on
    4s+1 vertices (labels 1..4s+1)."""

    vertex_count: int
    cycles: Tuple[Tuple[int, ...], ...]


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _step_cycles(n_verts: int, count: int) -> List[Tuple[int, ...]]:
    # cycle j walks 1-based labels with stride j from j; needs gcd(j, n_verts) = 1
    return [tuple((j - 1 + t * j) % n_verts + 1 for t in range(n_verts))
            for j in range(1, count + 1)]


def _walecki_cycles(s: int) -> List[Tuple[int, ...]]:
    # apex vertex N plus the rotated zigzag path on Z_{2m}, m = 2s
    m = 2 * s
    n_verts = 4 * s + 1
    base = [0]
    for t in range(1, m):
        base.append(t)
        base.append(2 * m - t)
    base.append(m)
    return [(n_verts, *((z + j) % (2 * m) + 1 for z in base)) for j in range(m)]


def hamiltonian_decomposition(s: int) -> HamiltonianDecomposition:
    """Decompose K_{4s+1} into 2s edge-disjoint Hamiltonian cycles.

    When 4s+1 is prime the stride-j rotational cycles are used (these match
    the classical worked example for 13 vertices); otherwise the rotated
    zigzag construction with an apex vertex.
    """
    if s < 1:
        raise ParameterError("need s >= 1")
    n_verts = 4 * s + 1
    cycles = _step_cycles(n_verts, 2 * s) if _is_prime(n_verts) else _walecki_cycles(s)
    return HamiltonianDecomposition(vertex_count=n_verts, cycles=tuple(cycles))


def sequences_from_cycles(d: HamiltonianDecomposition, n: int) -> List[Tuple[int, ...]]:
    """Sequence S_i: cycle C_i started at vertex i, dummies (labels > n)
    skipped, closed by repeating the start label.

    If the distinguished start i is itself a dummy (only possible for n
    smaller than the cycle count), the smallest real label starts instead.
    """
    if n > d.vertex_count:
        raise ParameterError("n exceeds the decomposition's vertex count")
    seqs = []
    for i, cycle in enumerate(d.cycles, start=1):
        start = i if i <= n else min(v for v in cycle if v <= n)
        at = cycle.index(start)
        rotated = cycle[at:] + cycle[:at]
        body = [v for v in rotated if v <= n]
        seqs.append(tuple(body + [start]))
    return seqs


# ---------------------------------------------------------------------------
# proper 1-bend layout for the 2-subset split graph


def construct_k2n_proper(n: int) -> VpgRepresentation:
    """Proper 1-bend representation of the split graph with clique [n] and one
    independent vertex per 2-subset: nested L-shaped clique paths plus a small
    hook nestled at each pairwise crossing."""
    if n < 2:
        raise ParameterError("need n >= 2")
    top = HALF
    x_max = Fraction(n, 2)
    assignment: Dict = {}
    xs = {}
    ys = {}
    for i in range(1, n + 1):
        xs[i] = Fraction(i - 1, 2)
        ys[i] = -Fraction(i - 1, 2)
        assignment[i] = RectPath([(xs[i], top), (xs[i], ys[i]), (x_max, ys[i])])
    for i, j in ksubsets(n, 2):
        corners = [
            (xs[j] - QUARTER, ys[i] + QUARTER),
            (xs[j] - QUARTER, ys[i] - Fraction(1, 5)),
            (xs[j] + Fraction(1, 10), ys[i] - Fraction(1, 5)),
        ]
        assignment[(i, j)] = RectPath(corners)
    return VpgRepresentation(assignment)


# ---------------------------------------------------------------------------
# exposure computation (checked, not assumed)


def _exposures(hs, vs) -> Dict[int, List[Tuple[int, int]]]:
    """Per path index, the [lo, cap) rank interval of each of its horizontal
    segments, in path order, over the segment rows of a rank table: the maximal
    sub-interval anchored at the segment's left end whose open downward rays
    miss every path.  Each segment starting below the target and reaching
    [lo, cap] moves cap down to its left end, not below lo, so cap is the
    least such end whatever the order.  On the transposed tables (vs, hs) it
    gives each vertical segment's exposure from the left.
    """
    out: Dict[int, List[Tuple[int, int]]] = {}
    for y, lo, cap, li in hs:
        for fixed, a, b, _ in hs:
            if fixed < y and a <= cap and b >= lo:
                cap = max(a, lo)
        for fixed, a, _, _ in vs:
            if a < y and lo <= fixed <= cap:
                cap = fixed
        out.setdefault(li, []).append((lo, cap))
    return out


# ---------------------------------------------------------------------------
# staircase construction


def construct_gtm_stairs(n: int, k: int) -> VpgRepresentation:
    """Proper (2k-3)-bend staircase representation of the graph with clique
    [n], one vertex per k-subset attached to its elements, and all pairs of
    k-subset vertices adjacent.

    Clique paths are congruent 3-bend stairs offset along (+x,-y); each
    subset path is a descending stair threaded through computed exposed parts
    of its neighbors.  Requires k >= 3: the subset-subset crossing argument
    uses the third stair segment, which a 1-bend path does not have.
    """
    if k < 3:
        raise ParameterError("staircase construction needs k >= 3")
    if n <= k:
        raise ParameterError("need n > k")
    eps0 = Fraction(1, n + 1)
    a_paths: Dict[int, RectPath] = {}
    shift = {}
    for i in range(1, n + 1):
        t = (i - 1) * eps0
        shift[i] = t
        a_paths[i] = RectPath(
            [(t, -t), (1 + t, -t), (1 + t, -1 - t), (2 + t, -1 - t), (2 + t, -2 - t)]
        )
    table = _contact_table(VpgRepresentation(a_paths))
    den, xs, ys = table.den, table.xs, table.ys
    # path i - 1 holds clique path i; its horizontals are segments 0 and 2,
    # its verticals segments 1 and 3
    below, left = _exposures(table.hs, table.vs), _exposures(table.vs, table.hs)

    def check_inside(value, values, interval, what):
        lo, cap = (Fraction(values[r], den) for r in interval)
        if not (lo < value < cap):
            raise ConstructionError(
                f"{what}: {value} outside computed exposed interval ({lo}, {cap})"
            )

    subsets = ksubsets(n, k)
    m_total = len(subsets)
    assignment: Dict = {i: a_paths[i] for i in range(1, n + 1)}
    for rank, subset in enumerate(subsets, start=1):
        eps = eps0 * Fraction(rank, m_total + 1)
        i1, i2 = subset[0], subset[1]
        x_start = shift[i1] + eps
        check_inside(
            x_start,
            xs,
            below[i1 - 1][0],
            f"start of {subset} on first segment of path {i1}",
        )
        y_run1 = -1 - shift[i2] + eps0 - eps
        check_inside(
            y_run1,
            ys,
            left[i2 - 1][0],
            f"first run of {subset} in exposed zone of path {i2}",
        )
        corners: List[Tuple[Fraction, Fraction]] = [
            (x_start, -shift[i1] + eps),
            (x_start, y_run1),
        ]
        cur_x = 1 + shift[i2] + eps
        corners.append((cur_x, y_run1))
        for r in range(3, k + 1):
            ir = subset[r - 1]
            y_run = -2 - shift[ir] + eps0 - eps
            check_inside(
                y_run,
                ys,
                left[ir - 1][1],
                f"run {r} of {subset} in exposed zone of path {ir}",
            )
            corners.append((cur_x, y_run))
            cur_x = 2 + shift[ir] + eps
            corners.append((cur_x, y_run))
        assignment[subset] = RectPath(corners)
    return VpgRepresentation(assignment)


# ---------------------------------------------------------------------------
# proper representation of the 3-subset split graph


@dataclass(frozen=True)
class SquareRegionLayout:
    """One (n+2) x (n+2) square region: vertical grid lines labeled by one
    visit sequence, horizontal lines by another.

    Both sequences close on their start label, so the leftmost/rightmost
    verticals and the topmost/bottommost horizontals carry equal labels.
    """

    index: int
    origin: Tuple[Fraction, Fraction]
    vertical_labels: Tuple[int, ...]
    horizontal_labels: Tuple[int, ...]

    def __post_init__(self):
        if self.vertical_labels[0] != self.vertical_labels[-1]:
            raise ConstructionError("leftmost/rightmost vertical labels differ")
        if self.horizontal_labels[0] != self.horizontal_labels[-1]:
            raise ConstructionError("topmost/bottommost horizontal labels differ")

    def column(self, label: int) -> int:
        """1-based position of the label's vertical line (first occurrence)."""
        return self.vertical_labels.index(label) + 1

    def row(self, label: int) -> int:
        """1-based position of the label's horizontal line (first occurrence)."""
        return self.horizontal_labels.index(label) + 1


def _square_origin(n: int, i: int) -> Tuple[Fraction, Fraction]:
    x = Fraction(2 * n * i)
    y = Fraction(0) if i % 2 == 1 else HALF
    return x, y


_DELTA = QUARTER


def _op1_corners(X, Y, W, yh):
    """Label owning the leftmost and rightmost verticals of the square."""
    xl, xr = X + 1, X + W - 1
    top, bot = Y + W, Y
    return [
        (X, top),
        (xl, top),
        (xl, bot),
        (xl + _DELTA, bot),
        (xl + _DELTA, yh),
        (xr - _DELTA, yh),
        (xr - _DELTA, top),
        (xr, top),
        (xr, bot),
        (X + W, bot),
    ]


def _op2_corners(X, Y, W, xv):
    """Label owning the bottom and top horizontals of the square."""
    ybot, ytop = Y + 1, Y + W - 1
    return [
        (X, ytop),
        (X + W - _DELTA, ytop),
        (X + W - _DELTA, ytop - _DELTA),
        (xv, ytop - _DELTA),
        (xv, ybot + _DELTA),
        (X + _DELTA, ybot + _DELTA),
        (X + _DELTA, ybot),
        (X + W, ybot),
    ]


def _op3_corners(X, Y, W, xv, yh):
    """Generic label: one vertical, one horizontal, merged with a top detour."""
    return [
        (X, yh),
        (xv - _DELTA, yh),
        (xv - _DELTA, Y + W),
        (xv, Y + W),
        (xv, Y),
        (xv + _DELTA, Y),
        (xv + _DELTA, yh),
        (X + W, yh),
    ]


def construct_k3n_proper(n: int) -> VpgRepresentation:
    """Proper representation of the 3-subset split graph on clique [n] with
    every path bending at most 2n+4 times.

    Up to three dummy vertices bring the clique to 4s+1 vertices; the complete
    graph on them splits into 2s Hamiltonian cycles whose visit sequences
    label the vertical and horizontal grid lines of s square regions.  Merge
    operations turn each label's lines into one curve per square, 2-bend
    connectors at distinct x-coordinates join the squares, and each 3-subset
    vertex becomes a 1-bend corner piece enclosing two crossings on a
    consecutive line pair.
    """
    if n < 3:
        raise ParameterError("need n >= 3")
    s = max(1, -((1 - n) // 4))  # ceil((n-1)/4)
    decomp = hamiltonian_decomposition(s)
    seqs = sequences_from_cycles(decomp, n)
    w = n + 2
    squares = [
        SquareRegionLayout(
            index=i,
            origin=_square_origin(n, i),
            vertical_labels=seqs[i - 1],
            horizontal_labels=seqs[s + i - 1],
        )
        for i in range(1, s + 1)
    ]

    assignment: Dict = {}
    exit_level: Dict[int, List[Fraction]] = {l: [] for l in range(1, n + 1)}
    entry_level: Dict[int, List[Fraction]] = {l: [] for l in range(1, n + 1)}
    square_pieces: Dict[int, List[List[Tuple[Fraction, Fraction]]]] = {
        l: [] for l in range(1, n + 1)
    }

    for sq in squares:
        X, Y = sq.origin
        for l in range(1, n + 1):
            if l == sq.index:
                yh = Y + sq.row(l)
                piece = _op1_corners(X, Y, w, yh)
                entry, exit_ = Y + w, Y
            elif l == s + sq.index:
                xv = X + sq.column(l)
                piece = _op2_corners(X, Y, w, xv)
                entry, exit_ = Y + w - 1, Y + 1
            else:
                piece = _op3_corners(X, Y, w, X + sq.column(l), Y + sq.row(l))
                entry = exit_ = Y + sq.row(l)
            square_pieces[l].append(piece)
            entry_level[l].append(entry)
            exit_level[l].append(exit_)

    for l in range(1, n + 1):
        corners: List[Tuple[Fraction, Fraction]] = []
        for i in range(1, s + 1):
            if i > 1:
                x_prev_edge = _square_origin(n, i - 1)[0] + w
                xc = x_prev_edge + Fraction((2 * n - w) * l, n + 1)
                corners.append((xc, exit_level[l][i - 2]))
                corners.append((xc, entry_level[l][i - 1]))
            corners.extend(square_pieces[l][i - 1])
        assignment[l] = RectPath(corners)

    # one 1-bend corner piece per 3-subset
    for subset in ksubsets(n, 3):
        p, q, r = subset
        found: Optional[Tuple[int, int]] = None
        for l0 in range(1, 2 * s + 1):
            seq = seqs[l0 - 1]
            for j in range(1, n + 1):
                if {seq[j - 1], seq[j]} == {p, q}:
                    found = (l0, j)
                    break
            if found:
                break
        if found is None:
            raise ConstructionError(f"pair {p},{q} adjacent in no sequence")
        l0, j = found
        if l0 <= s:
            # p, q on consecutive verticals of square l0; r's horizontal
            # crosses both, and the piece hugs those two crossings
            sq = squares[l0 - 1]
            X, Y = sq.origin
            h = sq.row(r)
            alpha = Fraction(n + 2 - j, 8 * (n + 2))
            corners = [
                (X + j - alpha, Y + h - alpha),
                (X + j - alpha, Y + h + alpha),
                (X + j + 1 + alpha, Y + h + alpha),
            ]
        else:
            # p, q on consecutive horizontals of square l0 - s; r's vertical
            # crosses both
            sq = squares[l0 - s - 1]
            X, Y = sq.origin
            jr = sq.column(r)
            beta = Fraction(2 * (n + 2 - j) - 1, 16 * (n + 2))
            corners = [
                (X + jr - beta, Y + j + 1 + beta),
                (X + jr - beta, Y + j - beta),
                (X + jr + beta, Y + j - beta),
            ]
        assignment[subset] = RectPath(corners)

    return VpgRepresentation(assignment)
