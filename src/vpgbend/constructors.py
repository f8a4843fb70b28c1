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

Every corner is an int over one denominator D per construction that covers
all of its epsilon offsets, so identical inputs give bit-identical output;
`RectPath` still validates every path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from .errors import ConstructionError, ParameterError
from .geometry import RectPath, _segment_rows
from .graphs import Graph, SplitPartition, check_split_partition, ksubsets
from .representation import VpgRepresentation


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
    # D covers the half units of the verticals and the offsets 1/(c+1)
    c = len(c_verts)
    D = 2 * (c + 1)

    for j, u in enumerate(i_verts, start=1):
        x = (4 * j + 1) * (c + 1)  # 2j + 1/2, and the segment spans 2j ± 1/2
        assignment[u] = RectPath._of_ints(D, [(x, (4 * j - 1) * (c + 1)), (x, x)])

    jindex = {u: j for j, u in enumerate(i_verts, start=1)}
    rows = {v: sorted(jindex[u] for u in g.neighbors(v) if u in jindex) for v in c_verts}

    # smaller first-row vertices get smaller start offsets so that every
    # clique pair crosses near the origin
    by_first_row = sorted(c_verts, key=lambda v: rows[v][:1])
    offset = {v: 2 * rank for rank, v in enumerate(by_first_row, start=1)}

    for v in c_verts:
        js = rows[v]
        if not js:
            # no independent neighbor: a flat segment through every start point
            assignment[v] = RectPath._of_ints(1, [(0, 0), (1, 0)])
            continue
        o = offset[v]
        corners = [(o, 0), (o, 2 * js[0] * D)]
        for idx, j in enumerate(js):
            corners.append(((2 * j + 1) * D, 2 * j * D))
            if idx + 1 < len(js):
                corners.append(((2 * j + 1) * D, 2 * js[idx + 1] * D))
        assignment[v] = RectPath._of_ints(D, corners)

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
    # every corner over D = 20: the half, quarter, fifth and tenth offsets
    top, x_max = 10, 10 * n
    assignment: Dict = {}
    xs = {}
    ys = {}
    for i in range(1, n + 1):
        xs[i] = 10 * (i - 1)
        ys[i] = -10 * (i - 1)
        assignment[i] = RectPath._of_ints(20, [(xs[i], top), (xs[i], ys[i]), (x_max, ys[i])])
    for i, j in ksubsets(n, 2):
        corners = [
            (xs[j] - 5, ys[i] + 5),
            (xs[j] - 5, ys[i] - 4),
            (xs[j] + 2, ys[i] - 4),
        ]
        assignment[(i, j)] = RectPath._of_ints(20, corners)
    return VpgRepresentation(assignment)


# ---------------------------------------------------------------------------
# exposure computation (checked, not assumed)


def _exposures(hs, vs) -> Dict[int, List[Tuple[int, int]]]:
    """Per path index, the [lo, cap) interval of each of its horizontal
    segments, in path order, over segment rows (`_segment_rows`): the maximal
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
    subsets = ksubsets(n, k)
    # every corner over D: the shift unit eps0 = 1/(n+1) is m+1, and the
    # epsilon of subset rank r, eps0·r/(m+1), is r
    eps0 = len(subsets) + 1
    D = (n + 1) * eps0
    shift = {i: (i - 1) * eps0 for i in range(1, n + 1)}
    stairs = [[(t, -t), (D + t, -t), (D + t, -D - t), (2 * D + t, -D - t), (2 * D + t, -2 * D - t)]
              for t in shift.values()]
    # stair i - 1 is clique path i; its horizontals are segments 0 and 2, its
    # verticals segments 1 and 3.  Exposure only compares coordinates, so it
    # runs on the stairs' own ints.
    hs, vs = _segment_rows(stairs)
    below, left = _exposures(hs, vs), _exposures(vs, hs)

    def check_inside(value, interval, what):
        lo, cap = interval
        if not (lo < value < cap):
            raise ConstructionError(f"{what}: {Fraction(value, D)} outside computed exposed "
                                    f"interval ({Fraction(lo, D)}, {Fraction(cap, D)})")

    assignment: Dict = {i: RectPath._of_ints(D, c) for i, c in zip(shift, stairs)}
    for eps, subset in enumerate(subsets, start=1):
        i1, i2 = subset[0], subset[1]
        x_start = shift[i1] + eps
        check_inside(x_start, below[i1 - 1][0],
                     f"start of {subset} on first segment of path {i1}")
        y_run1 = -D - shift[i2] + eps0 - eps
        check_inside(y_run1, left[i2 - 1][0],
                     f"first run of {subset} in exposed zone of path {i2}")
        corners: List[Tuple[int, int]] = [
            (x_start, -shift[i1] + eps),
            (x_start, y_run1),
        ]
        cur_x = D + shift[i2] + eps
        corners.append((cur_x, y_run1))
        for r in range(3, k + 1):
            ir = subset[r - 1]
            y_run = -2 * D - shift[ir] + eps0 - eps
            check_inside(y_run, left[ir - 1][1],
                         f"run {r} of {subset} in exposed zone of path {ir}")
            corners.append((cur_x, y_run))
            cur_x = 2 * D + shift[ir] + eps
            corners.append((cur_x, y_run))
        assignment[subset] = RectPath._of_ints(D, corners)
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
    return Fraction(2 * n * i), Fraction(1 - i % 2, 2)


# the merge operations work on ints over D with unit u = D; a detour lies u/4 off its line


def _op1_corners(X, Y, W, yh, u):
    """Label owning the leftmost and rightmost verticals of the square."""
    xl, xr, d = X + u, X + W - u, u // 4
    top, bot = Y + W, Y
    return [
        (X, top),
        (xl, top),
        (xl, bot),
        (xl + d, bot),
        (xl + d, yh),
        (xr - d, yh),
        (xr - d, top),
        (xr, top),
        (xr, bot),
        (X + W, bot),
    ]


def _op2_corners(X, Y, W, xv, u):
    """Label owning the bottom and top horizontals of the square."""
    ybot, ytop, d = Y + u, Y + W - u, u // 4
    return [
        (X, ytop),
        (X + W - d, ytop),
        (X + W - d, ytop - d),
        (xv, ytop - d),
        (xv, ybot + d),
        (X + d, ybot + d),
        (X + d, ybot),
        (X + W, ybot),
    ]


def _op3_corners(X, Y, W, xv, yh, u):
    """Generic label: one vertical, one horizontal, merged with a top detour."""
    d = u // 4
    return [
        (X, yh),
        (xv - d, yh),
        (xv - d, Y + W),
        (xv, Y + W),
        (xv, Y),
        (xv + d, Y),
        (xv + d, yh),
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
    seqs = sequences_from_cycles(hamiltonian_decomposition(s), n)
    w = n + 2
    # every corner over D: D/2 and D/4 place the even squares and the
    # detours, D/(8w) and D/(16w) the corner pieces, D/(n+1) the connectors
    D = 16 * w * (n + 1)
    W = w * D  # the side of a square
    # square i: verticals labeled by S_i, horizontals by S_{s+i}
    squares = [SquareRegionLayout(i, _square_origin(n, i), seqs[i - 1], seqs[s + i - 1])
               for i in range(1, s + 1)]
    origins = [tuple(v.numerator * (D // v.denominator) for v in sq.origin) for sq in squares]

    assignment: Dict = {}
    for l in range(1, n + 1):
        corners: List[Tuple[int, int]] = []
        for sq, (X, Y) in zip(squares, origins):
            if l == sq.index:
                piece = _op1_corners(X, Y, W, Y + sq.row(l) * D, D)
                entry, exit_ = Y + W, Y
            elif l == s + sq.index:
                piece = _op2_corners(X, Y, W, X + sq.column(l) * D, D)
                entry, exit_ = Y + W - D, Y + D
            else:
                piece = _op3_corners(X, Y, W, X + sq.column(l) * D, Y + sq.row(l) * D, D)
                entry = exit_ = Y + sq.row(l) * D
            if corners:
                # 2-bend connector from the previous square's right edge
                xc = prev_edge + (2 * n - w) * l * (D // (n + 1))
                corners += [(xc, prev_exit), (xc, entry)]
            corners += piece
            prev_edge, prev_exit = X + W, exit_
        assignment[l] = RectPath._of_ints(D, corners)

    # the first (sequence, position) at which each unordered pair is consecutive
    line_pair: Dict[frozenset, Tuple[int, int]] = {}
    for l0, seq in enumerate(seqs, start=1):
        for j in range(1, n + 1):
            line_pair.setdefault(frozenset(seq[j - 1:j + 1]), (l0, j))

    # one 1-bend corner piece per 3-subset
    for subset in ksubsets(n, 3):
        p, q, r = subset
        found = line_pair.get(frozenset((p, q)))
        if found is None:
            raise ConstructionError(f"pair {p},{q} adjacent in no sequence")
        l0, j = found
        sq, (X, Y) = squares[(l0 - 1) % s], origins[(l0 - 1) % s]
        if l0 <= s:
            # p, q on consecutive verticals of square l0; r's horizontal
            # crosses both, and the piece hugs those two crossings
            h = sq.row(r) * D
            alpha = (w - j) * (D // (8 * w))  # (n+2-j)/(8(n+2))
            corners = [
                (X + j * D - alpha, Y + h - alpha),
                (X + j * D - alpha, Y + h + alpha),
                (X + (j + 1) * D + alpha, Y + h + alpha),
            ]
        else:
            # p, q on consecutive horizontals of square l0 - s; r's vertical
            # crosses both
            jr = sq.column(r) * D
            beta = (2 * (w - j) - 1) * (D // (16 * w))  # (2(n+2-j)-1)/(16(n+2))
            corners = [
                (X + jr - beta, Y + (j + 1) * D + beta),
                (X + jr - beta, Y + j * D - beta),
                (X + jr + beta, Y + j * D - beta),
            ]
        assignment[subset] = RectPath._of_ints(D, corners)

    return VpgRepresentation(assignment)
