"""The explicit constructions in their original `Fraction` form, kept only
to test the int-scaled constructors of `vpgbend.constructors` against.

Each body is the straightforward one: every corner is a `Fraction` sum of
the square origins, offsets and epsilons, and `RectPath` takes the corners
as `Fraction`s.  The byte-identity test compares the text of both sides.
"""

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from vpgbend.constructors import (
    SquareRegionLayout,
    _exposures,
    hamiltonian_decomposition,
    sequences_from_cycles,
)
from vpgbend.errors import ConstructionError, ParameterError
from vpgbend.geometry import RectPath
from vpgbend.graphs import Graph, SplitPartition, check_split_partition, ksubsets
from vpgbend.representation import VpgRepresentation, _contact_table

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


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
