"""Bounded-grid backtracking search for small representations.

The search assigns grid paths to vertices and re-verifies the complete
assignment with the real checkers before returning it.  It ends in one of
three outcomes: `found` (a witness), `exhausted` (every assignment on the
grid was ruled out, so the graph has no representation on it) or `budget`
(the node limit was reached first).  `search_representation` returns the
witness or `None`; a `None` alone never implies non-realizability.

Paths with integer corners meet only at lattice points, so each candidate
path is one int: a mask on the grid's doubled lattice, where corner (x, y) is
bit 2y·(2w−1) + 2x and the odd bits between corners are unit edges.  Two paths
meet iff their masks share a bit, and overlap iff they share an odd bit.  A
proper representation is then one in which no two masks share an odd bit, no
bit lies on three masks, and no shared bit is a corner of either path.  The
enumerator yields each path's corner mask, the bits of its corners, with it.

Two searches share the node limit and the final re-check, and the grid size
and bends alone choose between them:

* on small grids, `_TableSearch` enumerates the candidates once and keeps,
  for each lattice bit, an int over candidate indices (the candidates through
  the bit and, for a proper search, those with a corner on it, both tables
  from one transpose).  Each unplaced vertex's domain is one int, filtered by
  a few ANDs whenever a path is placed; a branch dies as soon as some domain
  is empty, and the search branches on the smallest domain (forward checking,
  Haralick & Elliott, *Artificial Intelligence* 14, 1980).  A node is one
  candidate taken from a domain.
* elsewhere, where those tables would be large, `_LazySearch` places the
  vertices in a fixed order (highest degree first) and enumerates the
  candidates lazily at every depth.  The enumerator itself counts each
  candidate as a node and tests it against the placed paths, and yields only
  those that can join them; the search tests their corners.  A node is one
  enumerated candidate, kept or not.  A depth is blocked when some placed
  neighbour's mask lies wholly inside the forbidden mask: no candidate can
  then be kept, and the enumerator would count every path on the grid.  A
  blocked depth takes that count in one step.  For at most 2 bends it is a
  closed form (`_path_count`), exact because a path of at most 3 segments
  cannot meet itself.  From 3 bends on, the search's first blocked depth runs
  the enumerator and, if it ends within the budget, keeps its count for the
  later ones.  Nothing is kept from one search to the next.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from .errors import ParameterError, Record, _set
from .geometry import RectPath
from .graphs import Graph
from .representation import VpgRepresentation, is_proper, verify_realizes

Corner = Tuple[int, int]

# The tables of `_TableSearch` hold about (candidates × lattice points) bits.
# They are built only where an upper bound on that product, taken from the
# grid and bends alone, is at most this; a larger grid runs `_LazySearch`.
_TABLE_LIMIT = 1 << 17

# A grid has at most this many lattice points w·h.  Each candidate's mask has
# about 4·w·h bits, and the enumerator and the lazy search build masks of
# that size up front, so a larger grid is refused before anything is built.
_GRID_LIMIT = 1 << 16


class _BudgetExhausted(Exception):
    pass


class GridSearchBudget(Record):
    __slots__ = ("grid_width", "grid_height", "max_bends", "node_limit")

    def __init__(self, grid_width: int, grid_height: int, max_bends: int, node_limit: int):
        if grid_width < 1 or grid_height < 1 or node_limit < 1:
            raise ParameterError("grid dimensions and node limit must be positive")
        if grid_width * grid_height > _GRID_LIMIT:
            raise ParameterError(
                f"grid {grid_width}x{grid_height} has more than {_GRID_LIMIT} lattice points"
            )
        if max_bends < 0:
            raise ParameterError("max_bends must be nonnegative")
        _set(self, "grid_width", grid_width)
        _set(self, "grid_height", grid_height)
        _set(self, "max_bends", max_bends)
        _set(self, "node_limit", node_limit)


def _grid_paths(
    budget: GridSearchBudget,
    forbid: int = 0,
    needs: Sequence[int] = (),
    take: Optional[Callable[[], None]] = None,
) -> Iterator[Tuple[Tuple[Corner, ...], int, int]]:
    """All simple rectilinear paths with corners on the grid, each geometric
    path exactly once (canonical corner order), in a fixed enumeration order,
    as (corners, lattice mask, corner mask), less those whose lattice mask
    meets `forbid` or misses some mask in `needs`.  `take`, if given, is
    called once per enumerated path, kept or not, before the path is tested.
    The depth-first search keeps its own stack, so a path may have more
    segments than Python's recursion limit."""
    w, h, max_segments = budget.grid_width, budget.grid_height, budget.max_bends + 1
    row = 2 * w - 1
    top = 2 * h - 2
    # runs[k]: the 2k + 1 bits of a segment k units long, from bit 0 up; a
    # vertical run is a low slice of the column of bits 0, row, ..., top·row
    column = int("1" + ("0" * (row - 1) + "1") * top, 2)
    horizontal_runs = [(2 << 2 * k) - 1 for k in range(w)]
    vertical_runs = [column >> (top - 2 * k) * row for k in range(h)]

    def ends(first: Corner, x: int, y: int, horizontal: bool, last: bool) -> Iterator[int]:
        # the end coordinates to try for a segment from (x, y); on the last
        # segment only those that leave the path canonical (its end not
        # before `first`), since no longer path grows from it
        if not last:
            return iter(range(w if horizontal else h))
        x0, y0 = first
        if horizontal:
            return iter(range(x0 + (y0 > y), w))
        return iter(range(0 if x0 < x else y0 if x0 == x else h, h))

    for y, x, horizontal_first in product(range(h), range(w), (True, False)):
        corners = [(x, y)]
        # one frame per segment being chosen: the path's and its corners'
        # masks before it, the segment's axis and the end coordinates not yet tried
        stack = [(0, 1 << 2 * (y * row + x), horizontal_first,
                  ends((x, y), x, y, horizontal_first, max_segments == 1))]
        while stack:
            mask, corner_mask, horizontal, untried = stack[-1]
            cx, cy = corners[-1]
            start = 2 * cy * row + 2 * cx
            before = mask & ~(1 << start)  # the new segment may meet the path only at its start
            at, stride, runs = (cx, 1, horizontal_runs) if horizontal else (cy, row, vertical_runs)
            last = len(corners) == max_segments
            # what the path so far settles: whether it already meets `forbid`,
            # and which masks in `needs` the new segment must meet itself
            dead = mask & forbid
            unmet = [need for need in needs if not mask & need] if needs else ()
            for c in untried:
                if c == at:
                    continue
                d = c - at
                tip = start + 2 * d * stride  # the bit of the segment's end
                seg = runs[abs(d)] << (start if d > 0 else tip)
                if seg & before:
                    continue
                end = (c, cy) if horizontal else (cx, c)
                if corners[0] <= end:
                    if take is not None:
                        take()
                    if not (dead or seg & forbid):
                        for need in unmet:
                            if not seg & need:
                                break
                        else:
                            yield (*corners, end), mask | seg, corner_mask | 1 << tip
                if not last:
                    corners.append(end)
                    stack.append((mask | seg, corner_mask | 1 << tip, not horizontal,
                                  ends(corners[0], *end, not horizontal, len(corners) == max_segments)))
                    break
            else:
                # the frame is done, and so is the corner that opened it
                stack.pop()
                corners.pop()


def _path_count(budget: GridSearchBudget) -> Optional[int]:
    """The number of paths `_grid_paths(budget)` yields, for at most 2 bends;
    None from 3 bends on.  A path of at most 3 segments never meets itself
    (consecutive segments share only a corner, and a 1st and 3rd segment are
    parallel on different lines), so every choice of corners is a path, and
    the enumerator lists it once, not once per direction."""
    w, h, bends = budget.grid_width, budget.grid_height, budget.max_bends
    if bends > 2:
        return None
    # h·C(w,2) + w·C(h,2) segments; w·h·(w−1)·(h−1) L's, by corner and arm
    # ends; and 3-segment paths, an L and one more arm off the end of either
    # of its arms, (w−1) or (h−1) ways, halved for the two directions
    count = h * w * (w - 1) // 2 + w * h * (h - 1) // 2
    ells = w * h * (w - 1) * (h - 1)
    if bends >= 1:
        count += ells
    if bends == 2:
        count += ells * (w + h - 2) // 2
    return count


class _Search:
    """What both searches share: the vertex order, its adjacency table, the
    lattice points, the node limit, the final re-check and the outcome.  A
    subclass's `start` returns a witness, or None once the grid is
    exhausted.  No attribute refers back to the search, so a finished search
    is freed without the cyclic garbage collector."""

    def __init__(self, g: Graph, budget: GridSearchBudget, require_proper: bool):
        self.g, self.budget, self.require_proper = g, budget, require_proper
        self.order = sorted(g.vertices, key=lambda v: (-g.degree(v), g.index(v)))
        self.adjacent = [[g.has_edge(u, v) for u in self.order] for v in self.order]
        self.row = 2 * budget.grid_width - 1
        # the even bits: lattice points, and cell centres that no path covers
        self.points = int("01" * self.row * (2 * budget.grid_height - 1), 2)
        self.nodes = 0

    def outcome(self) -> Tuple[str, Optional[VpgRepresentation]]:
        try:
            rep = self.start()
        except _BudgetExhausted:
            return "budget", None
        return ("found", rep) if rep is not None else ("exhausted", None)

    def take(self, count: int = 1) -> None:
        """Count `count` nodes against the limit.  Past it the count stops at
        limit + 1, where taking the nodes one at a time would have stopped."""
        self.nodes += count
        if self.nodes > self.budget.node_limit:
            self.nodes = self.budget.node_limit + 1
            raise _BudgetExhausted

    def verified(self, corners: Sequence[Tuple[Corner, ...]]) -> Optional[VpgRepresentation]:
        """The representation with corners[i] on order[i], if the checkers
        accept it.  Every pair passed the search's tests, so this runs once."""
        paths = {v: RectPath(c) for v, c in zip(self.order, corners)}
        rep = VpgRepresentation({v: paths[v] for v in self.g.vertices})
        if verify_realizes(rep, self.g).ok and (not self.require_proper or is_proper(rep).ok):
            return rep
        return None


class _LazySearch(_Search):
    """Vertices in the fixed order; candidates enumerated lazily at every
    depth, each counted and kept iff it can join the placed paths."""

    def __init__(self, g: Graph, budget: GridSearchBudget, require_proper: bool):
        super().__init__(g, budget, require_proper)
        self.placed: List[Tuple[Tuple[Corner, ...], int]] = []
        # the number of paths on the grid: the closed form for at most 2
        # bends, else kept by the first blocked depth whose enumeration ends
        # within the budget
        self.path_count = _path_count(budget)

    def start(self) -> Optional[VpgRepresentation]:
        return self.place(0, 0, 0, 0)

    def place(self, idx: int, union: int, ends_union: int, met: int) -> Optional[VpgRepresentation]:
        # the masks of every placed path, of their corners and of the points
        # two of them share (all three are kept only under require_proper)
        if idx == len(self.order):
            return self.verified([corners for corners, _ in self.placed])
        apart, neighbours = 0, []
        for (_, other), adj in zip(self.placed, self.adjacent[idx]):
            if adj:
                neighbours.append(other)
            else:
                apart |= other
        # a candidate must meet every placed neighbour, miss every placed
        # non-neighbour and, to stay proper, overlap no placed path, meet none
        # at a corner of either and miss every point already on two paths;
        # the enumerator counts it and tests all but its own corners
        forbid = apart | (union & ~self.points) | ends_union | met
        # blocked: a candidate that meets this neighbour meets `forbid`, so
        # none is kept and the count of every path on the grid is all it costs
        blocked = any(not need & ~forbid for need in neighbours)
        if blocked and self.path_count is not None:
            self.take(self.path_count)
            return None
        start = self.nodes
        for corners, mask, ends in _grid_paths(self.budget, forbid, neighbours, self.take):
            if self.require_proper:
                if ends & union:
                    continue
                down = (union | mask, ends_union | ends, met | mask & union)
            else:
                down = (0, 0, 0)
            self.placed.append((corners, mask))
            result = self.place(idx + 1, *down)
            if result is not None:
                return result
            self.placed.pop()
        if blocked:
            self.path_count = self.nodes - start
        return None


def _columns(masks: Sequence[int], width: int) -> List[int]:
    """For each bit b < width, the int whose bit i is bit b of masks[i] (each
    below 2**width).  Mask i packed at bit i·step, step the width in whole
    bytes, below a 1, the int reads in binary as "0b1" and the masks last first:
    column b is every step-th digit from step + 2 − b on (base 2: no digit limit)."""
    if not masks:
        return [0] * width
    step = -(-width // 8) * 8
    packed = int.from_bytes(b"".join([mask.to_bytes(step // 8, "little") for mask in masks]), "little")
    digits = bin(packed | 1 << step * len(masks))
    return [int(digits[step + 2 - b :: step], 2) for b in range(width)]


def _gather(table: Sequence[int], mask: int) -> int:
    """The union of table[b] over the set bits b of `mask`."""
    out = 0
    while mask:
        low = mask & -mask
        out |= table[low.bit_length() - 1]
        mask ^= low
    return out


class _TableSearch(_Search):
    """Forward checking on bitset domains over candidates enumerated once.

    Each unplaced vertex's domain is an int over candidate indices and holds
    exactly the candidates that can join the placed paths, so a candidate
    taken from a domain needs no test of its own.  Placing candidate m keeps,
    in a neighbour's domain, the candidates that meet m (and, for a proper
    search, neither overlap m, nor meet it at a corner of either path, nor
    pass through a point that m shares with an earlier path), and in a
    non-neighbour's domain those that miss m.
    """

    def __init__(self, g: Graph, budget: GridSearchBudget, require_proper: bool):
        super().__init__(g, budget, require_proper)
        self.paths = list(_grid_paths(budget))
        size = self.row * (2 * budget.grid_height - 1)
        if require_proper:  # one transpose, each corner mask above its lattice mask
            both = _columns([mask | ends << size for _, mask, ends in self.paths], 2 * size)
            self.through, self.cornered = both[:size], both[size:]
        else:
            self.through = _columns([mask for _, mask, _ in self.paths], size)
        self.chosen: List[int] = [0] * len(self.order)

    def start(self) -> Optional[VpgRepresentation]:
        everything = (1 << len(self.paths)) - 1
        return self.place([everything] * len(self.order), 0)

    def place(self, domains: List[Optional[int]], union: int) -> Optional[VpgRepresentation]:
        # domains[k] is None once order[k] is placed; `union` is the mask of
        # the placed paths, kept only under require_proper
        open_ = [k for k, dom in enumerate(domains) if dom is not None]
        if not open_:
            return self.verified([self.paths[i][0] for i in self.chosen])
        k = min(open_, key=lambda k: (domains[k].bit_count(), k))
        open_.remove(k)
        adjacent = self.adjacent[k]
        dom = domains[k]
        while dom:
            low = dom & -dom
            dom ^= low
            i = low.bit_length() - 1
            self.take()
            _, mask, ends = self.paths[i]
            points = mask & self.points
            meets = hit = _gather(self.through, points)
            if self.require_proper:
                # overlap m, pass through a corner of m or a point that m
                # shares with a placed path, or have a corner on m's points
                bad = (_gather(self.through, mask & ~self.points | ends | mask & union)
                       | _gather(self.cornered, points))
                meets &= ~bad
                down_union = union | mask
            else:
                down_union = 0
            down = list(domains)
            down[k] = None
            for u in open_:
                left = domains[u] & (meets if adjacent[u] else ~hit)
                if not left:
                    break
                down[u] = left
            else:
                self.chosen[k] = i
                result = self.place(down, down_union)
                if result is not None:
                    return result
        return None


def _tables_fit(budget: GridSearchBudget) -> bool:
    """Whether a bound on (candidates × lattice points) is within the limit:
    a path has 2 start directions and at most max(w−1, h−1) choices per
    segment.  Capping the exponent at 18 decides alike (a base ≥ 2 to the 18th
    is above the limit) and keeps a huge max_bends from filling memory."""
    w, h = budget.grid_width, budget.grid_height
    candidates = 2 * w * h * max(w - 1, h - 1) ** min(budget.max_bends + 1, 18)
    return candidates * w * h <= _TABLE_LIMIT


def _search(
    g: Graph, budget: GridSearchBudget, require_proper: bool = False
) -> Tuple[str, Optional[VpgRepresentation]]:
    """(outcome, witness): `found` with a verified representation, or
    `exhausted` or `budget` with None."""
    search = _TableSearch if _tables_fit(budget) else _LazySearch
    return search(g, budget, require_proper).outcome()


def search_representation(
    g: Graph, budget: GridSearchBudget, require_proper: bool = False
) -> Optional[VpgRepresentation]:
    """A verified representation of `g` within the budget, else None."""
    return _search(g, budget, require_proper)[1]
