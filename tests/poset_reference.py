"""The set-based order core, kept only to test the mask core of
`vpgbend.posets` against.

`make_poset` takes the transitive closure by a fixpoint over pairs,
`validate` is the pairwise check that `Poset` made on every relation, and
`search_dimension` is the recursive realizer search: each coordinate is a
`_PartialOrder` of sets, and every ordered incomparable pair is assigned,
critical pairs first.  It is slow but shares no order code with the masks.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from vpgbend.errors import ValidationError
from vpgbend.posets import Element, LinearOrder, Poset, Realizer, is_realizer


def make_poset(ground: Iterable[Element], relations: Iterable[Tuple[Element, Element]]) -> Poset:
    """Build a poset from generating relations, taking the transitive closure."""
    ground = tuple(ground)
    less = set(tuple(r) for r in relations)
    changed = True
    while changed:
        changed = False
        for x, y in list(less):
            for z, w in list(less):
                if y == z and (x, w) not in less:
                    less.add((x, w))
                    changed = True
    return Poset(ground=ground, less=frozenset(less))


def validate(ground, less) -> None:
    """The checks `Poset.__post_init__` makes, with the pairwise transitivity
    test, visiting the pairs in ground-index order as it does."""
    gset = set(ground)
    if len(gset) != len(ground):
        raise ValidationError("duplicate ground elements")
    index = {x: i for i, x in enumerate(ground)}
    less = sorted(less, key=lambda pair: (index.get(pair[0], len(ground)), index.get(pair[1], len(ground)), repr(pair)))
    for x, y in less:
        if x not in gset or y not in gset:
            raise ValidationError(f"relation uses unknown element in ({x!r},{y!r})")
        if x == y:
            raise ValidationError(f"reflexive pair ({x!r},{x!r})")
        if (y, x) in less:
            raise ValidationError(f"antisymmetry violated on ({x!r},{y!r})")
    for x, y in less:
        for z, w in less:
            if y == z and (x, w) not in less:
                raise ValidationError(f"transitivity violated: {x!r}<{y!r}<{w!r}")


class _PartialOrder:
    """Transitively-closed DAG over element indexes, supporting undo."""

    __slots__ = ("n", "above",)

    def __init__(self, n: int, base_pairs):
        self.n = n
        self.above = [set() for _ in range(n)]  # above[i] = {j : i < j}
        for i, j in base_pairs:
            self.add(i, j)

    def add(self, i: int, j: int) -> Optional[List[Tuple[int, int]]]:
        """Add i<j plus closure; returns added pairs for undo, or None on cycle."""
        if i == j or i in self.above[j]:
            return None
        if j in self.above[i]:
            return []
        added = []
        lows = [k for k in range(self.n) if i in self.above[k]] + [i]
        highs = list(self.above[j]) + [j]
        for a in lows:
            for b in highs:
                if a == b:
                    for x, y in added:
                        self.above[x].discard(y)
                    return None
                if b not in self.above[a]:
                    self.above[a].add(b)
                    added.append((a, b))
        return added

    def undo(self, added: List[Tuple[int, int]]) -> None:
        for x, y in added:
            self.above[x].discard(y)

    def topological(self) -> List[int]:
        remaining = set(range(self.n))
        out = []
        while remaining:
            # smallest-index minimal element, for determinism
            pick = min(
                k for k in remaining if not any(k in self.above[m] for m in remaining)
            )
            out.append(pick)
            remaining.discard(pick)
        return out


def _is_critical(p: Poset, x: Element, y: Element) -> bool:
    down_x = {z for z in p.ground if p.is_less(z, x)}
    down_y = {z for z in p.ground if p.is_less(z, y)}
    up_x = {z for z in p.ground if p.is_less(x, z)}
    up_y = {z for z in p.ground if p.is_less(y, z)}
    return down_x <= down_y and up_y <= up_x


def _search_realizer(p: Poset, t: int) -> Optional[Realizer]:
    idx = {x: i for i, x in enumerate(p.ground)}
    n = len(p.ground)
    base = [(idx[x], idx[y]) for x, y in p.less]
    coords = [_PartialOrder(n, base) for _ in range(t)]

    # Ordered incomparable pairs (x, y): some coordinate must put y before x.
    # Critical pairs go first; they conflict most, so dead ends surface early.
    pairs = []
    for x, y in p.incomparable_pairs():
        for a, b in ((x, y), (y, x)):
            pairs.append((not _is_critical(p, a, b), idx[a], idx[b]))
    pairs.sort()
    pairs = [(a, b) for _, a, b in pairs]

    def assign(k: int, used: int) -> bool:
        if k == len(pairs):
            return True
        x, y = pairs[k]
        # the required reversal may already hold in some coordinate
        for c in coords:
            if x in c.above[y]:
                return assign(k + 1, used)
        limit = min(t, used + 1)  # untouched coordinates are interchangeable
        for ci in range(limit):
            added = coords[ci].add(y, x)
            if added is None:
                continue
            if assign(k + 1, max(used, ci + 1)):
                return True
            coords[ci].undo(added)
        return False

    if not assign(0, 0):
        return None
    orders = tuple(
        LinearOrder(tuple(p.ground[i] for i in c.topological())) for c in coords
    )
    realizer = Realizer(orders=orders)
    if not is_realizer(p, realizer):  # pragma: no cover - search guarantees this
        raise AssertionError("dimension search produced a non-realizer")
    return realizer


def search_dimension(p: Poset, max_dim: int) -> Optional[int]:
    """Smallest t <= max_dim admitting a size-t realizer, else None."""
    for t in range(1, max_dim + 1):
        if _search_realizer(p, t) is not None:
            return t
    return None

