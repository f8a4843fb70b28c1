"""Posets, linear extensions, realizers, and exact dimension at desk scale.

The dimension search assigns, for every ordered incomparable pair (x, y), a
coordinate whose linear order must put y above x; each coordinate maintains a
transitively-closed partial order and conflicting assignments are pruned.
Any realizer found is re-verified with `is_realizer` before being trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from .errors import DomainError, ParameterError, ValidationError
from .graphs import Graph, _label_texts, ksubsets, label_str

Element = Hashable


@dataclass(frozen=True)
class Poset:
    """Ground set plus strict order relation (set of (lo, hi) pairs)."""

    ground: Tuple[Element, ...]
    less: frozenset

    def __post_init__(self):
        gset = set(self.ground)
        if len(gset) != len(self.ground):
            raise ValidationError("duplicate ground elements")
        for x, y in self.less:
            if x not in gset or y not in gset:
                raise ValidationError(f"relation uses unknown element in ({x!r},{y!r})")
            if x == y:
                raise ValidationError(f"reflexive pair ({x!r},{x!r})")
            if (y, x) in self.less:
                raise ValidationError(f"antisymmetry violated on ({x!r},{y!r})")
        for x, y in self.less:
            for z, w in self.less:
                if y == z and (x, w) not in self.less:
                    raise ValidationError(f"transitivity violated: {x!r}<{y!r}<{w!r}")

    def is_less(self, x: Element, y: Element) -> bool:
        return (x, y) in self.less

    def comparable(self, x: Element, y: Element) -> bool:
        return (x, y) in self.less or (y, x) in self.less

    def incomparable_pairs(self) -> List[Tuple[Element, Element]]:
        """Unordered incomparable pairs in ground order."""
        return [
            (x, y)
            for x, y in combinations(self.ground, 2)
            if not self.comparable(x, y)
        ]


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


@dataclass(frozen=True)
class LinearOrder:
    sequence: Tuple[Element, ...]

    def __post_init__(self):
        if len(set(self.sequence)) != len(self.sequence):
            raise ValidationError("linear order repeats an element")

    def position(self) -> Dict[Element, int]:
        return {x: i for i, x in enumerate(self.sequence)}

    def is_extension_of(self, p: Poset) -> bool:
        if set(self.sequence) != set(p.ground):
            return False
        pos = self.position()
        return all(pos[x] < pos[y] for x, y in p.less)


@dataclass(frozen=True)
class Realizer:
    orders: Tuple[LinearOrder, ...]

    def __post_init__(self):
        if not self.orders:
            raise ValidationError("a realizer needs at least one linear order")


def is_realizer(p: Poset, r: Realizer) -> bool:
    """True iff every order extends p and the intersection of the orders is p."""
    for order in r.orders:
        if set(order.sequence) != set(p.ground):
            raise DomainError("realizer order over a different ground set")
    if not all(order.is_extension_of(p) for order in r.orders):
        return False
    positions = [order.position() for order in r.orders]
    for x, y in combinations(p.ground, 2):
        for a, b in ((x, y), (y, x)):
            in_all = all(pos[a] < pos[b] for pos in positions)
            if in_all != p.is_less(a, b):
                return False
    return True


def build_p_rsn(r: int, s: int, n: int) -> Poset:
    """Two-layer containment poset on r-subsets and s-subsets of [n].

    A superset precedes its subsets: for X an s-subset and Y an r-subset,
    X < Y exactly when X contains Y.
    """
    if not (1 <= r < s <= n - 1):
        raise ParameterError(f"need 1 <= r < s <= n-1, got r={r}, s={s}, n={n}")
    small = ksubsets(n, r)
    large = ksubsets(n, s)
    ground = tuple(small + large)
    less = frozenset(
        (big, lit) for big in large for lit in small if set(big) >= set(lit)
    )
    return Poset(ground=ground, less=less)


def pivot_element(order: LinearOrder, p: Poset, s: int) -> Element:
    """Last (s-1)-subset in the order, among all (s-1)-subsets of the ground."""
    members = [x for x in order.sequence if isinstance(x, tuple) and len(x) == s - 1]
    if not members:
        raise DomainError(f"no ({s - 1})-subsets in the ground set")
    return members[-1]


def cocomparability_graph(p: Poset) -> Graph:
    """Graph on the ground set joining exactly the incomparable pairs."""
    g = Graph(p.ground)
    for x, y in p.incomparable_pairs():
        g.add_edge(x, y)
    return g


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


def brute_force_dimension(p: Poset, max_dim: int) -> Optional[int]:
    """Smallest t <= max_dim admitting a size-t realizer, else None.

    Also see `find_realizer` for the witness itself.
    """
    if max_dim < 1:
        raise ParameterError("max dimension must be positive")
    for t in range(1, max_dim + 1):
        if _search_realizer(p, t) is not None:
            return t
    return None


def find_realizer(p: Poset, t: int) -> Optional[Realizer]:
    """A verified realizer of size exactly t, or None if none exists."""
    if t < 1:
        raise ParameterError("realizer size must be positive")
    return _search_realizer(p, t)


def write_poset_text(p: Poset) -> str:
    """Poset text format: ground elements, then 'u < v' lines.

    Elements are one word without a '<' each, so that no element line reads
    as a relation, and distinct as text (`_label_texts`).
    """
    lines = _label_texts(
        p.ground, lambda name: name.split() == [name] and "<" not in name, "poset", ValidationError
    )
    rel = sorted((label_str(x), label_str(y)) for x, y in p.less)
    lines.extend(f"{x} < {y}" for x, y in rel)
    return "\n".join(lines) + "\n"


def read_poset_text(text: str) -> Poset:
    ground = []
    relations = []
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln:
            continue
        if " < " in ln:
            parts = [part.strip() for part in ln.split(" < ")]
            if len(parts) != 2:
                raise ValidationError(f"bad relation line {ln!r}: expected 'a < b'")
            relations.append(tuple(parts))
        else:
            ground.append(ln)
    return make_poset(ground, relations)
