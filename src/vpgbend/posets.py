"""Posets, linear extensions, realizers, and exact dimension at desk scale.

Orders are int masks: `up[i]`/`down[i]` hold the elements above/below element
i.  One closure step, `_close`, serves `make_poset` and the dimension search.
The search gives each critical pair a coordinate that reverses it, on an
explicit stack; extensions reversing every critical pair form a realizer
(Trotter), and each realizer found is re-verified with `is_realizer`.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from .errors import DomainError, ParameterError, Record, ValidationError, _set
from .graphs import Graph, _label_texts, ksubsets

Element = Hashable


class Poset(Record):
    """Ground set plus strict order relation (set of (lo, hi) pairs)."""

    __slots__ = ("ground", "less")

    def __init__(self, ground: Tuple[Element, ...], less: frozenset):
        idx = {x: i for i, x in enumerate(ground)}
        if len(idx) != len(ground):
            raise ValidationError("duplicate ground elements")
        # pairs in ground-index order, so the same poset always fails on the
        # same pair (unknown elements last, by repr)
        n = len(idx)
        pairs = sorted(less, key=lambda pair: (idx.get(pair[0], n), idx.get(pair[1], n), repr(pair)))
        for x, y in pairs:
            if x not in idx or y not in idx:
                raise ValidationError(f"relation uses unknown element in ({x!r},{y!r})")
            if x == y:
                raise ValidationError(f"reflexive pair ({x!r},{x!r})")
            if (y, x) in less:
                raise ValidationError(f"antisymmetry violated on ({x!r},{y!r})")
        _, up, _ = _masks(ground, less)
        for x, y in pairs:
            missing = up[idx[y]] & ~up[idx[x]]  # y < w but not x < w
            if missing:
                w = ground[(missing & -missing).bit_length() - 1]
                raise ValidationError(f"transitivity violated: {x!r}<{y!r}<{w!r}")
        _set(self, "ground", ground)
        _set(self, "less", less)

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


def _masks(ground, less) -> Tuple[Dict[Element, int], List[int], List[int]]:
    """Ground indices, and per element the int masks of those above and below it."""
    idx = {x: i for i, x in enumerate(ground)}
    up, down = [0] * len(idx), [0] * len(idx)
    for x, y in less:
        up[idx[x]] |= 1 << idx[y]
        down[idx[y]] |= 1 << idx[x]
    return idx, up, down


def _close(up: List[int], down: List[int], lo: int, hi: int) -> Tuple[List[int], List[int]]:
    """Add lo < hi to a closed order: all at or below lo go below all at or
    above hi (a cycle shows as a reflexive bit).  Returns the old masks."""
    log = up[:], down[:]
    lows, highs = down[lo] | 1 << lo, up[hi] | 1 << hi
    for masks, members, extra in ((up, lows, highs), (down, highs, lows)):
        while members:
            bit = members & -members
            members ^= bit
            masks[bit.bit_length() - 1] |= extra
    return log


def make_poset(ground: Iterable[Element], relations: Iterable[Tuple[Element, Element]]) -> Poset:
    """Build a poset from generating relations, taking the transitive closure.

    Relation elements are indexed after the ground, so `Poset` still names an
    unknown element.  Relations that form a cycle are rejected here, naming
    the element of lowest index on one.
    """
    ground = tuple(ground)
    relations = [tuple(r) for r in relations]
    elems = tuple(dict.fromkeys(ground + tuple(x for r in relations for x in r)))
    idx, up, down = _masks(elems, ())
    for lo, hi in relations:
        _close(up, down, idx[lo], idx[hi])
    # an element lies on a cycle iff the closure puts it above itself
    cyclic = next((x for i, (x, m) in enumerate(zip(elems, up)) if m >> i & 1), None)
    if cyclic is not None:
        raise ValidationError(f"relations form a cycle through {cyclic!r}")
    less = frozenset((x, y) for x, m in zip(elems, up) for j, y in enumerate(elems) if m >> j & 1)
    return Poset(ground=ground, less=less)


class LinearOrder(Record):
    __slots__ = ("sequence",)

    def __init__(self, sequence: Tuple[Element, ...]):
        if len(set(sequence)) != len(sequence):
            raise ValidationError("linear order repeats an element")
        _set(self, "sequence", sequence)

    def position(self) -> Dict[Element, int]:
        return {x: i for i, x in enumerate(self.sequence)}

    def is_extension_of(self, p: Poset) -> bool:
        if set(self.sequence) != set(p.ground):
            return False
        pos = self.position()
        return all(pos[x] < pos[y] for x, y in p.less)


class Realizer(Record):
    __slots__ = ("orders",)

    def __init__(self, orders: Tuple[LinearOrder, ...]):
        if not orders:
            raise ValidationError("a realizer needs at least one linear order")
        _set(self, "orders", orders)


def is_realizer(p: Poset, r: Realizer) -> bool:
    """True iff every order extends p and the intersection of the orders is p."""
    for order in r.orders:
        if set(order.sequence) != set(p.ground):
            raise DomainError("realizer order over a different ground set")
    # an order that puts some x < y of p the other way round fails in_all below
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


def _search_realizer(p: Poset, t: int) -> Optional[Realizer]:
    _, up0, down0 = _masks(p.ground, p.less)
    # critical pairs (x, y): x || y, D(x) <= D(y) and U(y) <= U(x); some
    # coordinate must put y below x, and reversing all of them suffices
    ids = range(len(up0))
    pairs = [(x, y) for x in ids for y in ids if x != y and not (up0[x] | down0[x]) >> y & 1
             and not down0[x] & ~down0[y] and not up0[y] & ~up0[x]]
    coords = [(up0[:], down0[:]) for _ in range(t)]
    stack = []  # frames (pair index, coordinate taken, undo log, coordinates in use)
    k = used = first = 0
    while k < len(pairs):
        x, y = pairs[k]
        if any(up[y] >> x & 1 for up, _ in coords):  # some coordinate already reverses it
            k += 1
            continue
        for c in range(first, min(t, used + 1)):  # untouched coordinates are alike
            if not coords[c][0][x] >> y & 1:
                stack.append((k, c, _close(*coords[c], y, x), used))
                k, used, first = k + 1, max(used, c + 1), 0
                break
        else:
            if not stack:
                return None
            k, c, log, used = stack.pop()
            coords[c], first = log, c + 1  # the undo log is the old coordinate
    orders = []
    for _, down in coords:  # take the smallest-index minimal element each time
        seq, left = [], (1 << len(down)) - 1
        while left:
            i = next(i for i in ids if left >> i & 1 and not down[i] & left)
            seq.append(p.ground[i])
            left ^= 1 << i
        orders.append(LinearOrder(tuple(seq)))
    realizer = Realizer(orders=tuple(orders))
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
    """A verified realizer of size exactly t, or None if none exists.

    Only critical pairs are placed before each coordinate is completed to its
    smallest-index linear extension, so the orders may differ from those of a
    search that places every incomparable pair.  There is no depth limit.
    """
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
    text = dict(zip(p.ground, lines))
    rel = sorted((text[x], text[y]) for x, y in p.less)
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
