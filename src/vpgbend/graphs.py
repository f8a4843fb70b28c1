"""Finite simple graphs, split partitions, and the graph families used here.

Vertex labels are opaque hashables (ints for clique vertices, sorted tuples
for subset-indexed vertices).  Vertices are numbered in insertion order, each
keeps the set of its neighbours' numbers, and every read sorts by number, so
all derived output is deterministic.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from .errors import DomainError, GraphError, ParameterError, Record, _set

Label = Hashable


class Graph:
    """Undirected simple graph (no loops, no multi-edges)."""

    __slots__ = ("_vertices", "_index", "_adj")

    def __init__(self, vertices: Iterable[Label], edges: Iterable[Tuple[Label, Label]] = ()):
        self._vertices: Tuple[Label, ...] = tuple(vertices)
        self._index: Dict[Label, int] = {}
        for i, v in enumerate(self._vertices):
            if v in self._index:
                raise GraphError(f"duplicate vertex label {v!r}")
            self._index[v] = i
        self._adj: List[set] = [set() for _ in self._vertices]
        for u, v in edges:
            self.add_edge(u, v)

    def add_edge(self, u: Label, v: Label) -> None:
        if u not in self._index or v not in self._index:
            raise GraphError(f"edge ({u!r},{v!r}) uses an unknown vertex")
        if u == v:
            raise GraphError(f"self-loop at {u!r}")
        i, j = self._index[u], self._index[v]
        self._adj[i].add(j)
        self._adj[j].add(i)

    @property
    def vertices(self) -> Tuple[Label, ...]:
        return self._vertices

    def index(self, v: Label) -> int:
        return self._index[v]

    def __contains__(self, v: Label) -> bool:
        return v in self._index

    def __len__(self) -> int:
        return len(self._vertices)

    def neighbors(self, v: Label) -> List[Label]:
        return [self._vertices[j] for j in sorted(self._adj[self._index[v]])]

    def degree(self, v: Label) -> int:
        return len(self._adj[self._index[v]])

    def has_edge(self, u: Label, v: Label) -> bool:
        i = self._index.get(u)
        return i is not None and self._index.get(v) in self._adj[i]

    def edges(self) -> List[Tuple[Label, Label]]:
        """Edges as index-ordered pairs, sorted by index."""
        vs = self._vertices
        return [(vs[i], vs[j]) for i, nbrs in enumerate(self._adj) for j in sorted(nbrs) if j > i]

    def edge_count(self) -> int:
        return sum(map(len, self._adj)) // 2

    def edge_set(self) -> frozenset:
        return frozenset(frozenset(e) for e in self.edges())

    def __eq__(self, other):
        """Equal vertex sets and edge sets, in any vertex order: each vertex's
        numbered neighbours are mapped into `other`'s numbering."""
        if not isinstance(other, Graph):
            return NotImplemented
        if self._index.keys() != other._index.keys():
            return False
        at = [other._index[v] for v in self._vertices]
        return all({at[j] for j in nbrs} == other._adj[at[i]] for i, nbrs in enumerate(self._adj))

    def __repr__(self):
        return f"Graph({len(self)} vertices, {self.edge_count()} edges)"

    def is_clique(self, subset: Iterable[Label]) -> bool:
        vs = list(subset)
        return all(self.has_edge(u, v) for u, v in combinations(vs, 2))

    def is_independent(self, subset: Iterable[Label]) -> bool:
        vs = list(subset)
        return not any(self.has_edge(u, v) for u, v in combinations(vs, 2))


class SplitPartition(Record):
    __slots__ = ("clique", "independent")

    def __init__(self, clique: Tuple[Label, ...], independent: Tuple[Label, ...]):
        _set(self, "clique", clique)
        _set(self, "independent", independent)


def check_split_partition(g: Graph, part: SplitPartition) -> None:
    """Raise unless `part` is a valid split partition of `g`."""
    c, i = set(part.clique), set(part.independent)
    if c & i:
        raise DomainError("clique and independent parts overlap")
    if c | i != set(g.vertices):
        raise DomainError("partition does not cover the vertex set")
    if not g.is_clique(part.clique):
        raise DomainError("clique part does not induce a complete graph")
    if not g.is_independent(part.independent):
        raise DomainError("independent part induces an edge")


def ksubsets(n: int, k: int) -> List[Tuple[int, ...]]:
    """All k-element subsets of [n] = {1..n} as sorted tuples, lexicographic."""
    return [tuple(c) for c in combinations(range(1, n + 1), k)]


def build_split_knk(n: int, k: int) -> Tuple[Graph, SplitPartition]:
    """Split graph with clique [n] and one independent vertex per k-subset.

    The independent vertex labeled by a sorted k-tuple S is adjacent exactly
    to the clique vertices in S.
    """
    if not 1 <= k < n:
        raise ParameterError(f"need 1 <= k < n, got k={k}, n={n}")
    part = SplitPartition(clique=tuple(range(1, n + 1)), independent=tuple(ksubsets(n, k)))
    return build_hnk_member(n, k, ()), part


def all_qedges(n: int, k: int) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """All unordered pairs of distinct k-subsets of [n]."""
    if not (n > k >= 1):
        raise ParameterError(f"need n > k >= 1, got n={n}, k={k}")
    return list(combinations(ksubsets(n, k), 2))


def build_hnk_member(n: int, k: int, q_edges: Iterable[Tuple[Sequence[int], Sequence[int]]]) -> Graph:
    """Member of the family with clique [n], k-subset vertices Q attached to
    their elements, and exactly the given edges inside Q."""
    if not (n > k >= 1):
        raise ParameterError(f"need n > k >= 1, got n={n}, k={k}")
    clique = list(range(1, n + 1))
    q = ksubsets(n, k)
    qset = set(q)
    g = Graph(clique + q)
    for u, v in combinations(clique, 2):
        g.add_edge(u, v)
    for subset in q:
        for w in subset:
            g.add_edge(subset, w)
    for s, t in q_edges:
        s, t = tuple(sorted(s)), tuple(sorted(t))
        if s not in qset or t not in qset:
            raise ParameterError(f"q-edge ({s},{t}) is not a pair of k-subsets of [n]")
        if s == t:
            raise ParameterError(f"q-edge joins {s} to itself")
        g.add_edge(s, t)
    return g


def has_long_induced_cycle(g: Graph, L: int) -> bool:
    """True iff `g` contains an induced (chordless) cycle of length >= L.

    Exhaustive search over induced paths whose minimum-index vertex comes
    first; intended for desk-scale graphs only.
    """
    if L < 3:
        raise ParameterError("cycle length threshold must be >= 3")
    adj = g._adj
    ordered = [sorted(nbrs) for nbrs in adj]
    for v0 in range(len(adj)):
        # depth-first on an explicit stack: one neighbour iterator per path vertex
        path, on_path, frontier = [v0], {v0}, [iter(ordered[v0])]
        while frontier:
            for w in frontier[-1]:
                if w <= v0 or w in on_path:
                    continue
                if len(path) > 1:
                    # keep the path induced: w may touch only the last vertex, and v0 to close
                    if not adj[w].isdisjoint(path[1:-1]):
                        continue
                    if v0 in adj[w]:
                        if len(path) + 1 >= L:
                            return True
                        continue  # closing early; extending past w would leave a chord to v0
                path.append(w)
                on_path.add(w)
                frontier.append(iter(ordered[w]))
                break
            else:
                frontier.pop()
                on_path.discard(path.pop())
    return False


def contract_edge(g: Graph, u: Label, v: Label) -> Graph:
    """Contract edge uv: v disappears, u absorbs v's neighborhood (simple result)."""
    if not g.has_edge(u, v):
        raise DomainError(f"({u!r},{v!r}) is not an edge")
    vertices = [w for w in g.vertices if w != v]
    out = Graph(vertices)
    for a, b in g.edges():
        a2 = u if a == v else a
        b2 = u if b == v else b
        if a2 != b2:
            out.add_edge(a2, b2)
    return out


def complement(g: Graph) -> Graph:
    out = Graph(g.vertices)
    for a, b in combinations(g.vertices, 2):
        if not g.has_edge(a, b):
            out.add_edge(a, b)
    return out


def label_str(label: Label) -> str:
    """Canonical text form of a vertex label (tuples join with commas)."""
    if isinstance(label, tuple):
        return ",".join(str(x) for x in label)
    return str(label)


def _label_texts(labels: Iterable[Label], readable, kind: str, error=GraphError) -> List[str]:
    """The `label_str` texts of `labels`; one that `readable` rejects or that
    repeats an earlier text, so its reader would not return it as one
    distinct label, is an `error` naming it."""
    names: Dict[str, None] = {}
    for label in labels:
        name = label_str(label)
        if not readable(name) or name in names:
            raise error(f"label {name!r} cannot be written to a {kind} file")
        names[name] = None
    return list(names)


def write_graph_text(g: Graph) -> str:
    """Graph text format: 'n m', vertex labels, then edge lines 'u v'.

    Labels are one word each, as `read_graph_text` splits lines at
    whitespace, and distinct as text (`_label_texts`).
    """
    names = _label_texts(g.vertices, lambda name: name.split() == [name], "graph")
    text = dict(zip(g.vertices, names))
    edges = [f"{text[u]} {text[v]}" for u, v in g.edges()]
    return "\n".join([f"{len(g)} {g.edge_count()}", *names, *edges]) + "\n"


def _ascii_count(tok: str) -> Optional[int]:
    """The count `tok` writes in ASCII digits, or None for any other text: a
    sign, an underscore, another script's digits or more digits than int()
    converts."""
    if tok.isascii() and tok.isdigit():
        try:
            return int(tok)
        except ValueError:  # more digits than int() converts
            pass
    return None


def read_graph_text(text: str) -> Graph:
    """Parse the graph text format; labels stay strings."""
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln]
    if not lines:
        raise GraphError("empty graph file")
    head = [_ascii_count(tok) for tok in lines[0].split()]
    if len(head) != 2 or None in head:
        raise GraphError(f"bad header line {lines[0]!r}")
    n, m = head
    if len(lines) != 1 + n + m:
        raise GraphError(f"expected {1 + n + m} lines, found {len(lines)}")
    vertices = lines[1 : 1 + n]
    g = Graph(vertices)
    index, adj = g._index, g._adj
    for ln in lines[1 + n :]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphError(f"bad edge line {ln!r}")
        i, j = index.get(parts[0]), index.get(parts[1])
        if i is None or j is None or i == j:
            g.add_edge(*parts)  # raises the unknown-vertex or self-loop error
        if j in adj[i]:
            raise GraphError(f"repeated edge line {ln!r}")
        adj[i].add(j)
        adj[j].add(i)
    return g
