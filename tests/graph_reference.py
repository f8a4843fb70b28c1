"""The label-keyed `Graph` and induced-cycle search that `vpgbend.graphs`
replaced with adjacency sets keyed by vertex number, and a line-by-line
graph text reader on them, kept only to test the numbered ones and
`read_graph_text` against: every query, error and search answer must agree.
"""

from itertools import combinations
from typing import Dict, Hashable, Iterable, List, Tuple

from vpgbend.errors import GraphError, ParameterError

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
        self._adj: Dict[Label, set] = {v: set() for v in self._vertices}
        for u, v in edges:
            self.add_edge(u, v)

    def add_edge(self, u: Label, v: Label) -> None:
        if u not in self._index or v not in self._index:
            raise GraphError(f"edge ({u!r},{v!r}) uses an unknown vertex")
        if u == v:
            raise GraphError(f"self-loop at {u!r}")
        self._adj[u].add(v)
        self._adj[v].add(u)

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
        return sorted(self._adj[v], key=self._index.__getitem__)

    def degree(self, v: Label) -> int:
        return len(self._adj[v])

    def has_edge(self, u: Label, v: Label) -> bool:
        return v in self._adj.get(u, ())

    def edges(self) -> List[Tuple[Label, Label]]:
        """Edges as index-ordered pairs, sorted by index."""
        out = []
        for u in self._vertices:
            iu = self._index[u]
            for v in self._adj[u]:
                if self._index[v] > iu:
                    out.append((u, v))
        out.sort(key=lambda e: (self._index[e[0]], self._index[e[1]]))
        return out

    def edge_count(self) -> int:
        return sum(len(s) for s in self._adj.values()) // 2

    def edge_set(self) -> frozenset:
        return frozenset(frozenset(e) for e in self.edges())

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return set(self._vertices) == set(other._vertices) and self.edge_set() == other.edge_set()

    def __repr__(self):
        return f"Graph({len(self)} vertices, {self.edge_count()} edges)"

    def is_clique(self, subset: Iterable[Label]) -> bool:
        vs = list(subset)
        return all(self.has_edge(u, v) for u, v in combinations(vs, 2))

    def is_independent(self, subset: Iterable[Label]) -> bool:
        vs = list(subset)
        return not any(self.has_edge(u, v) for u, v in combinations(vs, 2))


def has_long_induced_cycle(g: Graph, L: int) -> bool:
    """True iff `g` contains an induced (chordless) cycle of length >= L.

    Exhaustive search over induced paths whose minimum-index vertex comes
    first; intended for desk-scale graphs only.
    """
    if L < 3:
        raise ParameterError("cycle length threshold must be >= 3")
    order = {v: i for i, v in enumerate(g.vertices)}
    for v0 in g.vertices:
        # depth-first on an explicit stack: one neighbour iterator per path vertex
        path, on_path, frontier = [v0], {v0}, [iter(g.neighbors(v0))]
        while frontier:
            for w in frontier[-1]:
                if order[w] <= order[v0] or w in on_path:
                    continue
                if len(path) > 1:
                    # keep the path induced: w may touch only the last vertex, and v0 to close
                    if any(g.has_edge(w, u) for u in path[1:-1]):
                        continue
                    if g.has_edge(w, v0):
                        if len(path) + 1 >= L:
                            return True
                        continue  # closing early; extending past w would leave a chord to v0
                path.append(w)
                on_path.add(w)
                frontier.append(iter(g.neighbors(w)))
                break
            else:
                frontier.pop()
                on_path.discard(path.pop())
    return False


def read_graph_text(text: str) -> Graph:
    """The graph text format read line by line onto the label-keyed `Graph`:
    a header 'n m' of two ASCII digit counts, n vertex lines, then m edge
    lines of two labels each, none repeating an edge in either order."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise GraphError("empty graph file")
    head = lines[0].split()
    try:
        if len(head) != 2 or not all(tok.isascii() and tok.isdigit() for tok in head):
            raise ValueError
        n, m = int(head[0]), int(head[1])
    except ValueError:  # or more digits than int() converts
        raise GraphError(f"bad header line {lines[0]!r}") from None
    if len(lines) != 1 + n + m:
        raise GraphError(f"expected {1 + n + m} lines, found {len(lines)}")
    g = Graph(lines[1 : 1 + n])
    for ln in lines[1 + n :]:
        words = ln.split()
        if len(words) != 2:
            raise GraphError(f"bad edge line {ln!r}")
        u, v = words
        if g.has_edge(u, v):
            raise GraphError(f"repeated edge line {ln!r}")
        g.add_edge(u, v)
    return g
