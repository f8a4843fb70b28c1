"""`is_planar`, a left-right test of our own, against the networkx test it
replaced: random small graphs, and fixed families whose answers are known."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planarity_reference import is_planar as reference_is_planar
from vpgbend.graphs import Graph
from vpgbend.lowerbound import is_planar


def numbered(n, edges, rng=None):
    """Vertices 0..n-1, inserted in a shuffled order when `rng` is given, so
    that the DFS starts and turns elsewhere than the labels suggest."""
    order = list(range(n))
    if rng is not None:
        rng.shuffle(order)
    return Graph(order, edges)


def complete_edges(n):
    return list(combinations(range(n), 2))


K33_EDGES = [(i, 3 + j) for i in range(3) for j in range(3)]


def union(*parts):
    """Disjoint union of (n, edges) parts, renumbered one after another."""
    n, edges = 0, []
    for m, es in parts:
        edges += [(u + n, v + n) for u, v in es]
        n += m
    return n, edges


def subdivided_with_pendants(n, edges, rng):
    """Each edge replaced by a path of 0 to 3 new inner vertices, then a few
    pendant trees hung from random vertices."""
    out = []
    for u, v in edges:
        chain = [u] + list(range(n, n + rng.randint(0, 3))) + [v]
        n += len(chain) - 2
        out += zip(chain, chain[1:])
    for _ in range(rng.randint(1, 8)):
        out.append((rng.randrange(n), n))
        n += 1
    return n, out


def stacked_triangulation(n, rng):
    """A maximal planar graph (3n - 6 edges) grown by putting each new vertex
    in a random face of a triangle and joining it to the face's corners."""
    edges, faces = [(0, 1), (1, 2), (0, 2)], [(0, 1, 2), (0, 2, 1)]
    for x in range(3, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        edges += [(a, x), (b, x), (c, x)]
        faces += [(a, b, x), (b, c, x), (c, a, x)]
    return edges


OCTAHEDRON = [(u, v) for u, v in complete_edges(6) if v - u != 3]
# two poles, 0 and 11, over two pentagons joined by a zigzag band
ICOSAHEDRON = [(0, j) for j in range(1, 6)] + [(j, 11) for j in range(6, 11)] + [
    tuple(sorted(e)) for i in range(5) for e in (
        (1 + i, 1 + (i + 1) % 5), (6 + i, 6 + (i + 1) % 5), (1 + i, 6 + i), (1 + i, 6 + (i + 1) % 5))]


def agreed(g):
    answer = is_planar(g)
    assert answer == reference_is_planar(g)
    return answer


@st.composite
def small_graphs(draw):
    n = draw(st.integers(0, 12))
    pairs = complete_edges(n)
    # at least n edges, most of them under Euler's bound: sparser graphs are
    # planar too plainly to tell a wrong test from a right one
    edges = draw(st.lists(st.sampled_from(pairs), min_size=min(n, len(pairs)), max_size=3 * n,
                          unique=True)) if pairs else []
    return Graph(draw(st.permutations(range(n))), edges)


@settings(max_examples=1000, deadline=None)
@given(small_graphs())
def test_agrees_with_networkx_on_small_graphs(g):
    assert is_planar(g) == reference_is_planar(g)


@pytest.mark.parametrize("seed", range(4))
def test_agrees_with_networkx_on_sparse_random_graphs(seed):
    # G(n, m) under Euler's bound, so that every answer comes from the LR phases
    rng = random.Random(seed)
    for _ in range(100):
        n = rng.randint(7, 30)
        pairs = complete_edges(n)
        agreed(numbered(n, rng.sample(pairs, rng.randint(n, 3 * n - 6)), rng))


@pytest.mark.parametrize("n, edges", [(0, []), (1, []), (2, []), (2, [(0, 1)]), (3, complete_edges(3))])
def test_tiny_graphs_are_planar(n, edges):
    assert agreed(numbered(n, edges))


@pytest.mark.parametrize(
    "parts, planar",
    [
        ([(4, complete_edges(4)), (4, complete_edges(4))], True),
        ([(1, []), (3, complete_edges(3)), (2, [(0, 1)]), (1, [])], True),
        ([(4, complete_edges(4)), (5, complete_edges(5))], False),
        ([(5, []), (5, complete_edges(5))], False),
        ([(6, K33_EDGES), (5, [(i, (i + 1) % 5) for i in range(5)])], False),
    ],
)
def test_disjoint_unions(parts, planar):
    assert agreed(numbered(*union(*parts))) is planar


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("base", ["K5", "K3,3"])
def test_kuratowski_subdivisions_with_pendant_trees(base, seed):
    rng = random.Random(seed)
    n, edges = (5, complete_edges(5)) if base == "K5" else (6, list(K33_EDGES))
    assert not agreed(numbered(*subdivided_with_pendants(n, edges, rng), rng))
    # one edge fewer leaves a planar graph
    edges.remove(rng.choice(edges))
    assert agreed(numbered(*subdivided_with_pendants(n, edges, rng), rng))


@pytest.mark.parametrize("seed", range(12))
def test_maximal_planar_graphs(seed):
    rng = random.Random(seed)
    for n, edges in [(6, OCTAHEDRON), (12, ICOSAHEDRON), (rng.randint(5, 40), None)]:
        edges = edges or stacked_triangulation(n, rng)
        assert len(set(edges)) == 3 * n - 6
        assert agreed(numbered(n, edges, rng))
        missing = [e for e in complete_edges(n) if e not in set(edges)]
        assert not agreed(numbered(n, edges + [rng.choice(missing)], rng))
        # one edge moved to where none was: planar or not, as networkx says
        moved = rng.sample(edges, len(edges))[1:] + [rng.choice(missing)]
        agreed(numbered(n, moved, rng))
