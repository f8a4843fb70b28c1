"""The networkx planarity call that `vpgbend.lowerbound.is_planar` replaced
with a left-right test of its own, kept only to test that one against: every
answer must agree.  networkx is a test-only dependency.
"""

import networkx as nx

from vpgbend.graphs import Graph


def is_planar(g: Graph) -> bool:
    ng = nx.Graph()
    ng.add_nodes_from(g.vertices)
    ng.add_edges_from(g.edges())
    ok, _ = nx.check_planarity(ng, counterexample=False)
    return ok
