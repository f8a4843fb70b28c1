from itertools import combinations
from math import comb

import pytest

from vpgbend.errors import DomainError, GraphError, ParameterError
from vpgbend.graphs import (
    Graph,
    all_qedges,
    build_hnk_member,
    build_split_knk,
    complement,
    contract_edge,
    has_long_induced_cycle,
    ksubsets,
    read_graph_text,
    write_graph_text,
)


def cycle_graph(n):
    g = Graph(range(n))
    for i in range(n):
        g.add_edge(i, (i + 1) % n)
    return g


def complete_graph(n):
    g = Graph(range(n))
    for u, v in combinations(range(n), 2):
        g.add_edge(u, v)
    return g


def test_graph_rejects_loops_and_duplicates():
    with pytest.raises(GraphError):
        Graph([1, 1])
    g = Graph([1, 2])
    with pytest.raises(GraphError):
        g.add_edge(1, 1)
    with pytest.raises(GraphError):
        g.add_edge(1, 3)


def test_neighbors_sorted_by_insertion_order():
    g = Graph(["c", "a", "b"], [("b", "c"), ("a", "c")])
    assert g.neighbors("c") == ["a", "b"]


def test_graph_is_unhashable():
    # a hash of its edges would go stale on the next add_edge
    with pytest.raises(TypeError):
        hash(Graph(["a"]))
    assert Graph(["a", "b"], [("a", "b")]) == Graph(["b", "a"], [("b", "a")])


# --- build_split_knk ---------------------------------------------------------


def test_split_knk_52_shape():
    g, part = build_split_knk(5, 2)
    assert len(part.clique) == 5 and len(part.independent) == 10
    for u in part.independent:
        assert g.degree(u) == 2


def test_split_knk_rejects_k_equal_n():
    with pytest.raises(ParameterError):
        build_split_knk(3, 3)


def test_split_knk_43_edge_count():
    g, part = build_split_knk(4, 3)
    assert len(part.independent) == comb(4, 3) == 4
    # independent oracle: clique edges plus one edge per (subset, member) pair
    expected = comb(4, 2) + comb(4, 3) * 3
    assert g.edge_count() == expected == 18


@pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (5, 3), (6, 3)])
def test_split_knk_degree_formulas(n, k):
    g, part = build_split_knk(n, k)
    for u in part.independent:
        assert g.degree(u) == k
    for v in part.clique:
        assert g.degree(v) == (n - 1) + comb(n - 1, k - 1)


# --- build_hnk_member ---------------------------------------------------------


def test_hnk_all_pairs_is_forbidden_cycle_family():
    g = build_hnk_member(4, 2, all_qedges(4, 2))
    assert not has_long_induced_cycle(g, 5)


def test_hnk_empty_q_matches_split_graph():
    g1 = build_hnk_member(4, 2, [])
    g2, _ = build_split_knk(4, 2)
    assert g1 == g2


@pytest.mark.parametrize("n,k", [(2, 1), (4, 2), (5, 3), (6, 2), (7, 4)])
def test_split_knk_is_hnk_member_without_q_edges(n, k):
    g1, _ = build_split_knk(n, k)
    g2 = build_hnk_member(n, k, ())
    assert g1 == g2
    assert g1.vertices == g2.vertices


def test_hnk_single_qedge_counts():
    g = build_hnk_member(4, 2, [((1, 2), (3, 4))])
    assert len(g) == 4 + 6
    assert g.edge_count() == comb(4, 2) + 6 * 2 + 1 == 19


@pytest.mark.parametrize("n, k", [(2, -1), (-1, -3), (3, 0), (3, 3), (2, 5)])
def test_all_qedges_rejects_what_the_builder_rejects(n, k):
    # checked before any k-subset is listed, with the builder's own message
    with pytest.raises(ParameterError) as listed:
        all_qedges(n, k)
    with pytest.raises(ParameterError) as built:
        build_hnk_member(n, k, ())
    assert str(listed.value) == str(built.value) == f"need n > k >= 1, got n={n}, k={k}"


def test_hnk_rejects_bad_subsets():
    with pytest.raises(ParameterError):
        build_hnk_member(4, 2, [((1, 2, 3), (1, 2))])
    with pytest.raises(ParameterError):
        build_hnk_member(4, 2, [((1, 2), (1, 2))])
    with pytest.raises(ParameterError):
        build_hnk_member(2, 2, [])


# --- induced long cycles -------------------------------------------------------


def test_c5_has_long_induced_cycle():
    assert has_long_induced_cycle(cycle_graph(5), 5)


def test_long_induced_cycle_search_has_no_depth_limit():
    # the induced path grows to 1,199 vertices, past Python's recursion limit
    assert has_long_induced_cycle(cycle_graph(1200), 5)


def test_complete_graph_has_no_long_induced_cycle():
    assert not has_long_induced_cycle(complete_graph(4), 4)


def test_c4_thresholds():
    c4 = cycle_graph(4)
    assert has_long_induced_cycle(c4, 4)
    assert not has_long_induced_cycle(c4, 5)


def test_c6_with_chord_loses_long_cycle():
    g = cycle_graph(6)
    g.add_edge(0, 3)
    assert not has_long_induced_cycle(g, 5)


def test_hnk_all_pairs_52_no_long_cycle():
    g = build_hnk_member(5, 2, all_qedges(5, 2))
    assert not has_long_induced_cycle(g, 5)


def test_long_cycle_threshold_validated():
    with pytest.raises(ParameterError):
        has_long_induced_cycle(cycle_graph(4), 2)


# --- contraction and complement -------------------------------------------------


def test_contract_k3_gives_k2():
    g = contract_edge(complete_graph(3), 0, 1)
    assert len(g) == 2 and g.edge_count() == 1


def test_contract_c4_gives_c3():
    g = contract_edge(cycle_graph(4), 0, 1)
    assert len(g) == 3 and g.edge_count() == 3


def test_contract_p4_gives_p3():
    p4 = Graph(range(4), [(0, 1), (1, 2), (2, 3)])
    g = contract_edge(p4, 1, 2)
    assert len(g) == 3 and g.edge_count() == 2
    assert sorted(g.degree(v) for v in g.vertices) == [1, 1, 2]


def test_contract_requires_edge():
    with pytest.raises(DomainError):
        contract_edge(cycle_graph(4), 0, 2)


def test_contract_never_creates_loops():
    g = contract_edge(complete_graph(4), 0, 1)
    for v in g.vertices:
        assert not g.has_edge(v, v)


def test_complement_of_complete_is_edgeless():
    assert complement(complete_graph(4)).edge_count() == 0


def test_complement_of_c5_is_c5_shaped():
    cc = complement(cycle_graph(5))
    assert cc.edge_count() == 5
    assert all(cc.degree(v) == 2 for v in cc.vertices)
    assert has_long_induced_cycle(cc, 5)


def test_complement_is_involution():
    g = build_hnk_member(4, 2, [((1, 2), (3, 4))])
    assert complement(complement(g)) == g


# --- text format -----------------------------------------------------------------


def test_graph_text_round_trip():
    g, _ = build_split_knk(4, 2)
    text = write_graph_text(g)
    h = read_graph_text(text)
    assert write_graph_text(h) == text
    assert len(h) == len(g) and h.edge_count() == g.edge_count()


@pytest.mark.parametrize(
    "vertices", [[1, "1"], [(1, 2), "1,2"], ["a b", "c"], ["", "c"], ["a\nb"], ["a\x1cb"]]
)
def test_graph_writer_rejects_labels_its_reader_cannot_return(vertices):
    # labels with one text, or a text that is empty or holds whitespace,
    # would come back merged, split or miscounted
    with pytest.raises(GraphError, match="cannot be written to a graph file"):
        write_graph_text(Graph(vertices))


def test_graph_text_rejects_malformed():
    with pytest.raises(GraphError):
        read_graph_text("nonsense\n")
    with pytest.raises(GraphError):
        read_graph_text("2 1\na\nb\n")  # missing edge line


@pytest.mark.parametrize("header", ["2 -1", "-1 0"])
def test_graph_text_rejects_a_negative_count(header):
    # "2 -1" with one vertex line has 1 + 2 − 1 lines, as the count check asked
    with pytest.raises(GraphError) as info:
        read_graph_text(f"{header}\na\n")
    assert str(info.value) == f"bad header line {header!r}"


def test_ksubsets_lexicographic():
    assert ksubsets(4, 2) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
