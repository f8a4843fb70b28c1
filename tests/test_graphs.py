from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graph_reference as reference
from vpgbend.errors import DomainError, GraphError, ParameterError
from vpgbend.graphs import (
    Graph,
    SplitPartition,
    all_qedges,
    build_hnk_member,
    build_split_knk,
    check_split_partition,
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


def test_graph_is_never_equal_to_another_type():
    # __eq__ leaves the comparison to the other operand, which finds no match
    g = Graph(["a", "b"], [("a", "b")])
    assert g.__eq__({"a", "b"}) is NotImplemented
    assert g != {"a", "b"} and not g == g.edges()


def test_graph_equal_under_another_vertex_order():
    g = build_hnk_member(5, 2, all_qedges(5, 2)[::3])
    vertices = list(g.vertices)
    reordered = Graph(vertices[1::2] + vertices[::2], g.edges()[::-1])
    assert reordered.vertices != g.vertices
    assert g == reordered and reordered == g


@pytest.mark.parametrize("clique, independent, message", [
    ((1, 2), (2, 3), "clique and independent parts overlap"),
    ((1, 2), (), "partition does not cover the vertex set"),
    ((1, 2), (3, 4), "partition does not cover the vertex set"),
    ((1, 3), (2,), "clique part does not induce a complete graph"),
    ((3,), (1, 2), "independent part induces an edge"),
])
def test_check_split_partition_names_the_first_failed_condition(clique, independent, message):
    g = Graph([1, 2, 3], [(1, 2), (2, 3)])
    check_split_partition(g, SplitPartition(clique=(1, 2), independent=(3,)))
    with pytest.raises(DomainError, match=f"^{message}$"):
        check_split_partition(g, SplitPartition(clique=clique, independent=independent))


def _drawn_graph(data, labels):
    pairs = list(combinations(labels, 2))
    return Graph(labels, data.draw(st.lists(st.sampled_from(pairs), max_size=6)) if pairs else ())


_small_labels = st.lists(st.integers(0, 4), unique=True, max_size=5)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_graph_equality_is_vertex_and_edge_set_equality(data):
    g = _drawn_graph(data, data.draw(_small_labels))
    # mostly g's vertices in another order, with g's edges or drawn ones
    labels = data.draw(st.one_of(st.permutations(g.vertices), _small_labels))
    if data.draw(st.booleans()):
        h = Graph(labels, [e for e in g.edges()[::-1] if set(e) <= set(labels)])
    else:
        h = _drawn_graph(data, labels)
    expected = set(g.vertices) == set(h.vertices) and g.edge_set() == h.edge_set()
    assert (g == h) == (h == g) == expected


def test_graphs_with_the_same_degrees_and_other_edges_are_not_equal():
    g = Graph([0, 1, 2, 3], [(0, 1), (2, 3)])
    assert g != Graph([3, 2, 1, 0], [(0, 2), (1, 3)])
    assert g == Graph([3, 2, 1, 0], [(3, 2), (1, 0)])


def test_graphs_one_edge_apart_are_not_equal():
    g = build_hnk_member(5, 2, all_qedges(5, 2)[::3])
    edges = g.edges()
    short = Graph(g.vertices[::-1], edges[:-1])
    assert g != short and short != g
    # as many edges, one of them moved to a non-edge
    u, v = edges[-1]
    w = next(w for w in g.vertices if w not in (u, v) and not g.has_edge(u, w))
    moved = Graph(g.vertices, edges[:-1] + [(u, w)])
    assert moved.edge_count() == g.edge_count()
    assert g != moved and moved != g
    # the same edge count on other vertex labels
    assert Graph(["a", "b", "c"], [("a", "b")]) != Graph(["a", "b", "d"], [("a", "b")])


# --- against the label-keyed reference -------------------------------------------

# ints, strings and int tuples, which never compare equal across kinds
LABELS = st.one_of(
    st.integers(-3, 6),
    st.text("abc", min_size=1, max_size=2),
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
)
UNKNOWN = ["zz", 99, (9, 9)]


def outcome(f, *args):
    """f(*args), or the type and message of what it raised."""
    try:
        return f(*args)
    except Exception as e:  # compared, never swallowed: both sides must agree
        return type(e), str(e)


@st.composite
def graph_inputs(draw):
    vertices = draw(st.lists(LABELS, unique=True, max_size=10))
    if vertices and draw(st.integers(0, 7)) == 5:
        vertices.insert(draw(st.integers(0, len(vertices))), draw(st.sampled_from(vertices)))
    if not vertices:
        return vertices, draw(st.lists(st.tuples(*[st.sampled_from(UNKNOWN)] * 2), max_size=2))
    # a ring through some vertices, so that long cycles are common, chorded
    # by random pairs; then edges on unknown labels and self-loops
    ring = draw(st.permutations(vertices))[len(vertices) // 3 :]
    known, ends = st.sampled_from(vertices), st.sampled_from(vertices + UNKNOWN)
    edges = list(zip(ring, ring[1:] + ring[:1]))
    edges += draw(st.lists(st.tuples(known, known), max_size=8))
    edges += draw(st.lists(st.tuples(ends, ends), max_size=3))
    edges += [(v, v) for v in draw(st.lists(known, max_size=2))]
    return vertices, draw(st.permutations(edges))


def built(graph_class, vertices, edges):
    """The graph on `vertices` with each edge attempt's outcome, or the
    constructor's error."""
    g = outcome(graph_class, vertices)
    if isinstance(g, tuple):
        return g, []
    return g, [outcome(g.add_edge, u, v) for u, v in edges]


@settings(max_examples=400, deadline=None)
@given(graph_inputs())
def test_graph_matches_label_keyed_reference(inputs):
    vertices, edges = inputs
    g, attempts = built(Graph, vertices, edges)
    ref, ref_attempts = built(reference.Graph, vertices, edges)
    if isinstance(ref, tuple):
        assert g == ref
        return
    assert attempts == ref_attempts
    # the constructor stops at the first bad edge, with its error
    full, ref_full = outcome(Graph, vertices, edges), outcome(reference.Graph, vertices, edges)
    assert full == ref_full if isinstance(ref_full, tuple) else full.edges() == ref_full.edges()
    assert g.vertices == ref.vertices and len(g) == len(ref) and repr(g) == repr(ref)
    assert g.edges() == ref.edges() and g.edge_count() == ref.edge_count()
    labels = vertices + UNKNOWN
    for u in labels:
        assert (u in g) == (u in ref)
        for f in ("neighbors", "degree", "index"):
            assert outcome(getattr(g, f), u) == outcome(getattr(ref, f), u)
        assert [g.has_edge(u, v) for v in labels] == [ref.has_edge(u, v) for v in labels]
    # == against a graph on the same vertices in reverse, without its first edge
    other = Graph(vertices[::-1], g.edges()[1:])
    assert (g == other) == (ref == reference.Graph(vertices[::-1], ref.edges()[1:]))
    assert g == Graph(vertices[::-1], ref.edges()[::-1])
    for L in range(3, 8):
        assert has_long_induced_cycle(g, L) == reference.has_long_induced_cycle(ref, L)


@st.composite
def graph_files(draw):
    """Graph text: vertex lines, some repeated or of two words, and edge
    lines, mostly two known labels, else an earlier line in either order, a
    self-loop, an unknown label or one or three words.  The header mostly
    counts the lines, and blank lines and padding lie between."""
    names = draw(st.lists(st.sampled_from("abcde"), unique=True, min_size=1, max_size=5))
    known = st.sampled_from(list(names))
    extra = draw(st.sampled_from([None] * 6 + ["a b", "a"]))  # two words, or a repeat
    if extra:
        names.insert(draw(st.integers(0, len(names))), extra)
    word = st.sampled_from(["z"]) if draw(st.integers(0, 5)) == 0 else known
    edges = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(("pair",) * 8 + ("again",) * 3 + ("loop", "other")))
        if kind == "again" and edges:
            edge = draw(st.sampled_from(edges))
            edges.append(edge[::draw(st.sampled_from((1, -1)))])
        elif kind == "loop":
            edges.append([draw(known)] * 2)
        elif kind == "other":
            edges.append(draw(st.lists(word, min_size=1, max_size=3)))
        else:  # two known labels, distinct where there are two
            u = draw(known)
            v = draw(word.filter(lambda v: v != u) if set(names) - {u, "a b"} else word)
            edges.append([u, v])
    m = len(edges) + draw(st.sampled_from((0,) * 8 + (1, -1)))
    head = draw(st.sampled_from([f"{len(names)} {m}"] * 9 + ["x 0"]))
    pad = st.sampled_from((" ", " ", "\t", "  "))
    lines = [head, *names, *(draw(pad).join(e) for e in edges)]
    return "".join(ln + draw(st.sampled_from(("\n", "\n", "\n \n", "  \r\n"))) for ln in lines)


def _read_back(read, text):
    g = read(text)
    return g.vertices, g.edge_set()


@settings(max_examples=400, deadline=None)
@given(graph_files())
def test_graph_reader_matches_reference(text):
    expected = outcome(_read_back, reference.read_graph_text, text)
    assert outcome(_read_back, read_graph_text, text) == expected


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


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_hnk_complete_3_is_in_forb_c5(n):
    # hnk-complete(n,3) is the cocomparability graph of P(1,n-3;n), and no
    # cocomparability graph has an induced cycle of length 5 or more
    assert not has_long_induced_cycle(build_hnk_member(n, 3, all_qedges(n, 3)), 5)


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


@pytest.mark.parametrize("text, message", [
    ("nonsense\n", "bad header line 'nonsense'"),
    ("2 1\na\nb\n", "expected 4 lines, found 3"),
    # an edge line that repeats an edge, in either order
    ("3 3\na\nb\nc\na b\na b\nb c\n", "repeated edge line 'a b'"),
    ("3 3\na\nb\nc\na b\nb a\nb c\n", "repeated edge line 'b a'"),
    ("3 2\na\nb\nc\na b\na z\n", "edge ('a','z') uses an unknown vertex"),
    ("3 2\na\nb\nc\na b\nc c\n", "self-loop at 'c'"),
    # counts that int() reads but that are not ASCII digits, each with the
    # lines that count would ask for
    ("1_0 0\n" + "".join(f"v{i}\n" for i in range(10)), "bad header line '1_0 0'"),
    ("2 +1\na\nb\na b\n", "bad header line '2 +1'"),
    ("\u0662 0\na\nb\n", "bad header line '\u0662 0'"),
], ids=["header", "missing-edge", "repeated", "reversed", "unknown-vertex", "self-loop",
        "underscore", "plus", "arabic-indic-digit"])
def test_graph_text_rejects_malformed(text, message):
    with pytest.raises(GraphError) as info:
        read_graph_text(text)
    assert str(info.value) == message


@pytest.mark.parametrize("header", ["2 -1", "-1 0"])
def test_graph_text_rejects_a_negative_count(header):
    # "2 -1" with one vertex line has 1 + 2 − 1 lines, as the count check asked
    with pytest.raises(GraphError) as info:
        read_graph_text(f"{header}\na\n")
    assert str(info.value) == f"bad header line {header!r}"


def test_ksubsets_lexicographic():
    assert ksubsets(4, 2) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
