import time
from itertools import combinations

import pytest

import vpgbend.graphs
import vpgbend.posets
from vpgbend.errors import DomainError, ParameterError, ValidationError
from vpgbend.graphs import all_qedges, build_hnk_member, build_split_knk, label_str, write_graph_text
from vpgbend.posets import (
    LinearOrder,
    Poset,
    Realizer,
    brute_force_dimension,
    build_p_rsn,
    cocomparability_graph,
    find_realizer,
    is_realizer,
    make_poset,
    pivot_element,
    read_poset_text,
    write_poset_text,
)


def chain(*xs):
    return make_poset(xs, [(a, b) for a, b in zip(xs, xs[1:])])


def antichain(*xs):
    return Poset(ground=tuple(xs), less=frozenset())


def test_poset_validation():
    with pytest.raises(ValidationError):
        Poset(ground=("a",), less=frozenset({("a", "a")}))
    with pytest.raises(ValidationError):
        Poset(ground=("a", "b"), less=frozenset({("a", "b"), ("b", "a")}))
    with pytest.raises(ValidationError):
        # missing transitive pair (a, c)
        Poset(ground=("a", "b", "c"), less=frozenset({("a", "b"), ("b", "c")}))


# --- build_p_rsn -----------------------------------------------------------------


def test_p123_ground_and_relation_size():
    p = build_p_rsn(1, 2, 3)
    assert len(p.ground) == 6
    # independent oracle: enumerate containments directly
    expected = sum(
        1
        for big in combinations(range(1, 4), 2)
        for small in combinations(range(1, 4), 1)
        if set(big) >= set(small)
    )
    assert len(p.less) == expected == 6


def test_p123_height_one():
    p = build_p_rsn(1, 2, 3)
    for x, y in p.less:
        for z, w in p.less:
            assert y != z  # no chains of length three


def test_p_rsn_parameter_errors():
    with pytest.raises(ParameterError):
        build_p_rsn(2, 2, 4)
    with pytest.raises(ParameterError):
        build_p_rsn(1, 3, 3)


def test_p_rsn_orientation_supersets_first():
    p = build_p_rsn(1, 2, 3)
    assert p.is_less((1, 2), (1,))
    assert not p.is_less((1,), (1, 2))


# --- realizers -------------------------------------------------------------------


def test_chain_realized_by_itself():
    p = chain("a", "b", "c")
    assert is_realizer(p, Realizer(orders=(LinearOrder(("a", "b", "c")),)))


def test_two_element_antichain_realizer():
    p = antichain("a", "b")
    good = Realizer(orders=(LinearOrder(("a", "b")), LinearOrder(("b", "a"))))
    bad = Realizer(orders=(LinearOrder(("a", "b")),))
    assert is_realizer(p, good)
    assert not is_realizer(p, bad)


def test_realizer_orders_must_be_extensions():
    p = chain("a", "b")
    r = Realizer(orders=(LinearOrder(("b", "a")),))
    assert not is_realizer(p, r)


def test_is_extension_of_needs_the_ground_set_and_every_relation():
    p = chain("a", "b")
    assert LinearOrder(("a", "b")).is_extension_of(p)
    assert not LinearOrder(("b", "a")).is_extension_of(p)
    assert not LinearOrder(("a", "c")).is_extension_of(p)
    assert not LinearOrder(("a", "b", "c")).is_extension_of(p)


def test_realizer_ground_mismatch():
    p = chain("a", "b")
    with pytest.raises(DomainError):
        is_realizer(p, Realizer(orders=(LinearOrder(("a", "c")),)))


# --- dimension -------------------------------------------------------------------


def test_dimension_of_chain_is_one():
    assert brute_force_dimension(chain("a", "b", "c", "d"), 3) == 1


def test_dimension_of_two_antichain_is_two():
    assert brute_force_dimension(antichain("a", "b"), 3) == 2


def test_dimension_p123_is_three():
    assert brute_force_dimension(build_p_rsn(1, 2, 3), 4) == 3


def test_no_size_two_realizer_for_p123():
    assert find_realizer(build_p_rsn(1, 2, 3), 2) is None
    with pytest.raises(ParameterError, match="realizer size must be positive"):
        find_realizer(build_p_rsn(1, 2, 3), 0)


def test_dimension_sentinel_when_budget_too_small():
    assert brute_force_dimension(build_p_rsn(1, 2, 3), 2) is None


@pytest.mark.parametrize("max_dim", [0, -3])
def test_dimension_bound_below_one_rejected(max_dim):
    with pytest.raises(ParameterError):
        brute_force_dimension(chain("a", "b", "c"), max_dim)


@pytest.mark.parametrize("r,s", [(1, 3), (1, 4), (2, 4), (1, 5), (2, 5)])
def test_containment_poset_dimension_lower_bound(r, s):
    # dimension of the containment poset on (s-1)-subsets of [s] is > s-r
    p = build_p_rsn(r, s - 1, s)
    assert brute_force_dimension(p, s - r) is None


def test_found_realizers_verify():
    p = build_p_rsn(1, 2, 3)
    realizer = find_realizer(p, 3)
    assert realizer is not None
    assert is_realizer(p, realizer)
    assert len(realizer.orders) == 3


def test_dimension_search_matches_naive_enumeration():
    # independent oracle: enumerate every linear extension and try every
    # combination; compare verdicts on a reproducible batch of small posets
    import random
    from itertools import permutations

    def all_linear_extensions(p):
        out = []
        for perm in permutations(p.ground):
            pos = {x: i for i, x in enumerate(perm)}
            if all(pos[a] < pos[b] for a, b in p.less):
                out.append(LinearOrder(perm))
        return out

    def naive_dimension(p, max_dim):
        exts = all_linear_extensions(p)
        for t in range(1, max_dim + 1):
            for combo in combinations(exts, t):
                if is_realizer(p, Realizer(orders=tuple(combo))):
                    return t
        return None

    rng = random.Random(0)
    elements = ["a", "b", "c", "d", "e"]
    pairs = [(x, y) for x in elements for y in elements if x != y]
    tested = 0
    for _ in range(40):
        rels = rng.sample(pairs, rng.randint(2, 6))
        try:
            p = make_poset(elements, rels)
        except ValidationError:
            continue
        assert naive_dimension(p, 2) == brute_force_dimension(p, 2)
        tested += 1
    assert tested >= 20


# --- pivots ----------------------------------------------------------------------


def test_pivot_is_last_two_subset():
    p = build_p_rsn(1, 2, 3)
    realizer = find_realizer(p, 3)
    for order in realizer.orders:
        piv = pivot_element(order, p, 3)
        twos = [x for x in order.sequence if len(x) == 2]
        assert piv == twos[-1]


def test_pivot_requires_subsets():
    p = chain("a", "b")
    with pytest.raises(DomainError):
        pivot_element(LinearOrder(("a", "b")), p, 3)


def test_pivot_explicit_order():
    p = build_p_rsn(1, 2, 3)
    order = LinearOrder(((2, 3), (1, 3), (3,), (1, 2), (2,), (1,)))
    assert order.is_extension_of(p)
    assert pivot_element(order, p, 3) == (1, 2)


# --- cocomparability -------------------------------------------------------------


def test_cocomparability_of_chain_is_edgeless():
    g = cocomparability_graph(chain("a", "b", "c"))
    assert g.edge_count() == 0


def test_cocomparability_of_antichain_is_complete():
    g = cocomparability_graph(antichain("a", "b", "c", "d"))
    assert g.edge_count() == 6


def test_cocomparability_edge_count_formula():
    p = build_p_rsn(2, 3, 4)
    g = cocomparability_graph(p)
    n = len(p.ground)
    assert g.edge_count() == n * (n - 1) // 2 - len(p.less)


def test_cocomparability_p234_isomorphic_to_hnk():
    # explicit relabeling: a 3-subset X of [4] maps to the element [4] minus X,
    # a 2-subset maps to itself
    p = build_p_rsn(2, 3, 4)
    g = cocomparability_graph(p)
    h = build_hnk_member(4, 2, all_qedges(4, 2))

    def relabel(x):
        if len(x) == 3:
            (d,) = set(range(1, 5)) - set(x)
            return d
        return x

    mapped = {frozenset((relabel(u), relabel(v))) for u, v in g.edges()}
    expected = {frozenset((u, v)) for u, v in h.edges()}
    assert mapped == expected


# --- text format -----------------------------------------------------------------


def test_poset_text_round_trip():
    p = build_p_rsn(1, 2, 3)
    text = write_poset_text(p)
    q = read_poset_text(text)
    assert write_poset_text(q) == text
    assert len(q.ground) == len(p.ground) and len(q.less) == len(p.less)


def test_writers_format_each_label_once(monkeypatch):
    # the edge and relation lines reuse each label's text; the bytes are
    # those of formatting both ends of every line again
    g, _ = build_split_knk(6, 3)
    p = build_p_rsn(1, 2, 5)
    edges = [f"{label_str(u)} {label_str(v)}" for u, v in g.edges()]
    graph_text = "\n".join(
        [f"{len(g)} {g.edge_count()}", *map(label_str, g.vertices), *edges]) + "\n"
    relations = sorted((label_str(x), label_str(y)) for x, y in p.less)
    poset_text = "\n".join(
        [*map(label_str, p.ground), *(f"{x} < {y}" for x, y in relations)]) + "\n"

    calls = []

    def counted(label):
        calls.append(label)
        return label_str(label)

    # write_poset_text formats its elements through vpgbend.graphs
    assert not hasattr(vpgbend.posets, "label_str")
    monkeypatch.setattr(vpgbend.graphs, "label_str", counted)
    assert write_graph_text(g) == graph_text
    assert calls == list(g.vertices)
    calls.clear()
    assert write_poset_text(p) == poset_text
    assert calls == list(p.ground)


def test_reading_a_long_chain_is_fast(tmp_path):
    # 4,950 pairs in the closure: a pairwise transitivity check takes seconds
    names = [f"e{i}" for i in range(100)]
    pfile = tmp_path / "chain.txt"
    pfile.write_text("".join(f"{x}\n" for x in names) + "".join(
        f"{x} < {y}\n" for x, y in zip(names, names[1:])))
    start = time.perf_counter()
    p = read_poset_text(pfile.read_text())
    assert time.perf_counter() - start < 1.0
    assert len(p.less) == 100 * 99 // 2 and p.is_less("e0", "e99")


@pytest.mark.parametrize(
    "ground", [[1, "1"], [(1, 2), "1,2"], ["a < b"], ["a<b"], ["a b"], ["", "c"], ["a\tb"]]
)
def test_poset_writer_rejects_elements_its_reader_cannot_return(ground):
    # an element line holding ' < ' reads as a relation; one text for two
    # elements, or one that is empty or holds whitespace, reads back wrong
    with pytest.raises(ValidationError, match="cannot be written to a poset file"):
        write_poset_text(make_poset(ground, []))
