import gc
from collections import Counter
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_reference as ref
from rep_strategies import finished, searches
from vpgbend import oracle, representation
from vpgbend.errors import ParameterError
from vpgbend.graphs import Graph
from vpgbend.oracle import (
    GridSearchBudget, _grid_paths, _LazySearch, _path_count, _search, _tables_fit, _TableSearch,
    search_representation,
)
from vpgbend.representation import is_proper, max_bends, verify_realizes


def complete(n):
    g = Graph(range(1, n + 1))
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            g.add_edge(u, v)
    return g


def test_budget_validation():
    with pytest.raises(ParameterError):
        GridSearchBudget(0, 5, 1, 10)
    with pytest.raises(ParameterError):
        GridSearchBudget(5, 5, -1, 10)
    with pytest.raises(ParameterError):
        GridSearchBudget(5, 5, 1, 0)
    with pytest.raises(ParameterError, match="more than 65536 lattice points"):
        GridSearchBudget(99999999999, 3, 0, 5)
    with pytest.raises(ParameterError):
        GridSearchBudget(257, 256, 0, 5)
    GridSearchBudget(256, 256, 0, 5)
    GridSearchBudget(oracle._GRID_LIMIT, 1, 0, 5)


def test_k3_zero_bend_witness():
    g = complete(3)
    rep = search_representation(g, GridSearchBudget(6, 6, 0, 100_000))
    assert rep is not None
    assert verify_realizes(rep, g).ok
    assert max_bends(rep) == 0


def test_edgeless_three_zero_bend():
    g = Graph([1, 2, 3])
    rep = search_representation(g, GridSearchBudget(6, 6, 0, 100_000))
    assert rep is not None
    assert verify_realizes(rep, g).ok


def test_single_edge_proper():
    g = Graph(["a", "b"], [("a", "b")])
    rep = search_representation(g, GridSearchBudget(4, 4, 1, 100_000), require_proper=True)
    assert rep is not None
    assert verify_realizes(rep, g).ok
    assert is_proper(rep).ok


def test_budget_sentinel():
    # a clique realizes quickly via overlapping segments, so only a budget
    # below the vertex count can force the sentinel
    g = complete(4)
    assert search_representation(g, GridSearchBudget(8, 8, 1, 3)) is None


def test_search_deterministic():
    g = complete(3)
    budget = GridSearchBudget(5, 5, 0, 100_000)
    a = search_representation(g, budget)
    b = search_representation(g, budget)
    assert a is not None and a.assignment == b.assignment


def test_path_with_bends_found():
    # a 4-cycle has no 0-bend representation on a tight budget but a 1-bend
    # witness exists; only the positive direction is asserted
    g = Graph([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (4, 1)])
    rep = search_representation(g, GridSearchBudget(4, 4, 1, 400_000))
    assert rep is not None
    assert verify_realizes(rep, g).ok


def test_k2_zero_bend_line_grid_proper_needs_a_crossing():
    # on a 3x1 grid two 0-bend paths can only overlap or touch end to end:
    # the overlap realizes K2, and neither is a proper representation
    g = Graph(["a", "b"], [("a", "b")])
    budget = GridSearchBudget(3, 1, 0, 100_000)
    rep = search_representation(g, budget)
    assert rep is not None
    assert [[(c.x, c.y) for c in rep.path(v).corners] for v in ("a", "b")] == [
        [(0, 0), (1, 0)],
        [(0, 0), (1, 0)],
    ]
    assert search_representation(g, budget, require_proper=True) is None


P4 = Graph([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4)])
_PAIRS_5 = list(combinations(range(1, 6), 2))
# the split graph K_5^2: a 5-clique and, for each pair of it, an independent
# vertex adjacent to the pair
K52 = Graph(list(range(1, 6)) + _PAIRS_5, _PAIRS_5 + [(s, v) for s in _PAIRS_5 for v in s])


def test_p4_proper_one_bend_found_on_5x5():
    # a proper 1-bend witness exists on 5x5; forward checking finds it within
    # the benchmark's 20k nodes, the lazy search at exactly its 59,736th
    g = P4
    rep = search_representation(g, GridSearchBudget(5, 5, 1, 20_000), require_proper=True)
    assert rep is not None
    assert verify_realizes(rep, g).ok
    assert is_proper(rep).ok
    assert max_bends(rep) <= 1
    found = _LazySearch(g, GridSearchBudget(5, 5, 1, 59_736), True)
    assert found.outcome()[0] == "found" and found.nodes == 59_736
    assert _LazySearch(g, GridSearchBudget(5, 5, 1, 59_735), True).outcome() == ("budget", None)


def test_verified_returns_none_when_the_checkers_reject_the_paths():
    # an edge's two paths placed apart do not realize it; crossing, they do
    search = _LazySearch(Graph(["a", "b"], [("a", "b")]), GridSearchBudget(4, 4, 0, 100), False)
    assert search.verified([((0, 0), (1, 0)), ((0, 2), (1, 2))]) is None
    rep = search.verified([((0, 1), (2, 1)), ((1, 0), (1, 2))])
    assert rep is not None and verify_realizes(rep, search.g).ok


# the table search's first witness for three of the oracle benchmark's cases,
# as the README gives it: node count and corners per vertex
@pytest.mark.parametrize("g,grid,bends,proper,nodes,corners", [
    (P4, 5, 1, True, 78, [(1, [(0, 2), (2, 2)]), (2, [(0, 0), (1, 0), (1, 3)]),
                          (3, [(0, 1), (3, 1), (3, 4)]), (4, [(2, 3), (4, 3)])]),
    (Graph(["a", "b"], [("a", "b")]), 4, 1, True, 4,
     [("a", [(0, 0), (1, 0), (1, 2)]), ("b", [(0, 1), (2, 1)])]),
    (Graph([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (4, 1)]), 3, 1, False, 10,
     [(1, [(0, 0), (1, 0)]), (2, [(0, 0), (0, 1)]), (3, [(0, 1), (1, 1)]), (4, [(1, 0), (1, 1)])]),
], ids=["P4-proper", "edge-proper", "C4"])
def test_table_search_first_witness(g, grid, bends, proper, nodes, corners):
    budget = GridSearchBudget(grid, grid, bends, 20_000)
    assert _tables_fit(budget)
    assert finished(_TableSearch(g, budget, proper)) == ("found", nodes, corners)


def test_k52_proper_one_bend_runs_out_at_the_benchmark_limit():
    # the oracle benchmark's slowest search: every node of it is counted, the
    # one past the limit included
    search = _LazySearch(K52, GridSearchBudget(12, 12, 1, 30_000), True)
    assert search.outcome() == ("budget", None)
    assert search.nodes == 30_001


@st.composite
def filters(draw):
    """(budget, forbid, needs): a grid of side at most 5 with at most 3 bends,
    and lattice masks of a few bits each to filter its candidates with."""
    w, h = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    bits = st.integers(0, (2 * w - 1) * (2 * h - 1) - 1)

    def mask(size):
        return sum(1 << b for b in draw(st.sets(bits, max_size=size)))

    needs = [mask(3) for _ in range(draw(st.integers(0, 2)))]
    return GridSearchBudget(w, h, draw(st.integers(0, 3)), 1), mask(2), needs


@settings(max_examples=200, deadline=None)
@given(filters())
def test_filtered_candidates_are_the_unfiltered_ones_that_pass(case):
    budget, forbid, needs = case
    everything = list(_grid_paths(budget))
    passing = [i for i, (_, mask, _) in enumerate(everything)
               if not mask & forbid and all(mask & need for need in needs)]
    taken = Counter()

    def take():
        taken["nodes"] += 1

    kept = [(taken["nodes"], path) for path in _grid_paths(budget, forbid, needs, take)]
    # each kept path comes right after its own `take`, in the unfiltered order,
    # with the corners, lattice mask and corner mask it has unfiltered
    assert kept == [(i + 1, everything[i]) for i in passing]
    assert taken["nodes"] == len(everything)
    row = 2 * budget.grid_width - 1
    for _, (corners, mask, ends) in kept:
        assert ends == ref.corner_bits(corners, row) and ends & mask == ends


@pytest.mark.parametrize("side", range(3, 7))
def test_k3_has_no_proper_zero_bend_representation(side):
    # two of three segments are parallel, so they overlap or miss; on side
    # 6 = 3·(0+2) the exhausted grid certifies it (any representation
    # rank-compresses onto it).  `_search` takes the table search on every
    # side, in the node counts the README gives.
    budget = GridSearchBudget(side, side, 0, 20_000)
    assert _tables_fit(budget)
    nodes = {3: 20, 4: 80, 5: 300, 6: 980}[side]
    assert finished(_TableSearch(complete(3), budget, True)) == ("exhausted", nodes, None)


def test_outcomes():
    k3 = complete(3)
    assert _search(k3, GridSearchBudget(6, 6, 0, 20_000))[0] == "found"
    assert _search(k3, GridSearchBudget(6, 6, 0, 1)) == ("budget", None)
    # both paths know exhaustion: a 1x2 grid holds one path
    two = Graph([1, 2])
    assert _search(two, GridSearchBudget(1, 2, 0, 100)) == ("exhausted", None)
    assert _LazySearch(two, GridSearchBudget(1, 2, 0, 100), False).outcome() == ("exhausted", None)


def test_tables_fit_matches_the_uncapped_bound():
    # the capped exponent picks the same search as the bound it caps
    for w in range(1, 13):
        for h in range(1, 13):
            for bends in range(41):
                bound = 2 * w * h * max(w - 1, h - 1) ** (bends + 1) * w * h
                assert _tables_fit(GridSearchBudget(w, h, bends, 1)) == (bound <= oracle._TABLE_LIMIT)


def test_searches_leave_no_cyclic_garbage():
    # P4 on 5x5 takes the table path, on 12x12 the lazy one; both must be
    # freed by reference counting alone
    assert _tables_fit(GridSearchBudget(5, 5, 1, 1))
    assert not _tables_fit(GridSearchBudget(12, 12, 1, 1))
    gc.collect()
    gc.disable()
    try:
        for side, limit in ((5, 20_000), (12, 2_000)):
            search_representation(P4, GridSearchBudget(side, side, 1, limit), True)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _checked_search(g, budget, proper, search=search_representation):
    """Run the search with its final checkers spied on; assert that they run
    once on the witness it returns, never on anything else, and accept it."""
    calls, reports = Counter(), []

    def spy(check):
        def spied(*args):
            report = check(*args)
            calls[check.__name__] += 1
            reports.append(report)
            return report
        return spied

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "verify_realizes", spy(verify_realizes))
        mp.setattr(oracle, "is_proper", spy(is_proper))
        rep = search(g, budget, proper)
    assert all(report.ok for report in reports)
    assert calls["verify_realizes"] == (rep is not None)
    assert calls["is_proper"] == (rep is not None and proper)


@settings(max_examples=200, deadline=None)
@given(searches())
def test_final_check_never_rejects(case):
    _checked_search(*case)
    _checked_search(*case, search=lambda *args: _LazySearch(*args).outcome()[1])


@pytest.mark.parametrize("g,grid,bends,proper", [
    (complete(3), 12, 0, False),
    (Graph(["a", "b"], [("a", "b")]), 4, 1, True),
    (Graph([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (4, 1)]), 3, 1, False),
    (Graph([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4)]), 5, 1, True),
    (K52, 12, 1, True),
], ids=["K3", "edge", "C4", "P4-proper", "K5^2-proper"])
def test_final_check_never_rejects_on_benchmark_graphs(g, grid, bends, proper):
    _checked_search(g, GridSearchBudget(grid, grid, bends, 20_000), proper)


def _graphs_with_an_odd_cycle(max_n):
    """One graph per isomorphism class on 3 to max_n vertices, for every class
    that is not bipartite."""
    for n in range(3, max_n + 1):
        pairs = list(combinations(range(n), 2))
        seen = set()
        for bits in range(1 << len(pairs)):
            edges = [pair for i, pair in enumerate(pairs) if bits >> i & 1]
            key = min(tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in edges))
                      for p in permutations(range(n)))
            if key in seen:
                continue
            seen.add(key)
            # bipartite iff some 2-colouring, bit v the side of v, splits every edge
            if not any(all((c >> u ^ c >> v) & 1 for u, v in edges) for c in range(1 << n)):
                yield Graph(range(n), edges)


def test_no_graph_with_an_odd_cycle_has_a_proper_zero_bend_witness():
    # proper 0-bend paths meet only where a horizontal segment crosses a
    # vertical one, so only a bipartite graph has such a representation.  An
    # odd cycle needs two parallel segments that meet, end to end, and the
    # proper tables rule that out (a candidate through m's corners, or with a
    # corner on m), so the search never completes an assignment and the
    # final checkers never run; with both corner checks gone they would run
    graphs = list(_graphs_with_an_odd_cycle(5))
    assert len(graphs) == 26  # 1 + 4 + 21 non-bipartite classes
    outcomes = Counter()

    def search(*args):
        outcome, rep = _search(*args)
        outcomes[outcome] += 1
        return rep

    for g in graphs:
        for w in range(1, 6):
            for h in range(1, 6):
                _checked_search(g, GridSearchBudget(w, h, 0, 20_000), True, search)
    assert set(outcomes) <= {"exhausted", "budget"}


def test_proper_witness_is_checked_on_one_sweep(monkeypatch):
    sweeps = []
    real = representation._crossing_contacts

    def counted(*args):
        sweeps.append(args)
        return real(*args)

    monkeypatch.setattr(representation, "_crossing_contacts", counted)
    search = _LazySearch(Graph(["a", "b"], [("a", "b")]), GridSearchBudget(4, 4, 1, 100), True)
    assert search.order == ["a", "b"]
    rep = search.verified([((0, 0), (1, 0), (1, 2)), ((0, 1), (2, 1))])
    assert rep is not None and len(sweeps) == 1


# --- blocked lazy-search depths, counted in one step ---

EDGE = Graph(["a", "b"], [("a", "b")])
_OWN = object()


def lazy(g, budget, path_count=_OWN):
    """A proper lazy search; with `path_count`, one that starts with that
    count kept instead of its own.  None makes it learn the count at its
    first blocked depth, as a search with 3 or more bends does."""
    search = _LazySearch(g, budget, True)
    if path_count is not _OWN:
        search.path_count = path_count
    return search


def recorded_count(w, h, bends, limit):
    """The path count learned by a proper search for an edge on a w×h grid:
    its first candidate for `a` has every lattice point a corner, so the
    depth of `b` under it is blocked."""
    search = lazy(EDGE, GridSearchBudget(w, h, bends, limit), None)
    search.outcome()
    return search.path_count


def test_path_count_is_the_enumerators():
    for w in range(1, 9):
        for h in range(1, 9):
            for bends in range(3):
                budget = GridSearchBudget(w, h, bends, 1)
                assert _path_count(budget) == len(list(_grid_paths(budget))), (w, h, bends)
            for bends in (3, 4, 40):
                assert _path_count(GridSearchBudget(w, h, bends, 1)) is None


def test_recorded_count_is_the_enumerators():
    for w in range(1, 6):
        for h in range(1, 6):
            for bends in range(4):
                count = len(list(_grid_paths(GridSearchBudget(w, h, bends, 1))))
                # one node for the first candidate, then the blocked depth
                expected = count if count else None
                assert recorded_count(w, h, bends, count + 1) == expected, (w, h, bends)


@pytest.mark.parametrize("bends,count", [
    # h·C(w,2) + w·C(h,2) segments, w·h·(w−1)·(h−1) one-bend paths and
    # w·h·(w−1)·(h−1)·(w+h−2)/2 two-bend paths
    (0, 12 * 66 + 12 * 66),
    (1, 12 * 66 + 12 * 66 + 12 * 12 * 11 * 11),
    (2, 12 * 66 + 12 * 66 + 12 * 12 * 11 * 11 + 12 * 12 * 11 * 11 * 22 // 2),
])
def test_recorded_count_on_12x12_is_the_closed_form(bends, count):
    assert count == (1_584, 19_008, 210_672)[bends]
    assert _path_count(GridSearchBudget(12, 12, bends, 1)) == count
    assert recorded_count(12, 12, bends, count + 1) == count


def test_blocked_depth_past_the_budget_records_nothing():
    # at 3 bends no closed form is known, and the first blocked depth runs
    # past the limit before its enumeration ends
    search = lazy(K52, GridSearchBudget(12, 12, 3, 10_000))
    assert search.path_count is None
    assert search.outcome() == ("budget", None) and search.nodes == 10_001
    assert search.path_count is None


# nodes: 1 for the unit segment, 19,009 after the blocked depth under it,
# 19,010 for the unit L and 38,018 after the blocked depth under that
@pytest.mark.parametrize("limit", [30_000, 19_009, 19_010, 38_017, 38_018, 200_000])
def test_k52_cold_and_warm_runs_agree(limit):
    # learned: the count enumerated at the first blocked depth; closed: the
    # closed form the search starts with
    budget = GridSearchBudget(12, 12, 1, limit)
    learned = finished(lazy(K52, budget, None))
    closed = finished(lazy(K52, budget))
    assert learned == closed and learned[0] == "budget" and learned[1] == limit + 1


@pytest.mark.parametrize("learn", [False, True])
def test_a_limit_met_by_a_one_step_count_is_not_run_out(learn):
    # on 2×2 each of the 8 paths has every lattice point a corner, so under
    # each candidate for `a` the depth of `b` is blocked, the last one last:
    # 8 + 8·8 nodes exhaust the grid
    path_count = None if learn else _OWN
    search = lazy(EDGE, GridSearchBudget(2, 2, 1, 72), path_count)
    assert finished(search) == ("exhausted", 72, None)
    assert search.path_count == 8
    short = lazy(EDGE, GridSearchBudget(2, 2, 1, 71), path_count)
    assert finished(short) == ("budget", 72, None)


# the grid for the first vertex and, when the search must learn the count,
# the blocked depth under its first candidate, which keeps the count that
# the next blocked depth takes
@pytest.mark.parametrize("path_count,generators", [(_OWN, 1), (None, 2)], ids=["closed", "learned"])
def test_k52_search_enumerates_one_blocked_depth_at_most(monkeypatch, path_count, generators):
    made = []
    real = oracle._grid_paths

    def counted(*args):
        made.append(args)
        return real(*args)

    monkeypatch.setattr(oracle, "_grid_paths", counted)
    search = lazy(K52, GridSearchBudget(12, 12, 1, 30_000), path_count)
    assert search.outcome() == ("budget", None) and search.nodes == 30_001
    assert len(made) == generators
