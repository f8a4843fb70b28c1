from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings

from rep_strategies import searches
from vpgbend import oracle
from vpgbend.errors import ParameterError
from vpgbend.graphs import Graph
from vpgbend.oracle import GridSearchBudget, search_representation
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


def test_p4_proper_one_bend_found_on_5x5():
    # a proper 1-bend witness exists on 5x5; with only overlaps pruned during
    # the search, 200k nodes were spent on improper complete assignments
    g = Graph([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4)])
    rep = search_representation(g, GridSearchBudget(5, 5, 1, 200_000), require_proper=True)
    assert rep is not None
    assert verify_realizes(rep, g).ok
    assert is_proper(rep).ok
    assert max_bends(rep) <= 1


def _checked_search(g, budget, proper):
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
        rep = search_representation(g, budget, proper)
    assert all(report.ok for report in reports)
    assert calls["verify_realizes"] == (rep is not None)
    assert calls["is_proper"] == (rep is not None and proper)


@settings(max_examples=200, deadline=None)
@given(searches())
def test_final_check_never_rejects(case):
    _checked_search(*case)


_PAIRS_5 = list(combinations(range(1, 6), 2))


@pytest.mark.parametrize("g,grid,bends,proper", [
    (complete(3), 12, 0, False),
    (Graph(["a", "b"], [("a", "b")]), 4, 1, True),
    (Graph([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (4, 1)]), 3, 1, False),
    (Graph([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4)]), 5, 1, True),
    (Graph(list(range(1, 6)) + _PAIRS_5, _PAIRS_5 + [(s, v) for s in _PAIRS_5 for v in s]),
     12, 1, True),
], ids=["K3", "edge", "C4", "P4-proper", "K5^2-proper"])
def test_final_check_never_rejects_on_benchmark_graphs(g, grid, bends, proper):
    _checked_search(g, GridSearchBudget(grid, grid, bends, 20_000), proper)
