"""The lattice-mask oracle against the Fraction-geometry reference in
`tests/oracle_reference.py`: the same candidates in the same order, and the
same first witness from the lazy search, which every grid here would
otherwise send to the table search; the table search against the lazy
one, which never reach opposite decisions; and the lazy search against its
copy in the reference module from before the enumerator applied the keep test
and the node count, with which it shares outcome, node count and witness; and
the table search's bulk bit transpose against the reference's loop over every
set bit.

Without `require_proper` both searches prune only on adjacency, so they take
the same node count up to the first witness.  With it the reference prunes
only overlaps and rejects the other improper complete assignments at the end,
while the lattice-mask search prunes every placement that cannot stay proper.
It reaches the reference's first witness in no more nodes, and within a
budget it may find a witness where the reference runs out.
"""

from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle_reference as ref
from rep_strategies import finished, searches
from vpgbend.graphs import Graph
from vpgbend.oracle import GridSearchBudget, _columns, _grid_paths, _LazySearch, _TableSearch
from vpgbend.representation import is_proper, verify_realizes


def search_representation(g, budget, require_proper=False):
    """The lazy search, whose candidate order the reference pins."""
    return _LazySearch(g, budget, require_proper).outcome()[1]


def lattice_mask(corners, w):
    """Bits of every corner and unit edge a path covers, one unit step at a
    time, on the doubled lattice of a width-`w` grid."""
    row = 2 * w - 1
    mask = 0
    for (ax, ay), (bx, by) in zip(corners, corners[1:]):
        dx, dy = (bx > ax) - (bx < ax), (by > ay) - (by < ay)
        x, y = 2 * ax, 2 * ay
        while (x, y) != (2 * bx, 2 * by):
            mask |= 1 << (y * row + x)
            x, y = x + dx, y + dy
        mask |= 1 << (y * row + x)
    return mask


def same_result(a, b):
    if a is None or b is None:
        return a is b
    return list(a.assignment.items()) == list(b.assignment.items())


def test_candidates_match_reference_in_order():
    for w in range(1, 5):
        for h in range(1, 5):
            for bends in range(4):
                budget = GridSearchBudget(w, h, bends, 1)
                new = list(_grid_paths(budget))
                old = [tuple((int(c.x), int(c.y)) for c in p.corners) for p in ref.grid_paths(budget)]
                assert [corners for corners, _, _ in new] == old, (w, h, bends)
                assert all(mask == lattice_mask(corners, w) for corners, mask, _ in new), (w, h, bends)


def test_carried_corner_masks_match_the_reference():
    for w in range(1, 6):
        for h in range(1, 6):
            for bends in range(4):
                for corners, _, ends in _grid_paths(GridSearchBudget(w, h, bends, 1)):
                    assert ends == ref.corner_bits(corners, 2 * w - 1), (w, h, corners)


@settings(max_examples=200, deadline=None)
@given(searches())
# proper, 3 vertices, 1 edge, 3x4 grid, 0 bends: the reference runs out at
# 256 nodes (it needs more than 1,000), the lattice-mask search does not
@example((Graph(range(3), [(0, 1)]), GridSearchBudget(3, 4, 0, 256), True))
def test_search_matches_reference(case):
    g, budget, proper = case
    found = search_representation(g, budget, proper)
    expected = ref.search_representation(g, budget, proper)
    if proper and expected is None:
        assert found is None or (verify_realizes(found, g).ok and is_proper(found).ok)
    else:
        assert same_result(found, expected)


@settings(max_examples=300, deadline=None)
@given(searches())
def test_table_and_lazy_searches_never_disagree(case):
    # each may run out where the other decides, but found on one side and
    # exhausted on the other would make one of them wrong
    outcomes = {search(*case).outcome()[0] for search in (_TableSearch, _LazySearch)}
    assert outcomes != {"found", "exhausted"}


P4 = Graph([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4)])
C4 = Graph([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (4, 1)])


@pytest.mark.parametrize("g,grid,bends,proper", [
    (Graph(["a", "b"], [("a", "b")]), 4, 1, True),
    (P4, 4, 1, False),
    (C4, 3, 1, False),
    # three paths: the properness prune takes fewer nodes than the reference
    (Graph([1, 2, 3], [(1, 2), (2, 3)]), 4, 0, True),
], ids=["edge", "P4", "C4", "P3-proper"])
def test_first_witness_takes_the_same_node_count(g, grid, bends, proper):
    def budget(limit):
        return GridSearchBudget(grid, grid, bends, limit)

    # the smallest node limit that finds a witness, found on the fast search;
    # the reference must find nothing one below it, and the same witness
    # there (without require_proper) or within the upper limit (with it)
    lo, hi = 1, 10_000
    assert search_representation(g, budget(hi), proper) is not None
    while lo < hi:
        mid = (lo + hi) // 2
        if search_representation(g, budget(mid), proper) is None:
            lo = mid + 1
        else:
            hi = mid
    assert lo > 1
    expected = ref.search_representation(g, budget(10_000 if proper else lo), proper)
    assert expected is not None
    assert same_result(search_representation(g, budget(lo), proper), expected)
    assert ref.search_representation(g, budget(lo - 1), proper) is None


# --- the lazy search against its copy from before the enumerator filtered ---

_PAIRS_5 = list(combinations(range(1, 6), 2))
K52 = Graph(list(range(1, 6)) + _PAIRS_5, _PAIRS_5 + [(s, v) for s in _PAIRS_5 for v in s])


@settings(max_examples=200, deadline=None)
@given(st.one_of(searches(), searches(max_side=7)))
def test_lazy_search_matches_its_unfiltered_copy(case):
    assert finished(_LazySearch(*case)) == finished(ref.LazySearch(*case))


@settings(max_examples=200, deadline=None)
@given(st.one_of(searches(), searches(max_side=7), searches(min_bends=3, max_bends=3)))
def test_cold_and_warm_runs_match_the_unfiltered_copy(case):
    # cold: as constructed, so at most 2 bends start with the closed-form
    # count, and 3 bends leave the first blocked depth to enumerate and keep
    # its count if it ends within the budget; warm: the count known from the
    # start, so every blocked depth takes it in one step
    count = len(list(_grid_paths(case[1])))
    expected = finished(ref.LazySearch(*case))
    cold = _LazySearch(*case)
    assert finished(cold) == expected
    assert cold.path_count in ((count,) if case[1].max_bends <= 2 else (None, count))
    warm = _LazySearch(*case)
    warm.path_count = count
    assert finished(warm) == expected


# the oracle benchmark's five searches at its node limits, on the lazy search
@pytest.mark.parametrize("g,grid,bends,limit,proper", [
    (Graph([1, 2, 3], [(1, 2), (2, 3), (1, 3)]), 12, 0, 200_000, False),
    (Graph(["a", "b"], [("a", "b")]), 4, 1, 100_000, True),
    (C4, 3, 1, 400_000, False),
    (P4, 5, 1, 20_000, True),
    (K52, 12, 1, 30_000, True),
], ids=["K3", "edge", "C4", "P4-proper", "K5^2-proper"])
def test_lazy_search_matches_its_unfiltered_copy_on_benchmark_cases(g, grid, bends, limit, proper):
    budget = GridSearchBudget(grid, grid, bends, limit)
    assert finished(_LazySearch(g, budget, proper)) == finished(ref.LazySearch(g, budget, proper))


# --- the table search's bit transpose against the loop over every set bit ---

@st.composite
def bit_rows(draw):
    """(masks, width): up to 80 masks below 2**width, for widths 1 to 300,
    each zero, all ones, with bit width − 1 set, or any."""
    width = draw(st.integers(1, 300))
    top = 1 << width - 1
    mask = st.one_of(
        st.just(0),
        st.just(2 * top - 1),
        st.integers(0, top - 1).map(lambda m: m | top),
        st.integers(0, 2 * top - 1),
    )
    return draw(st.lists(mask, max_size=80)), width


@settings(max_examples=300, deadline=None)
@given(bit_rows())
@example(([], 1))  # a 1x1 grid has no candidates
@example(([0] * 70, 3))
@example(([1 << 299], 300))
def test_bulk_transpose_matches_the_bit_loop(case):
    masks, width = case
    assert _columns(masks, width) == ref.columns(masks, width)


@pytest.mark.parametrize("proper", [False, True], ids=["plain", "proper"])
@pytest.mark.parametrize("bends", range(3))
def test_tables_match_the_bit_loop_on_small_grids(bends, proper):
    # a proper search builds both tables in one transpose, a plain one only
    # the path table
    g = Graph([1, 2], [(1, 2)])
    for w in range(1, 5):
        for h in range(1, 5):
            search = _TableSearch(g, GridSearchBudget(w, h, bends, 1), proper)
            size = (2 * w - 1) * (2 * h - 1)
            ends = [ref.corner_bits(corners, 2 * w - 1) for corners, _, _ in search.paths]
            assert search.through == ref.columns([mask for _, mask, _ in search.paths], size)
            assert [carried for _, _, carried in search.paths] == ends
            if proper:
                assert search.cornered == ref.columns(ends, size)
            else:
                assert not hasattr(search, "cornered")
