from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

import constructor_reference as reference
import vpgbend.constructors
from conftest import subset_split_graph
from direction_vectors import DOWN, RIGHT, direction_vector
from rep_strategies import rank_table
from vpgbend.errors import ParameterError
from vpgbend.geometry import bend_count, path_intersections
from vpgbend.graphs import Graph, SplitPartition, all_qedges, build_hnk_member, build_split_knk
from vpgbend.constructors import (
    SquareRegionLayout,
    _exposures,
    construct_gtm_stairs,
    construct_k2n_proper,
    construct_k3n_proper,
    construct_split_upper,
    hamiltonian_decomposition,
    sequences_from_cycles,
)
from vpgbend.errors import ConstructionError
from vpgbend.representation import is_proper, max_bends, verify_realizes, write_representation_text


# --- split upper bound -------------------------------------------------------


def test_split_upper_k23_bends():
    g, part = build_split_knk(3, 2)
    rep = construct_split_upper(g, part)
    assert verify_realizes(rep, g).ok
    for v in part.clique:
        assert bend_count(rep.path(v)) == 2 * (2 - 1) + 1 == 3
    for u in part.independent:
        assert bend_count(rep.path(u)) == 0


def test_split_upper_degenerate_clique_vertex():
    g = Graph([1, 2, "x"], [(1, 2), (1, "x")])
    part = SplitPartition(clique=(1, 2), independent=("x",))
    rep = construct_split_upper(g, part)
    assert verify_realizes(rep, g).ok
    assert bend_count(rep.path(2)) == 0


def test_split_upper_k42_max_bends():
    g, part = build_split_knk(4, 2)
    rep = construct_split_upper(g, part)
    assert verify_realizes(rep, g).ok
    assert max_bends(rep) == 2 * comb(3, 1) - 1 == 5


@pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (5, 3), (6, 3)])
def test_split_upper_exact_bend_formula(n, k):
    g, part = build_split_knk(n, k)
    rep = construct_split_upper(g, part)
    assert verify_realizes(rep, g).ok
    for v in part.clique:
        neighborhoods = sum(1 for u in part.independent if g.has_edge(u, v))
        assert bend_count(rep.path(v)) == 2 * (neighborhoods - 1) + 1
    assert all(bend_count(rep.path(u)) == 0 for u in part.independent)


def test_split_upper_rejects_bad_partition():
    g = Graph([1, 2], [])
    part = SplitPartition(clique=(1, 2), independent=())
    with pytest.raises(Exception):
        construct_split_upper(g, part)


# --- Hamiltonian decomposition -----------------------------------------------


def test_decomposition_k5_forced():
    d = hamiltonian_decomposition(1)
    assert d.vertex_count == 5 and len(d.cycles) == 2
    edges = set()
    for cyc in d.cycles:
        for i in range(5):
            edges.add(frozenset((cyc[i], cyc[(i + 1) % 5])))
    assert len(edges) == 10


@pytest.mark.parametrize("s", range(1, 7))
def test_decomposition_validity(s):
    d = hamiltonian_decomposition(s)
    n = d.vertex_count
    assert n == 4 * s + 1 and len(d.cycles) == 2 * s
    seen = set()
    for cyc in d.cycles:
        assert sorted(cyc) == list(range(1, n + 1))
        cyc_edges = {frozenset((cyc[i], cyc[(i + 1) % n])) for i in range(n)}
        assert len(cyc_edges) == n
        assert not (seen & cyc_edges)
        seen |= cyc_edges
    assert seen == {frozenset(e) for e in combinations(range(1, n + 1), 2)}


def test_decomposition_degrees():
    d = hamiltonian_decomposition(2)
    n = d.vertex_count
    per_cycle = {v: 0 for v in range(1, n + 1)}
    total = {v: 0 for v in range(1, n + 1)}
    for cyc in d.cycles:
        deg = {v: 0 for v in range(1, n + 1)}
        for i in range(n):
            deg[cyc[i]] += 1
            deg[cyc[(i + 1) % n]] += 1
        assert set(deg.values()) == {2}
        for v, dv in deg.items():
            total[v] += dv
    assert set(total.values()) == {4 * 2}


def test_decomposition_rejects_s_zero():
    with pytest.raises(ParameterError):
        hamiltonian_decomposition(0)


# --- sequences -----------------------------------------------------------------


def test_sequences_match_worked_example():
    # informative golden: the 13-vertex decomposition reproduces the published
    # sequence list for ten real vertices
    d = hamiltonian_decomposition(3)
    seqs = sequences_from_cycles(d, 10)
    assert seqs[0] == (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 1)
    assert seqs[1] == (2, 4, 6, 8, 10, 1, 3, 5, 7, 9, 2)
    assert seqs[2] == (3, 6, 9, 2, 5, 8, 1, 4, 7, 10, 3)
    assert seqs[3] == (4, 8, 3, 7, 2, 6, 10, 1, 5, 9, 4)
    assert seqs[4] == (5, 10, 2, 7, 4, 9, 1, 6, 3, 8, 5)
    assert seqs[5] == (6, 5, 4, 10, 3, 9, 2, 8, 1, 7, 6)


def test_sequences_pairwise_consecutive():
    d = hamiltonian_decomposition(3)
    seqs = sequences_from_cycles(d, 10)
    covered = set()
    for seq in seqs:
        assert seq[0] == seq[-1]
        assert sorted(set(seq)) == list(range(1, 11))
        for a, b in zip(seq, seq[1:]):
            covered.add(frozenset((a, b)))
    assert covered >= {frozenset(p) for p in combinations(range(1, 11), 2)}


def test_sequences_reject_oversized_n():
    d = hamiltonian_decomposition(1)
    with pytest.raises(ParameterError):
        sequences_from_cycles(d, 6)


def test_sequences_small_n_fallback_start():
    d = hamiltonian_decomposition(2)  # 4 cycles on 9 vertices
    seqs = sequences_from_cycles(d, 3)
    for seq in seqs:
        assert seq[0] == seq[-1]
        assert set(seq) == {1, 2, 3}


# --- staircase construction ------------------------------------------------------


def test_stairs_clique_direction_vectors():
    rep = construct_gtm_stairs(5, 3)
    for i in range(1, 6):
        assert direction_vector(rep.path(i)) == (RIGHT, DOWN, RIGHT, DOWN)
        assert bend_count(rep.path(i)) == 3


def test_stairs_q_paths_shape():
    rep = construct_gtm_stairs(5, 3)
    for s in combinations(range(1, 6), 3):
        dv = direction_vector(rep.path(s))
        assert dv == (DOWN, RIGHT, DOWN, RIGHT)
        assert bend_count(rep.path(s)) == 2 * 3 - 3


def test_stairs_realize_and_proper(gtm_reps):
    for (n, k), rep in gtm_reps.items():
        g = build_hnk_member(n, k, all_qedges(n, k))
        assert verify_realizes(rep, g).ok
        assert is_proper(rep).ok
        for s in combinations(range(1, n + 1), k):
            assert bend_count(rep.path(s)) == 2 * k - 3


@pytest.mark.parametrize("n,k", [(4, 3), (7, 3), (5, 4), (8, 4)])
def test_stairs_extended_parameter_range(n, k):
    rep = construct_gtm_stairs(n, k)
    g = build_hnk_member(n, k, all_qedges(n, k))
    assert verify_realizes(rep, g).ok
    assert is_proper(rep).ok
    assert all(
        bend_count(rep.path(s)) == 2 * k - 3 for s in combinations(range(1, n + 1), k)
    )


def test_stairs_reject_small_k():
    # the subset-subset crossing uses the third stair segment, so k >= 3
    with pytest.raises(ParameterError):
        construct_gtm_stairs(5, 2)
    with pytest.raises(ParameterError):
        construct_gtm_stairs(3, 1)
    with pytest.raises(ParameterError):
        construct_gtm_stairs(3, 3)


def test_stairs_bend_arithmetic():
    # 2k-3 = 4t+29 whenever k = 2t+16
    for t in range(6):
        k = 2 * t + 16
        assert 2 * k - 3 == 4 * t + 29


def test_stairs_deterministic():
    a = construct_gtm_stairs(5, 3)
    b = construct_gtm_stairs(5, 3)
    assert a.assignment == b.assignment


def test_exposure_intervals_on_stairs():
    rep = construct_gtm_stairs(5, 3)
    table = rank_table([rep.path(i) for i in range(1, 6)])
    den, xs, ys, hs, vs = table.den, table.xs, table.ys, table.hs, table.vs
    # path index 1 is clique path 2, whose first horizontal and first
    # vertical are its segments 0 and 1
    first, second = rep.path(2).segments()[:2]
    lo, cap = (Fraction(xs[r], den) for r in _exposures(hs, vs)[1][0])
    assert lo == first.a.x and lo < cap <= first.b.x
    lo, cap = (Fraction(ys[r], den) for r in _exposures(vs, hs)[1][0])
    assert lo == second.a.y and lo < cap <= second.b.y


# --- 2-subset proper construction -------------------------------------------------


def test_k2n_proper_five(gtm_reps):
    rep = construct_k2n_proper(5)
    g, _ = build_split_knk(5, 2)
    assert len(rep) == 15
    assert verify_realizes(rep, g).ok
    assert is_proper(rep).ok
    assert max_bends(rep) == 1


def test_k2n_smallest_case():
    # two L-paths plus one hook; checked directly since k = n here
    rep = construct_k2n_proper(2)
    g = subset_split_graph(2, 2)
    assert len(rep) == 3
    assert verify_realizes(rep, g).ok
    assert is_proper(rep).ok
    assert max_bends(rep) <= 1
    hook = rep.path((1, 2))
    assert path_intersections(hook, rep.path(1))
    assert path_intersections(hook, rep.path(2))


def test_k2n_hooks_touch_exactly_their_pair():
    rep = construct_k2n_proper(4)
    g, _ = build_split_knk(4, 2)
    assert verify_realizes(rep, g).ok


def test_k2n_rejects_n1():
    with pytest.raises(ParameterError):
        construct_k2n_proper(1)


# --- 3-subset proper construction --------------------------------------------------


def test_k3n_matches_worked_example(k3n_reps):
    rep = k3n_reps[10]
    assert max_bends(rep) == 24
    # the op-1 labels bend exactly 8s times, s = 3
    assert bend_count(rep.path(1)) == 24
    assert bend_count(rep.path(2)) == 24
    assert bend_count(rep.path(3)) == 24


def test_k3n_smallest_case(k3n_reps):
    rep = k3n_reps[3]
    g = subset_split_graph(3, 3)
    assert verify_realizes(rep, g).ok
    assert is_proper(rep).ok
    assert max_bends(rep) <= 10


def test_k3n_independent_paths_single_bend(k3n_reps):
    rep = k3n_reps[5]
    for s in combinations(range(1, 6), 3):
        assert bend_count(rep.path(s)) == 1


def test_k3n_rejects_small_n():
    with pytest.raises(ParameterError):
        construct_k3n_proper(2)


def test_k3n_deterministic():
    a = construct_k3n_proper(4)
    b = construct_k3n_proper(4)
    assert a.assignment == b.assignment


def test_square_region_layout_invariants():
    from fractions import Fraction

    sq = SquareRegionLayout(
        index=1,
        origin=(Fraction(0), Fraction(0)),
        vertical_labels=(1, 2, 3, 1),
        horizontal_labels=(2, 3, 1, 2),
    )
    assert sq.column(2) == 2 and sq.column(1) == 1
    assert sq.row(1) == 3
    with pytest.raises(ConstructionError):
        SquareRegionLayout(
            index=1,
            origin=(Fraction(0), Fraction(0)),
            vertical_labels=(1, 2, 3),
            horizontal_labels=(2, 3, 2),
        )
    with pytest.raises(ConstructionError, match="topmost/bottommost horizontal labels differ"):
        SquareRegionLayout(
            index=1,
            origin=(Fraction(0), Fraction(0)),
            vertical_labels=(1, 2, 1),
            horizontal_labels=(2, 3, 1),
        )


def test_split_upper_deterministic():
    g, part = build_split_knk(4, 2)
    assert construct_split_upper(g, part).assignment == construct_split_upper(g, part).assignment


# --- int-scaled constructors against the Fraction reference --------------------

FRACTION_REFERENCE_CASES = (
    [("construct_k3n_proper", (n,)) for n in range(3, 15)]
    + [("construct_gtm_stairs", (n, k)) for n in range(4, 10) for k in range(3, n)]
    + [("construct_k2n_proper", (n,)) for n in range(3, 11)]
    + [("construct_split_upper", nk) for nk in ((4, 2), (5, 3), (6, 3))]
)


@pytest.mark.parametrize(
    "name,params", FRACTION_REFERENCE_CASES, ids=[f"{n}{p}" for n, p in FRACTION_REFERENCE_CASES]
)
def test_constructors_write_the_bytes_of_the_fraction_reference(name, params):
    # construct_split_upper takes the split graph build_split_knk(n, k)
    args = build_split_knk(*params) if name == "construct_split_upper" else params
    text = write_representation_text(getattr(vpgbend.constructors, name)(*args))
    assert text == write_representation_text(getattr(reference, name)(*args))


@pytest.mark.parametrize(
    "shrink", [lambda lo, cap: (lo, lo), lambda lo, cap: (cap, cap)], ids=["lo", "cap"]
)
def test_staircase_exposure_errors_match_the_fraction_reference(monkeypatch, shrink):
    # an empty exposed interval fails the first check on each side, whose
    # message is then formatted from ints over two denominators
    def shrunk(hs, vs):
        return {li: [shrink(*iv) for iv in ivs] for li, ivs in _exposures(hs, vs).items()}

    messages = []
    for module in (vpgbend.constructors, reference):
        monkeypatch.setattr(module, "_exposures", shrunk)
        with pytest.raises(ConstructionError) as err:
            module.construct_gtm_stairs(6, 4)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert "outside computed exposed interval" in messages[0]


@pytest.mark.parametrize("n", [5, 9])
def test_k3n_pair_adjacent_in_no_sequence_matches_the_fraction_reference(monkeypatch, n):
    # with the last sequence a copy of the first, the pairs only the last
    # one made consecutive are adjacent in no sequence
    def repeat_first(d, n):
        seqs = sequences_from_cycles(d, n)
        return seqs[:-1] + seqs[:1]

    messages = []
    for module in (vpgbend.constructors, reference):
        monkeypatch.setattr(module, "sequences_from_cycles", repeat_first)
        with pytest.raises(ConstructionError) as err:
            module.construct_k3n_proper(n)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert messages[0].endswith("adjacent in no sequence")
