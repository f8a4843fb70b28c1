"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import time
from itertools import combinations, product
from math import comb, factorial

import pytest

from conftest import subset_split_graph
from vpgbend.constructors import (
    construct_gtm_stairs,
    construct_k2n_proper,
    construct_k3n_proper,
    construct_split_upper,
    hamiltonian_decomposition,
    sequences_from_cycles,
)
from vpgbend.geometry import bend_count
from vpgbend.graphs import Graph, SplitPartition, all_qedges, build_hnk_member, build_split_knk
from vpgbend.lowerbound import (
    bend_lb_certificate,
    build_auxiliary_fh_fv,
    certificate_candidates,
    count_good_sets_vs_bound,
    classify_sh_sv,
    is_planar,
    kset_distance,
    validate_counting,
)
from vpgbend.oracle import GridSearchBudget, search_representation
from vpgbend.posets import brute_force_dimension, build_p_rsn
from vpgbend.representation import (
    is_proper,
    max_bends,
    trim_independent_path,
    verify_realizes,
)

SPLIT_FIXTURES = [(4, 2), (5, 2), (5, 3), (6, 3)]


def _report(name: str, ok: bool) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


@pytest.fixture(scope="module")
def split_upper_reps():
    out = {}
    for n, k in SPLIT_FIXTURES:
        g, part = build_split_knk(n, k)
        out[(n, k)] = (g, part, construct_split_upper(g, part))
    return out


# criterion 1 -----------------------------------------------------------------


def test_criterion_1_split_upper_bound(split_upper_reps):
    ok = True
    extra = []
    # two additional split graphs: a degenerate clique vertex, and a star
    g1 = Graph([1, 2, "x", "y"], [(1, 2), (1, "x"), (1, "y")])
    extra.append((g1, SplitPartition(clique=(1, 2), independent=("x", "y"))))
    g2 = Graph([1, "a", "b", "c"], [(1, "a"), (1, "b"), (1, "c")])
    extra.append((g2, SplitPartition(clique=(1,), independent=("a", "b", "c"))))

    for n, k in SPLIT_FIXTURES:
        g, part, rep = split_upper_reps[(n, k)]
        start = time.monotonic()
        assert verify_realizes(rep, g).ok
        for v in part.clique:
            load = sum(1 for u in part.independent if g.has_edge(u, v))
            assert bend_count(rep.path(v)) == 2 * (load - 1) + 1
        delta_c = max(
            sum(1 for u in part.independent if g.has_edge(u, v)) for v in part.clique
        )
        assert max_bends(rep) <= 2 * delta_c - 1
        elapsed = time.monotonic() - start
        ok = ok and elapsed < 1.0
    for g, part in extra:
        rep = construct_split_upper(g, part)
        assert verify_realizes(rep, g).ok
        for v in part.clique:
            load = sum(1 for u in part.independent if g.has_edge(u, v))
            if load:
                assert bend_count(rep.path(v)) == 2 * (load - 1) + 1
    _report("criterion 1 (split upper bound)", ok)


# criterion 2 -----------------------------------------------------------------


def test_criterion_2_k3n_proper(k3n_reps):
    ok = True
    for n in range(3, 13):
        start = time.monotonic()
        rep = k3n_reps[n]
        g = subset_split_graph(n, 3)
        assert verify_realizes(rep, g).ok
        assert is_proper(rep).ok
        assert max_bends(rep) <= 2 * n + 4
        elapsed = time.monotonic() - start
        if n == 12:
            ok = ok and elapsed < 30.0
    assert max_bends(k3n_reps[10]) == 24
    _report("criterion 2 (proper 3-subset construction)", ok)


# criterion 3 -----------------------------------------------------------------


def test_criterion_3_staircases(gtm_reps):
    ok = True
    for (n, k), rep in gtm_reps.items():
        start = time.monotonic()
        g = build_hnk_member(n, k, all_qedges(n, k))
        assert verify_realizes(rep, g).ok
        assert is_proper(rep).ok
        for subset in combinations(range(1, n + 1), k):
            assert bend_count(rep.path(subset)) == 2 * k - 3
        ok = ok and (time.monotonic() - start) < 10.0
    _report("criterion 3 (staircase construction)", ok)


# scale: criteria 2 and 3 beyond the fixture sizes ------------------------------


def test_scale_k3n_and_staircase():
    start = time.monotonic()
    for n in (16, 20, 30):
        rep = construct_k3n_proper(n)
        assert verify_realizes(rep, subset_split_graph(n, 3)).ok
        assert is_proper(rep).ok
        assert max_bends(rep) <= 2 * n + 4
    rep = construct_gtm_stairs(9, 4)
    assert verify_realizes(rep, build_hnk_member(9, 4, all_qedges(9, 4))).ok
    assert is_proper(rep).ok
    _report("scale (k3n n = 16, 20, 30; staircase (9,4))", time.monotonic() - start < 20.0)


# criterion 4 -----------------------------------------------------------------


def test_criterion_4_hamiltonian_decomposition():
    for s in range(1, 7):
        d = hamiltonian_decomposition(s)
        n = d.vertex_count
        seen = set()
        for cyc in d.cycles:
            assert sorted(cyc) == list(range(1, n + 1))
            edges = {frozenset((cyc[i], cyc[(i + 1) % n])) for i in range(n)}
            assert len(edges) == n and not (seen & edges)
            seen |= edges
        assert seen == {frozenset(e) for e in combinations(range(1, n + 1), 2)}
    seqs = sequences_from_cycles(hamiltonian_decomposition(3), 10)
    covered = {frozenset(p) for seq in seqs for p in zip(seq, seq[1:])}
    assert covered >= {frozenset(p) for p in combinations(range(1, 11), 2)}
    # informative golden: matches the published first sequence
    informative = seqs[0] == (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 1)
    print(f"criterion 4 informative golden (S1 verbatim): {'PASS' if informative else 'SKIP'}")
    _report("criterion 4 (Hamiltonian decomposition)", True)


# criterion 5 -----------------------------------------------------------------


def test_criterion_5_poset_dimension():
    start = time.monotonic()
    for r, s in [(1, 3), (1, 4), (2, 4)]:
        p = build_p_rsn(r, s - 1, s)
        assert brute_force_dimension(p, s - r) is None  # dimension > s - r
    assert brute_force_dimension(build_p_rsn(1, 2, 3), 4) == 3
    elapsed = time.monotonic() - start
    _report("criterion 5 (poset dimension)", elapsed < 60.0)


# criterion 6 -----------------------------------------------------------------


def test_criterion_6_counting_validators():
    start = time.monotonic()
    for k in range(16, 33):
        assert validate_counting(k + 1, k, 0).factorial_split is True
    k = 16
    n = 2 * k * k * factorial(k) + 3
    assert validate_counting(n, k, 0).simplified_growth is True
    elapsed = time.monotonic() - start
    _report("criterion 6 (counting validators)", elapsed < 5.0)


# criterion 7 -----------------------------------------------------------------


def test_criterion_7_good_set_bound(split_upper_reps, k3n_reps, gtm_reps):
    ok = True
    cases = []
    for (n, k), (_, part, rep) in split_upper_reps.items():
        cases.append((f"split({n},{k})", rep.restricted(part.clique), k))
    for n, rep in k3n_reps.items():
        cases.append((f"k3n({n})", rep.restricted(range(1, n + 1)), 3))
    for (n, k), rep in gtm_reps.items():
        cases.append((f"gtm({n},{k})", rep.restricted(range(1, n + 1)), k))
    for name, ra, k in cases:
        start = time.monotonic()
        t = max(bend_count(p) for p in ra.assignment.values())
        count, bound, within = count_good_sets_vs_bound(ra, k, t)
        assert within, (name, count, bound)
        ok = ok and (time.monotonic() - start) < 60.0
    _report("criterion 7 (good-set bound)", ok)


# criterion 8 -----------------------------------------------------------------


def test_criterion_8_certificate_chain(k3n_reps):
    ok = True
    for n in range(3, 9):
        start = time.monotonic()
        rep = k3n_reps[n]
        clique = list(range(1, n + 1))
        indep = list(combinations(clique, 3))
        for b in indep:
            trim_independent_path(rep, b, clique)
        s_h, s_v = classify_sh_sv(rep, clique, indep)
        assert set(s_h) | set(s_v) == set(indep)
        f_h, f_v, f_hc, f_vc = build_auxiliary_fh_fv(rep, clique, indep)
        for f in (f_h, f_v, f_hc, f_vc):
            assert is_planar(f)
        assert f_hc.edge_count() <= max(0, 3 * len(f_hc) - 6)
        assert comb(n, 3) <= len(s_h) + len(s_v)
        ok = ok and (time.monotonic() - start) < 60.0
    _report("criterion 8 (section-4 certificate chain)", ok)


# criterion 9 -----------------------------------------------------------------


def test_criterion_9_oracle_cross_checks():
    start = time.monotonic()
    k3 = Graph([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    witness = search_representation(k3, GridSearchBudget(12, 12, 0, 200_000))
    assert witness is not None
    assert verify_realizes(witness, k3).ok
    assert max_bends(witness) == 0

    g5, _ = build_split_knk(5, 2)
    found = search_representation(
        g5, GridSearchBudget(12, 12, 1, 150_000), require_proper=True
    )
    if found is not None:
        assert verify_realizes(found, g5).ok
        assert is_proper(found).ok
        assert max_bends(found) <= 1
    # binding fallback: the constructed layout verifies
    fallback = construct_k2n_proper(5)
    assert verify_realizes(fallback, g5).ok
    assert is_proper(fallback).ok
    assert max_bends(fallback) == 1
    elapsed = time.monotonic() - start
    _report("criterion 9 (oracle cross-checks)", elapsed < 300.0)


# criterion 10 ----------------------------------------------------------------


def test_criterion_10_substituted_properties(k3n_reps, gtm_reps):
    # certificate soundness on every fixture with a realized target path
    fixtures = []
    for (n, k), rep in gtm_reps.items():
        fixtures.append((rep, range(1, n + 1), k))
    fixtures.append((construct_k2n_proper(5), range(1, 6), 2))
    for n in range(3, 9):
        fixtures.append((k3n_reps[n], range(1, n + 1), 3))
    for rep, clique, k in fixtures:
        ra = rep.restricted(clique)
        candidates = certificate_candidates(ra, k)
        for subset in combinations(clique, k):
            cert = bend_lb_certificate(ra, subset, candidates)
            assert cert is not None
            assert cert <= bend_count(rep.path(subset))

    # metric axioms on 1000 enumerated triples of 3-subsets
    sets = list(combinations(range(1, 8), 3))
    count = 0
    for a, b, c in product(sets, repeat=3):
        if count >= 1000:
            break
        count += 1
        dab, dba = kset_distance(a, b), kset_distance(b, a)
        assert dab >= 0
        assert (dab == 0) == (a == b)
        assert dab == dba
        assert kset_distance(a, c) <= dab + kset_distance(b, c)
    assert count == 1000
    _report("criterion 10 (substituted lower-bound properties)", True)
