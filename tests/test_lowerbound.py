from fractions import Fraction
from itertools import combinations
from math import factorial

import pytest

from vpgbend.errors import DomainError, ParameterError
from vpgbend.geometry import VERTICAL, RectPath, bend_count
from vpgbend.graphs import Graph
from vpgbend.constructors import construct_gtm_stairs, construct_k2n_proper
from vpgbend.lowerbound import (
    augmented_good_sets,
    bend_lb_certificate,
    build_auxiliary_fh_fv,
    classify_sh_sv,
    count_good_sets_vs_bound,
    enumerate_good_sets,
    find_far_kset,
    induced_grid,
    is_planar,
    kset_distance,
    pad_to_k,
    probe_hit_set,
    strip_small_sets,
    validate_counting,
)
from vpgbend.representation import VpgRepresentation, intersection_graph


def two_parallels():
    return VpgRepresentation(
        {1: RectPath([(0, 0), (2, 0)]), 2: RectPath([(0, 1), (2, 1)])}
    )


# --- induced grid -----------------------------------------------------------------


def test_grid_of_single_horizontal_segment():
    ra = VpgRepresentation({1: RectPath([(0, 0), (3, 0)])})
    grid = induced_grid(ra)
    assert grid.y_lines == (Fraction(0),)
    assert grid.x_lines == (Fraction(0), Fraction(3))


def test_grid_translation():
    ra = VpgRepresentation({1: RectPath([(0, 0), (3, 0), (3, 2)])})
    moved = VpgRepresentation({1: ra.path(1).translated(5, 7)})
    g1, g2 = induced_grid(ra), induced_grid(moved)
    assert tuple(x + 5 for x in g1.x_lines) == g2.x_lines
    assert tuple(y + 7 for y in g1.y_lines) == g2.y_lines


def test_grid_requires_paths():
    with pytest.raises(DomainError):
        induced_grid(VpgRepresentation({}))


# --- good sets --------------------------------------------------------------------


def test_two_parallels_good_two_set():
    sets = enumerate_good_sets(two_parallels(), 2)
    assert len(sets) == 1
    gs = sets[0]
    assert gs.members == (1, 2)
    assert gs.orientation == VERTICAL


def test_two_parallels_good_singletons():
    sets = enumerate_good_sets(two_parallels(), 1)
    assert sorted(gs.members for gs in sets) == [(1,), (2,)]


def test_good_set_witnesses_revalidate():
    rep = construct_gtm_stairs(5, 3)
    ra = rep.restricted(range(1, 6))
    for gs in enumerate_good_sets(ra, 3):
        assert probe_hit_set(ra, gs.witness) == frozenset(gs.members)


def test_good_sets_k_validation():
    with pytest.raises(ParameterError):
        enumerate_good_sets(two_parallels(), 0)


def test_point_probe_sets_found():
    # the only way to hit exactly {1, 2} is at their crossing point
    ra = VpgRepresentation(
        {
            1: RectPath([(0, 0), (2, 0)]),
            2: RectPath([(1, -1), (1, 1)]),
            3: RectPath([(0, "1/2"), ("1/2", "1/2")]),
        }
    )
    members = {gs.members for gs in enumerate_good_sets(ra, 2)}
    assert (1, 2) in members


def _brute_force_probe_sets(ra, k):
    """Independent oracle: exhaustive probes over the quarter-integer grid.

    For layouts with integer corners every hit-set change happens at integer
    coordinates, so windows with quarter-integer endpoints realize every
    probe-realizable set.
    """
    from fractions import Fraction

    from vpgbend.geometry import Point, Segment
    from vpgbend.lowerbound import probe_hit_set

    corners = [c for p in ra.assignment.values() for c in p.corners]
    xs = sorted({c.x for c in corners})
    ys = sorted({c.y for c in corners})

    def grid(vals):
        lo, hi = min(vals) - 1, max(vals) + 1
        out = []
        v = lo
        while v <= hi:
            out.append(v)
            v += Fraction(1, 4)
        return out

    gx, gy = grid(xs), grid(ys)
    sets = set()
    for x in gx:
        for i, ya in enumerate(gy):
            for yb in gy[i + 1 :]:
                hit = probe_hit_set(ra, Segment(Point(x, ya), Point(x, yb)))
                if len(hit) == k:
                    sets.add(hit)
    for y in gy:
        for i, xa in enumerate(gx):
            for xb in gx[i + 1 :]:
                hit = probe_hit_set(ra, Segment(Point(xa, y), Point(xb, y)))
                if len(hit) == k:
                    sets.add(hit)
    return sets


@pytest.mark.parametrize(
    "paths,k",
    [
        # crossing plus a stub sharing the crossing column
        ({1: [(0, 0), (2, 0)], 2: [(1, -1), (1, 1)], 3: [(1, 2), (2, 2)]}, 2),
        # nested L-shapes
        ({1: [(0, 2), (0, 0), (3, 0)], 2: [(1, 2), (1, 1), (3, 1)], 3: [(2, 3), (2, 2), (3, 2)]}, 2),
        # parallel ladder with one rung
        ({1: [(0, 0), (4, 0)], 2: [(0, 2), (4, 2)], 3: [(2, -1), (2, 3)]}, 1),
        ({1: [(0, 0), (4, 0)], 2: [(0, 2), (4, 2)], 3: [(2, -1), (2, 3)]}, 2),
        ({1: [(0, 0), (4, 0)], 2: [(0, 2), (4, 2)], 3: [(2, -1), (2, 3)]}, 3),
        # touching collinear segments
        ({1: [(0, 0), (2, 0)], 2: [(2, 0), (4, 0)], 3: [(3, -1), (3, 1)]}, 2),
    ],
)
def test_enumeration_matches_brute_force_oracle(paths, k):
    ra = VpgRepresentation({l: RectPath(c) for l, c in paths.items()})
    enumerated = {frozenset(gs.members) for gs in enumerate_good_sets(ra, k)}
    assert enumerated == _brute_force_probe_sets(ra, k)


# --- k-set distance ---------------------------------------------------------------


def test_kset_distance_examples():
    assert kset_distance({1, 2, 3}, {1, 2, 3}) == 0
    assert kset_distance({1, 2, 3}, {1, 2, 4}) == 1
    with pytest.raises(DomainError):
        kset_distance({1, 2}, {1, 2, 3})


def test_kset_distance_intersection_relation():
    # distance > k-3 exactly when the sets share at most two elements
    k = 5
    for s1 in combinations(range(1, 8), k):
        for s2 in combinations(range(1, 8), k):
            d = kset_distance(s1, s2)
            assert (d > k - 3) == (len(set(s1) & set(s2)) < 3)


# --- far k-sets and augmentation ----------------------------------------------------


def test_far_kset_with_no_good_sets():
    assert find_far_kset([], 6, 3) == (1, 2, 3)


def test_far_kset_with_all_subsets():
    sets = list(combinations(range(1, 7), 3))
    assert find_far_kset(sets, 6, 3) is None


def test_far_kset_small_layouts_return_none():
    rep = construct_gtm_stairs(5, 3)
    ra = rep.restricted(range(1, 6))
    sets = augmented_good_sets(ra, 3, 5)
    assert find_far_kset(sets, 5, 3) is None


def test_pad_to_k_lexicographic():
    assert pad_to_k(frozenset({4}), 6, 3) == {1, 2, 4}
    assert pad_to_k(frozenset({1, 2, 3}), 6, 3) == {1, 2, 3}


def test_strip_small_sets_parallel_layout():
    # two stacked unit segments, far apart horizontally: probes meet at most
    # one of each pair, so deficient strips abound for k = 2
    ra = VpgRepresentation(
        {
            1: RectPath([(0, 0), (1, 0)]),
            2: RectPath([(10, 0), (11, 0)]),
        }
    )
    small = strip_small_sets(ra, 2)
    assert frozenset({1}) in small and frozenset({2}) in small


# --- certificates -----------------------------------------------------------------


def test_certificate_zero_when_target_is_good():
    rep = construct_gtm_stairs(5, 3)
    ra = rep.restricted(range(1, 6))
    assert bend_lb_certificate(ra, (1, 2, 3)) == 0


def test_certificate_unrealizable_for_unknown_labels():
    ra = two_parallels()
    assert bend_lb_certificate(ra, ("nope",)) is None


def test_certificate_pairwise_stacked_layout():
    # probes meet at most two target members, so a path hitting all four
    # needs at least ceil(4/2) = 2 segments: certificate k/2 - 1 = 1
    ra = VpgRepresentation(
        {
            1: RectPath([(0, 0), (1, 0)]),
            2: RectPath([(0, 1), (1, 1)]),
            3: RectPath([(10, 0), (11, 0)]),
            4: RectPath([(10, 1), (11, 1)]),
        }
    )
    assert bend_lb_certificate(ra, (1, 2, 3, 4)) == 1


def test_certificate_sound_on_staircase_fixtures(gtm_reps):
    for (n, k), rep in gtm_reps.items():
        ra = rep.restricted(range(1, n + 1))
        for subset in combinations(range(1, n + 1), k):
            cert = bend_lb_certificate(ra, subset)
            assert cert is not None
            assert cert <= bend_count(rep.path(subset))


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 2: the candidate sets miss probe hit-sets of size < k on grid lines",
)
def test_certificate_sound_on_item2_counterexample():
    ra = VpgRepresentation(
        {
            1: RectPath([(6, 1), (4, 1)]),
            2: RectPath([(0, 3), (1, 3)]),
            3: RectPath([(2, 4), (2, 6), (5, 6)]),
            4: RectPath([(5, 1), (2, 1)]),
            5: RectPath([(1, 1), (1, 4)]),
        }
    )
    path = RectPath([("1/2", 3), (2, 3), (2, 4)])
    with_path = VpgRepresentation({**ra.assignment, "p": path})
    assert set(intersection_graph(with_path).neighbors("p")) == {2, 3, 5}
    assert bend_lb_certificate(ra, (2, 3, 5)) <= bend_count(path)


# --- counting validators -------------------------------------------------------------


def test_counting_subclaim_one_at_sixteen():
    report = validate_counting(100, 16, 0)
    assert report.factorial_split is True


def test_counting_subclaim_one_at_fifteen():
    # outside the guaranteed range; direct evaluation says it still holds
    report = validate_counting(100, 15, 0)
    expected = factorial(15) < factorial(8) * factorial(7) * factorial(10)
    assert report.factorial_split is expected is True


def test_counting_subclaim_one_fails_small_k():
    report = validate_counting(100, 6, 0)
    assert report.factorial_split is (factorial(6) < factorial(3) * factorial(3) * factorial(1))
    assert report.factorial_split is False


def test_counting_full_scale_k16():
    k = 16
    n = 2 * k * k * factorial(k) + 3
    report = validate_counting(n, k, 0)
    assert report.simplified_growth is True
    assert report.observation_bound is True
    assert report.claim_chain is True


def test_counting_growth_fails_small_n():
    report = validate_counting(1000, 16, 0)
    assert report.simplified_growth is False


def test_counting_parameter_checks():
    with pytest.raises(ParameterError):
        validate_counting(4, 4, 0)


def test_observation_bound_formula():
    # with k = 2t+16 the strip-count bound folds into the stated constant
    for t in range(5):
        k = 2 * t + 16
        n = 50
        assert 8 * n * n * (t + 1) ** 2 <= 2 * n * n * k * k


# --- good-set count vs bound -----------------------------------------------------------


def test_count_vs_bound_single_segments():
    ra = VpgRepresentation(
        {
            1: RectPath([(0, 0), (1, 0)]),
            2: RectPath([(0, 2), (1, 2)]),
            3: RectPath([(5, 0), (6, 0)]),
        }
    )
    count, bound, ok = count_good_sets_vs_bound(ra, 1, 0)
    assert bound == 8 * 9
    assert ok and count <= bound


def test_count_vs_bound_declared_t_enforced():
    ra = VpgRepresentation({1: RectPath([(0, 0), (1, 0), (1, 1)])})
    with pytest.raises(ParameterError):
        count_good_sets_vs_bound(ra, 1, 0)


def test_fig1_style_layout_count():
    rep = construct_gtm_stairs(5, 3)
    ra = rep.restricted(range(1, 6))
    count, bound, ok = count_good_sets_vs_bound(ra, 3, 3)
    assert ok
    assert count <= 1800


# --- auxiliary graphs -----------------------------------------------------------------


def test_classify_requires_three_neighbors():
    rep = VpgRepresentation(
        {
            "b": RectPath([(0, 0), (4, 0)]),
            1: RectPath([(1, -1), (1, 1)]),
            2: RectPath([(2, -1), (2, 1)]),
        }
    )
    with pytest.raises(DomainError):
        classify_sh_sv(rep, [1, 2], ["b"])


def test_classify_all_vertical_hits():
    rep = VpgRepresentation(
        {
            "b": RectPath([(0, 0), (4, 0)]),
            1: RectPath([(1, -1), (1, 1)]),
            2: RectPath([(2, -1), (2, 1)]),
            3: RectPath([(3, -1), (3, 1)]),
        }
    )
    s_h, s_v = classify_sh_sv(rep, [1, 2, 3], ["b"])
    assert s_h == () and s_v == ("b",)


def test_fh_fv_requires_proper():
    rep = VpgRepresentation(
        {
            "b": RectPath([(0, 0), (4, 0)]),
            1: RectPath([(1, 0), (2, 0), (2, 1)]),  # overlaps b
            2: RectPath([(3, -1), (3, 1)]),
            3: RectPath([("7/2", -1), ("7/2", 1)]),
        }
    )
    with pytest.raises(DomainError):
        build_auxiliary_fh_fv(rep, [1, 2, 3], ["b"])


def test_fh_edgeless_when_hits_are_vertical():
    rep = VpgRepresentation(
        {
            "b": RectPath([(0, 0), (4, 0)]),
            1: RectPath([(1, -1), (1, 1)]),
            2: RectPath([(2, -1), (2, 1)]),
            3: RectPath([(3, -1), (3, 1)]),
        }
    )
    f_h, f_v, f_hc, f_vc = build_auxiliary_fh_fv(rep, [1, 2, 3], ["b"])
    assert f_h.edge_count() == 0
    assert f_v.edge_count() == 2  # consecutive hits 1-2 and 2-3
    assert f_vc.edge_count() == 2


def test_contraction_preserves_planarity_here():
    rep = construct_k2n_proper(4)
    clique = list(range(1, 5))
    indep = list(combinations(clique, 2))
    f_h, f_v, f_hc, f_vc = build_auxiliary_fh_fv(rep, clique, indep)
    for f in (f_h, f_v, f_hc, f_vc):
        assert is_planar(f)


# --- planarity -------------------------------------------------------------------------


def test_k4_planar_k5_not():
    def complete(n):
        g = Graph(range(n))
        for u, v in combinations(range(n), 2):
            g.add_edge(u, v)
        return g

    assert is_planar(complete(4))
    assert not is_planar(complete(5))


def test_fh_from_k3n_six_planar(k3n_reps):
    rep = k3n_reps[6]
    clique = list(range(1, 7))
    indep = list(combinations(clique, 3))
    f_h, f_v, f_hc, f_vc = build_auxiliary_fh_fv(rep, clique, indep)
    assert is_planar(f_h) and is_planar(f_v)
    assert is_planar(f_hc) and is_planar(f_vc)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_sh_bounded_by_contracted_edges(k3n_reps, n):
    rep = k3n_reps[n]
    clique = list(range(1, n + 1))
    indep = list(combinations(clique, 3))
    s_h, s_v = classify_sh_sv(rep, clique, indep)
    _, _, f_hc, f_vc = build_auxiliary_fh_fv(rep, clique, indep)
    assert len(s_h) <= (n - 2) * f_hc.edge_count()
    assert len(s_v) <= (n - 2) * f_vc.edge_count()
