import functools
import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from math import factorial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vpgbend
from rep_strategies import grid_path, representation

from vpgbend.errors import DomainError, ParameterError
from vpgbend.geometry import VERTICAL, RectPath, bend_count
from vpgbend.graphs import Graph
from vpgbend.constructors import construct_gtm_stairs, construct_k2n_proper, construct_k3n_proper
from vpgbend.lowerbound import (
    bend_lb_certificate,
    build_auxiliary_fh_fv,
    certificate_candidates,
    classify_sh_sv,
    count_good_sets_vs_bound,
    enumerate_good_sets,
    find_far_kset,
    induced_grid,
    is_planar,
    kset_distance,
    probe_hit_set,
    strip_small_sets,
    validate_counting,
)
from vpgbend.oracle import GridSearchBudget, _grid_paths
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


# --- far k-sets and strip sets ------------------------------------------------------


def test_far_kset_with_no_good_sets():
    assert find_far_kset([], 6, 3) == (1, 2, 3)


def test_far_kset_with_all_subsets():
    sets = list(combinations(range(1, 7), 3))
    assert find_far_kset(sets, 6, 3) is None


def test_far_kset_small_layouts_return_none():
    rep = construct_gtm_stairs(5, 3)
    ra = rep.restricted(range(1, 6))
    sets = [gs.members for gs in enumerate_good_sets(ra, 3)]
    assert len(sets) == 10  # every 3-subset of [5] is good
    assert find_far_kset(sets, 5, 3) is None


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


COUNTEREXAMPLE_PATHS = [
    [(6, 1), (4, 1)], [(0, 3), (1, 3)], [(2, 4), (2, 6), (5, 6)], [(5, 1), (2, 1)], [(1, 1), (1, 4)],
]


def test_certificate_sound_on_item2_counterexample():
    ra = VpgRepresentation({label: RectPath(c) for label, c in enumerate(COUNTEREXAMPLE_PATHS, 1)})
    path = RectPath([("1/2", 3), (2, 3), (2, 4)])
    with_path = VpgRepresentation({**ra.assignment, "p": path})
    assert set(intersection_graph(with_path).neighbors("p")) == {2, 3, 5}
    assert bend_lb_certificate(ra, (2, 3, 5)) <= bend_count(path)


@functools.cache
def _lattice_paths(side):
    """(bends, lattice mask) of every grid path with at most one bend on the
    side x side grid of the oracle."""
    return [(len(c) - 2, mask) for c, mask in _grid_paths(GridSearchBudget(side, side, 1, 1))]


def _lattice_mask(path, side):
    """The bits of a path with integer corners on the oracle's doubled lattice."""
    mask = 0
    for a, b in zip(path.corners, path.corners[1:]):
        x0, x1 = sorted((int(2 * a.x), int(2 * b.x)))
        y0, y1 = sorted((int(2 * a.y), int(2 * b.y)))
        for x in range(x0, x1 + 1):
            for y in range(y0, y1 + 1):
                mask |= 1 << (y * (2 * side - 1) + x)
    return mask


@settings(max_examples=200, deadline=None)
@given(st.lists(grid_path(st.integers(min_value=0, max_value=3)), min_size=2, max_size=6))
@example(COUNTEREXAMPLE_PATHS)
def test_certificate_at_most_bends_of_every_lattice_path(paths):
    # Doubling the layout and shifting it by 1 puts a lattice line inside
    # every gap between its lines and one beyond each end; the counterexample
    # path (1/2,3)(2,3)(2,4) becomes (2,7)(5,7)(5,9).  Every walked path
    # meets exactly the paths whose masks share a bit with its own.
    ra = representation(paths, lambda c: 2 * c + 1)
    side = 2 * max(c for corners in paths for xy in corners for c in xy) + 3
    masks = {label: _lattice_mask(path, side) for label, path in ra.assignment.items()}
    fewest = {}  # met set -> fewest bends of a walked path meeting exactly it
    for bends, mask in _lattice_paths(side):
        met = frozenset(label for label, m in masks.items() if m & mask)
        if met and fewest.get(met, 2) > bends:
            fewest[met] = bends
    candidates = {k: certificate_candidates(ra, k) for k in {len(met) for met in fewest}}
    for met, bends in fewest.items():
        cert = bend_lb_certificate(ra, met, candidates[len(met)])
        assert cert is not None and cert <= bends, (sorted(met), cert, bends)


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


@pytest.mark.parametrize("construct", [construct_k2n_proper, construct_k3n_proper])
def test_analyses_on_whole_representations_with_mixed_labels(construct):
    # clique labels are ints and independent labels tuples
    rep = construct(4)
    for k in (1, 2, 3):
        sets = enumerate_good_sets(rep, k)
        assert sets
        assert all(probe_hit_set(rep, gs.witness) == frozenset(gs.members) for gs in sets)
        assert {frozenset(gs.members) for gs in sets} <= set(certificate_candidates(rep, k))
    t = max(bend_count(p) for p in rep.assignment.values())
    count, bound, ok = count_good_sets_vs_bound(rep, 2, t)
    assert ok and count == len(enumerate_good_sets(rep, 2))
    # each path meets exactly its neighbours among the other paths
    g = intersection_graph(rep)
    for v in rep.labels():
        others = rep.restricted(label for label in rep.labels() if label != v)
        cert = bend_lb_certificate(others, g.neighbors(v))
        assert cert is not None and cert <= bend_count(rep.path(v))


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


def test_import_leaves_networkx_unloaded():
    # only is_planar needs networkx, so it is loaded on first use
    code = (
        "import sys\n"
        "import vpgbend.cli\n"
        "assert 'networkx' not in sys.modules\n"
        "from itertools import combinations\n"
        "from vpgbend.graphs import Graph\n"
        "from vpgbend.lowerbound import is_planar\n"
        "for n in (4, 5):\n"
        "    g = Graph(range(n))\n"
        "    for u, v in combinations(range(n), 2):\n"
        "        g.add_edge(u, v)\n"
        "    print(is_planar(g))\n"
    )
    src = str(Path(vpgbend.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "True\nFalse\n"), proc.stderr


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
