"""The integer-rank probe sweep against the Fraction reference in
`probe_reference`, on the random representations of `rep_strategies` and on
the clique paths of the constructions.  The certificate candidates of k must
be the reference's good j-sets for all j <= k, and the certificate of every
target of at most 4 labels must be the reference's scan of those sets.  The
sweep's first probe of every hit-set, and the order it records them in, must
be those of the reference sweep that starts a probe at every position.  `_probe_sweep`, which
stops once the two axes hold every set of at most k paths, must keep every
entry and the merged order of the two axes swept to the end.  The int-box
witness re-check `probe_hit_set` is compared with the reference's on random
probes."""

from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import probe_reference as reference
from rep_strategies import representation, representations, scales, shifts
from vpgbend.constructors import construct_gtm_stairs
from vpgbend.geometry import Point, Segment
from vpgbend.lowerbound import (
    _probe_sets_one_axis,
    _probe_sweep,
    bend_lb_certificate,
    certificate_candidates,
    enumerate_good_sets,
    induced_grid,
    probe_hit_set,
    strip_small_sets,
)
from vpgbend.representation import _contact_table


def _assert_same(ra):
    assert induced_grid(ra) == reference.induced_grid(ra)
    good = []  # the reference's good j-sets for j <= k
    candidates = {k: certificate_candidates(ra, k) for k in range(1, 6)}
    for k in range(1, 5):
        sets = enumerate_good_sets(ra, k)
        expected = reference.enumerate_good_sets(ra, k)
        assert sets == expected
        good += expected
        assert len(set(candidates[k])) == len(candidates[k])
        assert set(candidates[k]) == {frozenset(gs.members) for gs in good}
        for gs in sets:
            assert probe_hit_set(ra, gs.witness) == frozenset(gs.members)
        assert strip_small_sets(ra, k) == reference.strip_small_sets(ra, k)
        # every k-label target, hit-set or not, swept for k, for k + 1 and anew
        for t in combinations(ra.labels(), k):
            given = (candidates[k], candidates[k + 1], None)
            assert [bend_lb_certificate(ra, t, g) for g in given] == [reference.certificate(good, t)] * 3


@settings(max_examples=300, deadline=None)
@given(representations)
def test_probe_sweep_matches_reference_on_small_grids(paths):
    _assert_same(representation(paths))


@settings(max_examples=100, deadline=None)
@given(representations, scales, shifts)
def test_probe_sweep_matches_reference_on_fraction_coordinates(paths, scale, shift):
    _assert_same(representation(paths, lambda c: c * scale + shift))


@pytest.mark.parametrize("n", range(4, 11))
def test_probe_sweep_matches_reference_on_k3n(k3n_reps, n):
    _assert_same(k3n_reps[n].restricted(range(1, n + 1)))


@pytest.mark.parametrize("nk", [(6, 3), (7, 4)])
def test_probe_sweep_matches_reference_on_staircases(gtm_reps, nk):
    _assert_same(gtm_reps[nk].restricted(range(1, nk[0] + 1)))


def _assert_same_first_probes(ra):
    """Both axes, on the rank table (hs, vs) and on its transpose (vs, hs):
    the same hit-sets with the same first probes, recorded in the same order."""
    table = _contact_table(ra)
    for k in range(1, 6):
        for args in ((len(table.xs), table.hs, table.vs, k), (len(table.ys), table.vs, table.hs, k)):
            found = _probe_sets_one_axis(*args)
            assert list(found.items()) == list(reference.all_starts_sweep(*args).items())


@settings(max_examples=300, deadline=None)
@given(representations, scales, shifts, st.booleans())
def test_first_probes_match_all_starts_sweep(paths, scale, shift, on_fractions):
    _assert_same_first_probes(
        representation(paths, (lambda c: c * scale + shift) if on_fractions else (lambda c: c))
    )


@pytest.mark.parametrize("n", range(4, 11))
def test_first_probes_match_all_starts_sweep_on_k3n(k3n_reps, n):
    _assert_same_first_probes(k3n_reps[n].restricted(range(1, n + 1)))


@pytest.mark.parametrize("nk", [(6, 3), (7, 4)])
def test_first_probes_match_all_starts_sweep_on_staircases(gtm_reps, nk):
    _assert_same_first_probes(gtm_reps[nk].restricted(range(1, nk[0] + 1)))


def _assert_sweep_matches_full_sweeps(ra):
    """`_probe_sweep` against both axes swept to the end: the same vertical
    dict, a prefix of the horizontal one, and the same merged key order."""
    table = _contact_table(ra)
    for k in range(1, 5):
        full_v = _probe_sets_one_axis(len(table.xs), table.hs, table.vs, k)
        full_h = _probe_sets_one_axis(len(table.ys), table.vs, table.hs, k)
        *_, vertical, horizontal = _probe_sweep(ra, k)
        assert list(vertical.items()) == list(full_v.items())
        assert list(horizontal.items()) == list(full_h.items())[: len(horizontal)]
        assert list({**vertical, **horizontal}) == list({**full_v, **full_h})


@settings(max_examples=300, deadline=None)
@given(representations)
def test_probe_sweep_matches_full_sweeps(paths):
    _assert_sweep_matches_full_sweeps(representation(paths))


@pytest.mark.parametrize("n", range(4, 13))
def test_probe_sweep_matches_full_sweeps_on_k3n(k3n_reps, n):
    _assert_sweep_matches_full_sweeps(k3n_reps[n].restricted(range(1, n + 1)))


@pytest.mark.parametrize("nk", [(5, 3), (6, 3), (7, 4), (8, 4)])
def test_probe_sweep_matches_full_sweeps_on_staircases(nk):
    _assert_sweep_matches_full_sweeps(construct_gtm_stairs(*nk).restricted(range(1, nk[0] + 1)))


@pytest.mark.parametrize("n, count", [(8, 92), (10, 175)])
def test_probe_sweep_stops_once_every_set_is_held(k3n_reps, n, count):
    """Every set of at most 3 of k3n(n)'s clique paths is a hit-set, so the
    horizontal sweep stops short of its end; at k = 2 the vertical sweep
    holds them all and the horizontal one does not run."""
    ra = k3n_reps[n].restricted(range(1, n + 1))
    table = _contact_table(ra)
    assert len(certificate_candidates(ra, 3)) == count == sum(comb(n, j) for j in (1, 2, 3))
    horizontal = _probe_sweep(ra, 3)[-1]
    assert len(horizontal) < len(_probe_sets_one_axis(len(table.ys), table.vs, table.hs, 3))
    assert _probe_sweep(ra, 2)[-1] == {}


# layouts whose rows the carried sweep updates in place: each is checked as
# given and transposed, against both reference sweeps
_CARRIED_ROW_CASES = {
    # 0 and 1 overlap on y = 0 over x in [2, 4]; 2 takes over from 0 at x = 4
    "two paths' horizontals on one line": [
        [(0, 0), (4, 0), (4, 3)], [(2, 0), (6, 0)], [(4, 0), (4, -2), (8, -2)], [(3, -1), (3, 2)],
    ],
    # 0 runs along y = 0 twice, over [0, 2] and [4, 6], and 1 meets the gap
    "one path's two horizontals on one line": [
        [(0, 0), (2, 0), (2, 2), (4, 2), (4, 0), (6, 0), (6, 3)], [(3, -1), (3, 1)], [(5, 1), (1, 1)],
    ],
    # 0 spans one rank, so it opens on the line that 1 closes on, the next closes it
    "a horizontal one rank long": [
        [(1, 0), (2, 0)], [(0, 1), (1, 1), (1, -1)], [(2, 2), (2, -2), (3, -2)], [(0, 0), (0, 3), (3, 3)],
    ],
}


@pytest.mark.parametrize("case", list(_CARRIED_ROW_CASES))
def test_first_probes_match_all_starts_sweep_on_carried_rows(case):
    paths = _CARRIED_ROW_CASES[case]
    for corners in (paths, [[(y, x) for x, y in p] for p in paths]):
        ra = representation(corners)
        assert [p.corners for p in ra.assignment.values()] == [
            tuple(Point(x, y) for x, y in p) for p in corners
        ]
        _assert_same_first_probes(ra)
        _assert_same(ra)


def _probe_coordinates(ra):
    """Every corner coordinate, and the points a third, a half and one unit
    away from each: probes on them touch ends and run along segments."""
    cs = {c for p in ra.assignment.values() for pt in p.corners for c in (pt.x, pt.y)}
    return sorted(cs | {c + d for c in cs for d in (Fraction(1, 3), Fraction(-1, 2), 1)})


@settings(max_examples=300, deadline=None)
@given(representations, scales, shifts, st.booleans(), st.data())
def test_probe_hit_set_matches_reference(paths, scale, shift, on_fractions, data):
    ra = representation(paths, (lambda c: c * scale + shift) if on_fractions else (lambda c: c))
    coords = st.sampled_from(_probe_coordinates(ra))
    for _ in range(8):
        fixed = data.draw(coords)
        a, b = data.draw(st.lists(coords, min_size=2, max_size=2, unique=True).map(sorted))
        ends = (Point(fixed, a), Point(fixed, b))
        if data.draw(st.booleans()):
            ends = tuple(Point(pt.y, pt.x) for pt in ends)
        probe = Segment(*ends)
        assert probe_hit_set(ra, probe) == reference.probe_hit_set(ra, probe)
