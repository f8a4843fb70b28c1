"""The integer-rank probe sweep against the Fraction reference in
`probe_reference`, on the random representations of `rep_strategies` and on
the clique paths of the constructions.  The certificate candidates of k must
be the reference's good j-sets for all j <= k."""

import pytest
from hypothesis import given, settings

import probe_reference as reference
from rep_strategies import representation, representations, scales, shifts
from vpgbend.lowerbound import (
    certificate_candidates,
    enumerate_good_sets,
    induced_grid,
    probe_hit_set,
    strip_small_sets,
)


def _assert_same(ra):
    assert induced_grid(ra) == reference.induced_grid(ra)
    at_most_k = set()  # the reference's good j-sets for j <= k
    for k in range(1, 5):
        sets = enumerate_good_sets(ra, k)
        expected = reference.enumerate_good_sets(ra, k)
        assert sets == expected
        at_most_k |= {frozenset(gs.members) for gs in expected}
        candidates = certificate_candidates(ra, k)
        assert len(set(candidates)) == len(candidates)
        assert set(candidates) == at_most_k
        for gs in sets:
            assert probe_hit_set(ra, gs.witness) == frozenset(gs.members)
        assert strip_small_sets(ra, k) == reference.strip_small_sets(ra, k)


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
