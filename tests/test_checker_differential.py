"""The sweep-line checkers against the pairwise reference in `pairwise_reference`,
on the random representations of `rep_strategies`."""

import pytest
from hypothesis import given, settings

import pairwise_reference as reference
from rep_strategies import representation, representations, scales, shifts
from vpgbend.representation import intersection_graph, is_proper


def _assert_same(rep):
    assert intersection_graph(rep).edges() == reference.intersection_graph(rep).edges()
    assert is_proper(rep) == reference.is_proper(rep)


@settings(max_examples=600, deadline=None)
@given(representations)
def test_checkers_match_reference_on_small_grids(paths):
    _assert_same(representation(paths))


@settings(max_examples=150, deadline=None)
@given(representations, scales, shifts)
def test_checkers_match_reference_on_fraction_coordinates(paths, scale, shift):
    _assert_same(representation(paths, lambda c: c * scale + shift))


@pytest.mark.parametrize("n", range(4, 11))
def test_checkers_match_reference_on_k3n(k3n_reps, n):
    _assert_same(k3n_reps[n])


@pytest.mark.parametrize("nk", [(6, 3), (7, 4)])
def test_checkers_match_reference_on_staircases(gtm_reps, nk):
    _assert_same(gtm_reps[nk])
