"""The sweep-line checkers against the pairwise reference in `pairwise_reference`,
on the random representations of `rep_strategies`."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

import pairwise_reference as reference
from rep_strategies import representation, representations, scales, shifts
from vpgbend.geometry import (
    Point,
    RectPath,
    Segment,
    _contacts,
    path_intersections,
    segment_tables,
)
from vpgbend.representation import VpgRepresentation, intersection_graph, is_proper


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


@settings(max_examples=300, deadline=None)
@given(representations)
def test_contact_overlaps_are_the_merged_overlaps(paths):
    # the overlaps of two simple paths need no merge: the positive-length
    # pieces of one contact sweep, sorted, are the maximal overlaps
    paths = list(representation(paths).assignment.values())
    for p in paths:
        for q in paths:
            xs, ys, hs, vs = segment_tables([p, q])
            pieces = [
                Segment(Point(xs[x0], ys[y0]), Point(xs[x1], ys[y1]))
                for _, _, x0, y0, x1, y1, _ in _contacts(hs, vs)
                if (x0, y0) != (x1, y1)
            ]
            pieces.sort(key=lambda s: (s.a, s.b))
            assert tuple(pieces) == path_intersections(p, q).overlaps


@pytest.mark.parametrize("n", range(4, 11))
def test_checkers_match_reference_on_k3n(k3n_reps, n):
    _assert_same(k3n_reps[n])


@pytest.mark.parametrize("nk", [(6, 3), (7, 4)])
def test_checkers_match_reference_on_staircases(gtm_reps, nk):
    _assert_same(gtm_reps[nk])


def _primes(count):
    primes, n = [], 2
    while len(primes) < count:
        if all(n % p for p in primes if p * p <= n):
            primes.append(n)
        n += 1
    return primes


def test_checkers_match_reference_on_400_prime_denominators():
    # path i has its own prime denominator: its least grid value moves up by
    # 1/p_i and each other one stays put or moves too, which keeps the path's
    # shape, so integer values still meet across paths while the ranks come
    # from the lcm of 400 primes
    rng = random.Random(400)
    assignment = {}
    for label, p in enumerate(_primes(400)):
        x, y = rng.randrange(20), rng.randrange(20)
        corners, horizontal = [(x, y)], rng.random() < 0.5
        for _ in range(rng.randint(1, 3)):
            if horizontal:
                x = rng.choice([c for c in range(20) if c != x])
            else:
                y = rng.choice([c for c in range(20) if c != y])
            corners.append((x, y))
            horizontal = not horizontal
        values = sorted({v for xy in corners for v in xy})
        moved = {v: v + Fraction(1 if k == 0 else rng.randrange(2), p) for k, v in enumerate(values)}
        assignment[label] = RectPath([(moved[x], moved[y]) for x, y in corners])
    _assert_same(VpgRepresentation(assignment))
