"""The sweep-line checkers against the pairwise reference in `pairwise_reference`,
on the random representations of `rep_strategies`."""

import random
from fractions import Fraction
from itertools import chain, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pairwise_reference as reference
from rep_strategies import rank_table, representation, representations, scales, shifts
from vpgbend.geometry import (
    Point,
    RectPath,
    Segment,
    path_intersections,
)
from vpgbend.graphs import Graph, label_str
from vpgbend.representation import (
    RealizationReport,
    VpgRepresentation,
    _contact_table,
    intersection_graph,
    is_proper,
    verify_realizes,
)


def _assert_same(rep):
    assert intersection_graph(rep).edges() == reference.intersection_graph(rep).edges()
    assert is_proper(rep) == reference.is_proper(rep)


def _toggled(g, u, v):
    """`g` with the pair {u, v} removed if it is an edge, added if not."""
    edges = [e for e in g.edges() if set(e) != {u, v}]
    if not g.has_edge(u, v):
        edges.append((u, v))
    return Graph(g.vertices, edges)


def _assert_same_report(rep, derived, g):
    # `derived` is the reference intersection graph of `rep`
    def named(edges, other):
        return tuple(sorted(
            tuple(sorted((label_str(u), label_str(v))))
            for u, v in edges.edges() if not other.has_edge(u, v)
        ))

    missing, spurious = named(g, derived), named(derived, g)
    expected = RealizationReport(not missing and not spurious, missing, spurious)
    assert verify_realizes(rep, g) == expected


def _assert_same_reports(rep, seed):
    # the reference graph itself, and one edge removed and one non-edge added
    derived = reference.intersection_graph(rep)
    _assert_same_report(rep, derived, derived)
    rng = random.Random(seed)
    non_edges = [pr for pr in combinations(rep.labels(), 2) if not derived.has_edge(*pr)]
    for chosen in (derived.edges(), non_edges):
        if chosen:
            _assert_same_report(rep, derived, _toggled(derived, *rng.choice(chosen)))


@settings(max_examples=600, deadline=None)
@given(representations)
def test_checkers_match_reference_on_small_grids(paths):
    _assert_same(representation(paths))


@settings(max_examples=150, deadline=None)
@given(representations, scales, shifts)
def test_checkers_match_reference_on_fraction_coordinates(paths, scale, shift):
    _assert_same(representation(paths, lambda c: c * scale + shift))


@settings(max_examples=400, deadline=None)
@given(representations)
def test_proper_iff_the_table_has_no_overlap_and_no_touch(paths):
    # `is_proper` answers from this alone on a table with neither: a third
    # path through a crossing point of two others overlaps one of them
    rep = representation(paths)
    table = rank_table(list(rep.assignment.values()))
    assert reference.is_proper(rep).ok == (not table.overlaps and not table.touches)


def _assert_no_point_contact_in_an_own_overlap(rep):
    table = _contact_table(rep)
    n_pairs, n_ys = len(rep) ** 2, len(table.ys)
    for key in chain(table.crossings, table.touches):
        point, pair = divmod(key, n_pairs)
        x, y = divmod(point, n_ys)
        for x0, y0, x1, y1 in table.overlaps.get(pair, ()):
            assert not (x0 <= x <= x1 and y0 <= y <= y1), (key in table.touches, pair, x, y)


@settings(max_examples=600, deadline=None)
@given(representations)
def test_no_point_contact_lies_in_an_overlap_of_its_pair(paths):
    # the table drops such touches, and a crossing is never in one, so
    # `is_proper` and the hit walks need not test a point against an overlap
    _assert_no_point_contact_in_an_own_overlap(representation(paths))


@settings(max_examples=150, deadline=None)
@given(representations, scales, shifts)
def test_no_point_contact_lies_in_an_overlap_of_its_pair_on_fractions(paths, scale, shift):
    _assert_no_point_contact_in_an_own_overlap(representation(paths, lambda c: c * scale + shift))


@settings(max_examples=300, deadline=None)
@given(representations, st.data())
def test_verify_realizes_matches_reference_with_one_pair_toggled(paths, data):
    rep = representation(paths)
    index = st.integers(0, len(paths) - 1)
    i, j = data.draw(st.lists(index, min_size=2, max_size=2, unique=True))
    derived = reference.intersection_graph(rep)
    _assert_same_report(rep, derived, derived)
    _assert_same_report(rep, derived, _toggled(derived, i, j))


@settings(max_examples=300, deadline=None)
@given(representations)
def test_contact_overlaps_are_the_merged_overlaps(paths):
    # the overlaps of two simple paths need no merge: the positive-length
    # pieces of one contact sweep, the table's overlap boxes, sorted, are the
    # maximal overlaps
    paths = list(representation(paths).assignment.values())
    for p in paths:
        for q in paths:
            table = rank_table([p, q])
            den, xs, ys = table.den, table.xs, table.ys
            pieces = [
                Segment(
                    Point(Fraction(xs[x0], den), Fraction(ys[y0], den)),
                    Point(Fraction(xs[x1], den), Fraction(ys[y1], den)),
                )
                for x0, y0, x1, y1 in table.overlaps.get(1, ())  # the pair (0, 1)
            ]
            pieces.sort(key=lambda s: (s.a, s.b))
            assert tuple(pieces) == path_intersections(p, q).overlaps


@pytest.mark.parametrize("n", range(4, 11))
def test_checkers_match_reference_on_k3n(k3n_reps, n):
    _assert_same(k3n_reps[n])
    _assert_same_reports(k3n_reps[n], n)


@pytest.mark.parametrize("nk", [(6, 3), (7, 4)])
def test_checkers_match_reference_on_staircases(gtm_reps, nk):
    _assert_same(gtm_reps[nk])
    _assert_same_reports(gtm_reps[nk], nk[0] * nk[1])


def test_verify_realizes_builds_no_sorted_edge_list(gtm_reps, monkeypatch):
    rep = gtm_reps[(6, 3)]
    g = reference.intersection_graph(rep)
    monkeypatch.setattr(Graph, "edges", None)  # any call fails
    assert verify_realizes(rep, g).ok


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
