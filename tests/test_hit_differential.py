"""The single clique-hit walk and the rank exposure scan against their
original `Segment` forms in `hit_reference`.

The walk and its three consumers are compared with the reference on the
random representations of `rep_strategies`, with path 0 as the independent
path, on random cases with several independent paths that the consumers walk
against one rank table, and on the k3n and k2n constructions.  The
contraction behind F'_h/F'_v is compared with the reference's own union-find
on random graphs over the segments of a few clique paths.  The exposure
of every segment of those random representations, on integer and `Fraction`
coordinates, and of the staircases' clique paths is compared with the
reference, with its transpose, and with a ray test on every corner
coordinate.
"""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hit_reference as reference
from rep_strategies import grid_path, rank_table, representation, representations, scales, shifts
from vpgbend.constructors import _exposures, construct_gtm_stairs, construct_k2n_proper
from vpgbend.errors import DegenerateTrimError
from vpgbend.geometry import HORIZONTAL, VERTICAL, Point, RectPath
from vpgbend.graphs import Graph
from vpgbend.lowerbound import _contract_same_path_edges, build_auxiliary_fh_fv, classify_sh_sv
from vpgbend.representation import (
    VpgRepresentation,
    _contact_table,
    _hit_walk,
    clique_hit_sequence,
    trim_independent_path,
)


def _outcome(fn, *args):
    """The result of a call, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # the error itself is part of what is compared
        return type(exc), str(exc)


def _graphs(result):
    if isinstance(result, tuple) and len(result) == 4:
        return [(g.vertices, {frozenset(e) for e in g.edges()}) for g in result]
    return result


def _corners(result):
    return result.corners if isinstance(result, RectPath) else result


def _assert_same(rep, clique, indep):
    for b in indep:
        walk = [
            (a, rep.path(a).segments()[idx].orientation, idx, pt)
            for a, pt, idx, _ in clique_hit_sequence(rep, b, clique)
        ]
        assert walk == reference.hit_details(rep, b, clique)
        assert _corners(_outcome(trim_independent_path, rep, b, clique)) == _corners(
            _outcome(reference.trim_independent_path, rep, b, clique)
        )
    assert _outcome(classify_sh_sv, rep, clique, indep) == _outcome(
        reference.classify_sh_sv, rep, clique, indep
    )
    assert _graphs(_outcome(build_auxiliary_fh_fv, rep, clique, indep)) == _graphs(
        _outcome(reference.build_auxiliary_fh_fv, rep, clique, indep)
    )


def _random_case(rep):
    return rep, list(rep.labels())[1:], [0]


@settings(max_examples=400, deadline=None)
@given(representations)
def test_hit_walk_matches_reference_on_small_grids(paths):
    _assert_same(*_random_case(representation(paths)))


@settings(max_examples=100, deadline=None)
@given(representations, scales, shifts)
def test_hit_walk_matches_reference_on_fraction_coordinates(paths, scale, shift):
    _assert_same(*_random_case(representation(paths, lambda c: c * scale + shift)))


@settings(max_examples=200, deadline=None)
@given(representations, st.randoms(use_true_random=False))
def test_overlap_error_names_first_clique_path_in_given_order(paths, rnd):
    rep, clique, indep = _random_case(representation(paths))
    rnd.shuffle(clique)
    assert _corners(_outcome(trim_independent_path, rep, 0, clique)) == _corners(
        _outcome(reference.trim_independent_path, rep, 0, clique)
    )


# clique corners on even coordinates, independent corners also on odd ones:
# a corner with two odd coordinates lies on no clique path, and its ranks
# exist only in a table that covers the walked paths too
_EVEN = st.integers(min_value=0, max_value=5).map(lambda c: 2 * c)
_FINE = st.integers(min_value=0, max_value=11)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(grid_path(_EVEN), min_size=1, max_size=5),
    st.lists(grid_path(_FINE), min_size=2, max_size=3),
    st.sampled_from(["plain", "b in clique_verts", "repeated label"]),
    st.randoms(use_true_random=False),
)
def test_walks_on_one_table_match_reference(clique_paths, indep_paths, variant, rnd):
    assume(any(x % 2 and y % 2 for p in indep_paths for x, y in p))
    rep = representation(clique_paths + indep_paths)
    clique = list(range(len(clique_paths)))
    indep = list(range(len(clique_paths), len(rep)))
    if variant == "b in clique_verts":
        clique.append(rnd.choice(indep))
    elif variant == "repeated label":
        clique.append(rnd.choice(clique))
    rnd.shuffle(clique)
    _assert_same(rep, clique, indep)
    # the representation's table, shared by every walk; each hit's axis is
    # the walk's own, and its walked segment the first of P(b) through it
    table = _contact_table(rep)
    den, xs, ys = table.den, table.xs, table.ys
    axes = {"h": HORIZONTAL, "v": VERTICAL}
    for b in indep:
        walk = []
        for a, (x, y), (axis, owner, idx), _, b_idx in _hit_walk(table, b, clique):
            pt = Point(Fraction(xs[x], den), Fraction(ys[y], den))
            assert owner == a
            assert b_idx == next(i for i, s in enumerate(rep.path(b).segments()) if s.contains(pt))
            walk.append((a, axes[axis], idx, pt))
        assert walk == reference.hit_details(rep, b, clique)


# hits that lie on two segments of a path: "b" is walked against the others,
# and each case gives the segments of "a" that its hits lie on
_CORNER_CASES = {
    # b touches a at a's corner (4, 0), on a's segments 0 and 1, from the right
    "hit at a clique corner": ([0], {
        "b": [(6, 1), (6, 0), (4, 0)], "a": [(0, 0), (4, 0), (4, 4)], "c": [(5, -1), (5, 2)],
    }),
    # b ends at a's corner, coming along a's vertical from below
    "hit at a clique corner from below": ([0], {
        "b": [(2, -2), (4, -2), (4, 0)], "a": [(0, 0), (4, 0), (4, 4)], "c": [(3, -3), (3, -1)],
    }),
    # b turns at a's corner (4, 0), which is b's corner too, so b's segments tie as well
    "hit at a corner of both": ([0], {
        "b": [(4, -2), (4, 0), (6, 0)], "a": [(0, 0), (4, 0), (4, 4)], "c": [(5, -1), (5, 1)],
    }),
    # b runs along a's horizontal up to a's corner, then on past it
    "overlap ending at a clique corner": ([0], {
        "b": [(2, -1), (2, 0), (6, 0)], "a": [(0, 0), (4, 0), (4, 4)], "c": [(5, -1), (5, 1)],
    }),
    # b comes down a's vertical to a's corner, then turns away along y = 0
    "overlap ending at a corner of both": ([1], {
        "b": [(4, 2), (4, 0), (6, 0)], "a": [(0, 0), (4, 0), (4, 4)], "c": [(5, -1), (5, 1)],
    }),
}


@pytest.mark.parametrize("scale", [1, Fraction(2, 3)], ids=["den 1", "den 3"])
@pytest.mark.parametrize("case", list(_CORNER_CASES))
def test_hit_walk_matches_reference_at_corners(case, scale):
    on_a, paths = _CORNER_CASES[case]
    rep = VpgRepresentation(
        {label: RectPath([(x * scale, y * scale) for x, y in c]) for label, c in paths.items()}
    )
    hits = clique_hit_sequence(rep, "b", ["a", "c"])
    assert [idx for a, _, idx, _ in hits if a == "a"] == on_a
    _assert_same(rep, ["a", "c"], ["b"])
    _assert_same(rep, ["c", "a"], ["b"])


@pytest.mark.parametrize("n", range(4, 9))
def test_hit_walk_matches_reference_on_k3n(k3n_reps, n):
    clique = list(range(1, n + 1))
    _assert_same(k3n_reps[n], clique, list(combinations(clique, 3)))


@pytest.mark.parametrize("n", range(3, 7))
def test_hit_walk_matches_reference_on_k2n(n):
    clique = list(range(1, n + 1))
    _assert_same(construct_k2n_proper(n), clique, list(combinations(clique, 2)))


# F_h/F_v vertices on few clique paths, in a random order, so that same-path
# edges chain and a later union re-roots an earlier one
_SEGMENT_VERTICES = st.lists(
    st.tuples(st.just("h"), st.integers(0, 2), st.integers(0, 3)),
    min_size=1,
    max_size=10,
    unique=True,
)


@st.composite
def _segment_graphs(draw):
    vertices = draw(_SEGMENT_VERTICES)
    pairs = list(combinations(vertices, 2))
    return Graph(vertices, draw(st.lists(st.sampled_from(pairs), max_size=15)) if pairs else ())


def _contracted(contract, g):
    out = contract(g)
    return out.vertices, out.edges()


@settings(max_examples=300, deadline=None)
@given(_segment_graphs())
def test_contraction_matches_reference(g):
    assert _contracted(_contract_same_path_edges, g) == _contracted(
        reference._contract_same_path_edges, g
    )


def test_contraction_keeps_the_reroot():
    # (a,c) roots c at a, then (b,c) roots a at b: one vertex, b
    a, b, c = ("h", 0, 0), ("h", 0, 1), ("h", 0, 2)
    g = Graph([a, b, c, ("h", 1, 0)], [(a, c), (b, c), (c, ("h", 1, 0))])
    assert _contracted(_contract_same_path_edges, g) == ((b, ("h", 1, 0)), [(b, ("h", 1, 0))])
    assert _contracted(reference._contract_same_path_edges, g) == _contracted(
        _contract_same_path_edges, g
    )


# the rank cut's edge cases: P(b) is path "b" and every other path is a
# clique path; each case gives the trimmed corners or the error
_CROSSING_U = [(2, 1), (2, -1), (6, -1), (6, 1)]  # crosses y = 0 at x = 2 and 6
_TRIM_CASES = {
    # the leaf trim drops the first hit at x = 2, which recurs at x = 6
    "both survivors on one segment": (
        {"b": [(0, 0), (10, 0), (10, 5)], "a1": _CROSSING_U, "a2": [(4, -1), (4, 1)]},
        ((4, 0), (6, 0)),
    ),
    "start survivor on a corner": (
        {"b": [(0, 0), (4, 0), (4, 4)], "a1": [(6, 0), (4, 0)], "a2": [(3, 2), (5, 2)]},
        ((4, 0), (4, 2)),
    ),
    "end survivor on a corner": (
        {"b": [(0, 0), (4, 0), (4, 4)], "a1": [(2, -1), (2, 1)], "a2": [(4, -2), (4, 0)]},
        ((2, 0), (4, 0)),
    ),
    "survivors on both ends of P(b)": (
        {"b": [(0, 0), (4, 0), (4, 4)], "a1": [(0, -1), (0, 0)], "a2": [(4, 4), (6, 4)]},
        ((0, 0), (4, 0), (4, 4)),
    ),
    "two survivors at one point": (
        {"b": [(0, 0), (10, 0)], "a1": [(3, -1), (3, 1)], "a2": [(3, 0), (3, -2)]},
        (DegenerateTrimError, "trimmed hit sequence of b starts and ends at one point"),
    ),
}


@pytest.mark.parametrize("scale", [1, Fraction(2, 3)], ids=["den 1", "den 3"])
@pytest.mark.parametrize("case", list(_TRIM_CASES))
def test_rank_cut_edge_cases_match_reference(case, scale):
    paths, expected = _TRIM_CASES[case]
    rep = VpgRepresentation(
        {label: RectPath([(x * scale, y * scale) for x, y in c]) for label, c in paths.items()}
    )
    assert rep.path("b")._scaled[0] == scale.denominator
    if not isinstance(expected[0], type):
        expected = tuple(Point(x * scale, y * scale) for x, y in expected)
    clique = [label for label in paths if label != "b"]
    trimmed = _corners(_outcome(trim_independent_path, rep, "b", clique))
    assert trimmed == expected
    assert trimmed == _corners(_outcome(reference.trim_independent_path, rep, "b", clique))


def _rank_exposures(paths):
    """`_exposures` of every segment as `Fraction`s, keyed by (path index,
    orientation): horizontals from below, verticals from the left."""
    table = rank_table(paths)
    den, xs, ys, hs, vs = table.den, table.xs, table.ys, table.hs, table.vs
    out = {}
    for orientation, values, table, other in ((HORIZONTAL, xs, hs, vs), (VERTICAL, ys, vs, hs)):
        for li, intervals in _exposures(table, other).items():
            out[li, orientation] = [tuple(Fraction(values[r], den) for r in iv) for iv in intervals]
    return out


def _reference_exposures(paths):
    out = {}
    for li, path in enumerate(paths):
        for s in path.segments():
            if s.orientation == HORIZONTAL:
                interval = reference.exposed_below_interval(paths, s)
            else:
                interval = reference.exposed_left_interval(paths, s)
            out.setdefault((li, s.orientation), []).append(interval)
    return out


def _transposed(pt):
    return Point(pt.y, pt.x)


def _assert_exposures(paths):
    exposures = _rank_exposures(paths)
    assert exposures == _reference_exposures(paths)
    flipped = _rank_exposures([RectPath([_transposed(c) for c in p.corners]) for p in paths])
    swap = {HORIZONTAL: VERTICAL, VERTICAL: HORIZONTAL}
    assert {(li, swap[o]): ivs for (li, o), ivs in flipped.items()} == exposures

    # cap is the first corner x from lo on whose open downward ray meets a
    # segment other than the target, or the target's right end if none does
    segments = [s for p in paths for s in p.segments()]
    for li, path in enumerate(paths):
        horizontals = [s for s in path.segments() if s.orientation == HORIZONTAL]
        for target, interval in zip(horizontals, exposures.get((li, HORIZONTAL), []), strict=True):

            def ray_hits(x):
                return any(
                    s != target and s.a.y < target.a.y and s.a.x <= x <= s.b.x for s in segments
                )

            xs = sorted({c.x for p in paths for c in p.corners if target.a.x < c.x <= target.b.x})
            first = next((x for x in [target.a.x] + xs if ray_hits(x)), target.b.x)
            assert interval == (target.a.x, first)


@settings(max_examples=300, deadline=None)
@given(representations)
def test_exposure_scan_is_transpose_symmetric_and_matches_rays(paths):
    _assert_exposures(list(representation(paths).assignment.values()))


@settings(max_examples=100, deadline=None)
@given(representations, scales, shifts)
def test_exposures_match_reference_on_fraction_coordinates(paths, scale, shift):
    _assert_exposures(list(representation(paths, lambda c: c * scale + shift).assignment.values()))


@pytest.mark.parametrize("nk", [(5, 3), (6, 3), (6, 4), (7, 4), (8, 4), (9, 4)])
def test_exposures_match_reference_on_staircases(nk):
    rep = construct_gtm_stairs(*nk)
    _assert_exposures([rep.path(i) for i in range(1, nk[0] + 1)])
