from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings

import hit_reference
import pairwise_reference as reference
import vpgbend.representation as representation_module
from rep_strategies import representation, representations, scales, shifts
from vpgbend.constructors import (construct_gtm_stairs, construct_k2n_proper, construct_k3n_proper,
                                  construct_split_upper)
from vpgbend.errors import DegenerateTrimError, DomainError, ValidationError
from vpgbend.geometry import Point, RectPath, bend_count, rational
from vpgbend.graphs import Graph, all_qedges, build_hnk_member, build_split_knk, label_str
from vpgbend.lowerbound import (
    build_auxiliary_fh_fv,
    certificate_candidates,
    classify_sh_sv,
    enumerate_good_sets,
    induced_grid,
    strip_small_sets,
)
from vpgbend.representation import (
    PropernessReport,
    VpgRepresentation,
    clique_hit_sequence,
    intersection_graph,
    is_proper,
    max_bends,
    read_representation_text,
    trim_independent_path,
    verify_realizes,
    write_representation_text,
)


def P(x, y):
    return Point(rational(x), rational(y))


def test_intersection_graph_crossing_pair():
    rep = VpgRepresentation(
        {"u": RectPath([(0, 0), (2, 0)]), "v": RectPath([(1, -1), (1, 1)])}
    )
    g = intersection_graph(rep)
    assert g.has_edge("u", "v") and g.edge_count() == 1


def test_intersection_graph_disjoint_triple():
    rep = VpgRepresentation(
        {
            "a": RectPath([(0, 0), (1, 0)]),
            "b": RectPath([(0, 2), (1, 2)]),
            "c": RectPath([(0, 4), (1, 4)]),
        }
    )
    assert intersection_graph(rep).edge_count() == 0


def test_verify_realizes_round_trip():
    rep = VpgRepresentation(
        {
            "a": RectPath([(0, 0), (4, 0)]),
            "b": RectPath([(1, -1), (1, 1)]),
            "c": RectPath([(0, 5), (1, 5)]),
        }
    )
    assert verify_realizes(rep, intersection_graph(rep)).ok


def test_verify_realizes_reports_missing_edge():
    rep = VpgRepresentation(
        {"a": RectPath([(0, 0), (1, 0)]), "b": RectPath([(0, 2), (1, 2)])}
    )
    g = Graph(["a", "b"], [("a", "b")])
    report = verify_realizes(rep, g)
    assert not report.ok
    assert report.missing_edges == (("a", "b"),)
    assert report.spurious_edges == ()


def test_verify_realizes_overlap_counts_as_edge():
    rep = VpgRepresentation(
        {"a": RectPath([(0, 0), (2, 0)]), "b": RectPath([(1, 0), (3, 0)])}
    )
    g = Graph(["a", "b"], [("a", "b")])
    assert verify_realizes(rep, g).ok


def test_verify_realizes_label_mismatch():
    rep = VpgRepresentation({"a": RectPath([(0, 0), (1, 0)])})
    with pytest.raises(DomainError):
        verify_realizes(rep, Graph(["b"]))


def test_representation_assigns_only_rect_paths():
    with pytest.raises(ValidationError, match="vertex 'a' is not assigned a RectPath"):
        VpgRepresentation({"a": [(0, 0), (1, 0)]})


def test_is_proper_on_crossing_pair():
    rep = VpgRepresentation(
        {"u": RectPath([(0, 0), (2, 0)]), "v": RectPath([(1, -1), (1, 1)])}
    )
    assert is_proper(rep).ok


def test_is_proper_rejects_overlap():
    rep = VpgRepresentation(
        {"a": RectPath([(0, 0), (2, 0)]), "b": RectPath([(1, 0), (3, 0)])}
    )
    report = is_proper(rep)
    assert not report.ok
    assert any("overlap" in v for v in report.violations)


def test_reports_are_true_iff_ok():
    crossing = VpgRepresentation(
        {"a": RectPath([(0, 0), (2, 0)]), "b": RectPath([(1, -1), (1, 1)])}
    )
    overlapping = VpgRepresentation(
        {"a": RectPath([(0, 0), (2, 0)]), "b": RectPath([(1, 0), (3, 0)])}
    )
    edge, no_edge = Graph(["a", "b"], [("a", "b")]), Graph(["a", "b"])
    assert verify_realizes(crossing, edge) and not verify_realizes(crossing, no_edge)
    assert is_proper(crossing) and not is_proper(overlapping)


def test_is_proper_rejects_triple_point():
    rep = VpgRepresentation(
        {
            "a": RectPath([(-1, 0), (1, 0)]),
            "b": RectPath([(0, -1), (0, 1)]),
            "c": RectPath([(-1, -1), (0, -1), (0, 0), (1, 0), (1, 1)]),
        }
    )
    report = is_proper(rep)
    assert not report.ok


def test_is_proper_rejects_t_touch():
    rep = VpgRepresentation(
        {"a": RectPath([(0, 0), (2, 0)]), "b": RectPath([(1, 1), (1, 0)])}
    )
    report = is_proper(rep)
    assert not report.ok
    assert any("non-crossing" in v for v in report.violations)


def _proper_report(paths):
    rep = VpgRepresentation({l: RectPath(corners) for l, corners in paths.items()})
    report = is_proper(rep)
    assert report == reference.is_proper(rep)
    return report.violations


# `is_proper` examines a point one by one only when it has a non-crossing
# touch or lies on two or more pairs; these cases reach that loop


def test_is_proper_crossing_point_with_two_touches_in_overlaps():
    # a and b cross at the origin; c turns there, so it overlaps both and
    # touches each of them at the origin inside that overlap
    violations = _proper_report(
        {"a": [(-2, 0), (2, 0)], "b": [(0, -2), (0, 2)], "c": [(0, 1), (0, 0), (1, 0)]}
    )
    assert violations == (
        "overlap between a and c along [(0,0)-(1,0)]",
        "overlap between b and c along [(0,0)-(0,1)]",
    )


def test_is_proper_crossing_point_with_a_touch_on_three_paths():
    violations = _proper_report(
        {"a": [(-2, 0), (2, 0)], "b": [(0, -2), (0, 2)], "c": [(0, 0), (0, 1)]}
    )
    assert violations == (
        "non-crossing touch of a and c at (0,0)",
        "overlap between b and c along [(0,0)-(0,1)]",
        "point (0,0) lies on 3 paths (a,b,c)",
    )


@pytest.mark.parametrize("paths, violations", [
    # b and c overlap on a vertical line, and a crosses both at the origin
    ({"a": [(-2, 0), (2, 0)], "b": [(0, -2), (0, 2)], "c": [(0, -1), (0, 1)]},
     ("overlap between b and c along [(0,-1)-(0,1)]", "point (0,0) lies on 3 paths (a,b,c)")),
    # b crosses a and c at (3,1), inside the overlap of a and c
    ({"a": [(0, 1), (4, 1)], "b": [(3, 0), (3, 2)], "c": [(2, 1), (6, 1)]},
     ("overlap between a and c along [(2,1)-(4,1)]", "point (3,1) lies on 3 paths (a,b,c)")),
], ids=["vertical", "horizontal"])
def test_is_proper_two_crossings_at_one_point(paths, violations):
    # the third path meets the crossing point through an overlap only, so the
    # table has no touch and the crossings are screened to find the point
    assert _proper_report(paths) == violations
    rep = VpgRepresentation({l: RectPath(corners) for l, corners in paths.items()})
    assert not representation_module._contact_table(rep).touches


def test_is_proper_touch_only_point_of_one_pair():
    violations = _proper_report({"a": [(0, 0), (2, 0)], "b": [(1, 1), (1, 0)]})
    assert violations == ("non-crossing touch of a and b at (1,0)",)


def test_is_proper_skips_a_touch_inside_the_pairs_overlap():
    # a's vertical ends on b's horizontal at (2,0), the end of their overlap
    violations = _proper_report({"a": [(0, 0), (2, 0), (2, 1)], "b": [(1, 0), (3, 0)]})
    assert violations == ("overlap between a and b along [(1,0)-(2,0)]",)


def test_is_proper_examines_no_point_of_a_proper_representation(monkeypatch):
    paths = {
        "a": [(0, 0), (4, 0)],
        "b": [(1, -1), (1, 2)],
        "c": [(3, -1), (3, 2), (5, 2)],
        "d": [(0, 1), (6, 1)],
    }
    assert _proper_report(paths) == ()

    # every crossing point lies on one pair, so none is built as a Point
    def no_point(*args):
        raise AssertionError("a point was examined")

    rep = VpgRepresentation({l: RectPath(corners) for l, corners in paths.items()})
    monkeypatch.setattr(representation_module, "Point", no_point)
    assert is_proper(rep).ok


class _Unread:
    def __init__(self, what="crossings"):
        self.what = what

    def __iter__(self):
        raise AssertionError(f"the {self.what} were read")


@pytest.mark.parametrize("build", [lambda: construct_k3n_proper(12),
                                   lambda: construct_gtm_stairs(8, 4)], ids=["k3n12", "gtm84"])
def test_is_proper_reads_no_crossing_without_overlaps_or_touches(build):
    # a table with no overlap and no touch is proper without a look at its
    # crossings, so a stand-in that fails when iterated is never read
    rep = build()
    table = representation_module._contact_table(rep)
    assert table.crossings and not table.overlaps and not table.touches
    table.crossings = _Unread()
    assert is_proper(rep) == PropernessReport(ok=True, violations=())


def _toggled(g, u, v):
    """`g` with the edge uv removed if present, else added."""
    edges = [e for e in g.edges() if set(e) != {u, v}]
    return Graph(g.vertices, edges if g.has_edge(u, v) else edges + [(u, v)])


def _with_one_edge_toggled(g):
    """`g`, `g` without its first edge, and `g` with its first non-edge
    added, then that edge and that non-edge."""
    edge = g.edges()[0]
    non_edge = next(p for p in combinations(g.vertices, 2) if not g.has_edge(*p))
    return [g, _toggled(g, *edge), _toggled(g, *non_edge)], edge, non_edge


realized_families = pytest.mark.parametrize("build", [
    lambda: (construct_k3n_proper(12), build_split_knk(12, 3)[0]),
    lambda: (construct_gtm_stairs(8, 4), build_hnk_member(8, 4, all_qedges(8, 4))),
], ids=["k3n12", "gtm84"])


@realized_families
def test_realization_reads_only_the_met_pairs(build):
    # verify_realizes and intersection_graph read the table's set of met
    # pairs alone, so stand-ins for its point contacts that fail when
    # iterated are never read
    rep, g = build()
    graphs, _, _ = _with_one_edge_toggled(g)
    reports = [verify_realizes(rep, h) for h in graphs]
    assert [r.ok for r in reports] == [True, False, False]
    table = representation_module._contact_table(rep)
    table.crossings, table.touches = _Unread(), _Unread("touches")
    assert [verify_realizes(rep, h) for h in graphs] == reports
    assert intersection_graph(rep) == g


@realized_families
def test_verify_realizes_reads_the_graph_in_its_own_numbering(build):
    # the graph lists its vertices in reverse, so its vertex numbers are not
    # the table's indices, and the report must not change
    rep, g = build()
    graphs, edge, non_edge = _with_one_edge_toggled(g)
    for h in graphs:
        reversed_h = Graph(h.vertices[::-1], h.edges())
        assert reversed_h == h and reversed_h.vertices[0] != rep.labels()[0]
        assert verify_realizes(rep, reversed_h) == verify_realizes(rep, h)
    # the paths of the dropped edge still meet; those of the added one do not
    dropped, added = (verify_realizes(rep, h) for h in graphs[1:])
    edge, non_edge = (tuple(sorted(map(label_str, p))) for p in (edge, non_edge))
    assert (dropped.missing_edges, dropped.spurious_edges) == ((), (edge,))
    assert (added.missing_edges, added.spurious_edges) == ((non_edge,), ())


def test_max_bends():
    rep = VpgRepresentation(
        {"a": RectPath([(0, 0), (1, 0)]), "b": RectPath([(0, 2), (1, 2), (1, 3)])}
    )
    assert max_bends(rep) == 1
    assert max_bends(VpgRepresentation({})) == 0


def _assert_compressed_keeps_realization_properness_and_bends(rep):
    small = rep.compressed()
    assert small.labels() == rep.labels()
    assert verify_realizes(small, intersection_graph(rep)).ok
    assert is_proper(small).ok == is_proper(rep).ok
    assert [bend_count(p) for p in small.assignment.values()] == [
        bend_count(p) for p in rep.assignment.values()
    ]
    # a path with b bends has at most ⌊b/2⌋+2 distinct x and as many y, so
    # the integer corners lie on the grid of side n·(⌊b/2⌋+2)
    for p in small.assignment.values():
        most = bend_count(p) // 2 + 2
        assert len({c.x for c in p.corners}) <= most and len({c.y for c in p.corners}) <= most
    side = len(rep) * (max_bends(rep) // 2 + 2)
    assert all(
        c.x.denominator == c.y.denominator == 1 and 0 <= c.x < side and 0 <= c.y < side
        for p in small.assignment.values()
        for c in p.corners
    )


@settings(max_examples=300, deadline=None)
@given(representations, scales, shifts)
def test_compressed_keeps_realization_properness_and_bends(paths, scale, shift):
    _assert_compressed_keeps_realization_properness_and_bends(
        representation(paths, lambda c: c * scale + shift)
    )


@pytest.mark.parametrize(
    "family, args",
    [
        *(("k3n", n) for n in range(4, 9)),
        *(("k2n", n) for n in range(3, 7)),
        *(("gtm", nk) for nk in [(5, 3), (6, 3), (6, 4), (7, 4)]),
        ("split-upper", (4, 2)),
    ],
    ids=lambda value: str(value).replace(" ", ""),
)
def test_compressed_keeps_constructor_outputs(k3n_reps, gtm_reps, family, args):
    if family == "k3n":
        rep = k3n_reps[args]
    elif family == "gtm":
        rep = gtm_reps[args]
    elif family == "k2n":
        rep = construct_k2n_proper(args)
    else:
        rep = construct_split_upper(*build_split_knk(*args))
    _assert_compressed_keeps_realization_properness_and_bends(rep)


def _comparable(result):
    if isinstance(result, Graph):
        return result.vertices, {frozenset(e) for e in result.edges()}
    return tuple(map(_comparable, result)) if isinstance(result, tuple) else result


def _readings(rep, graph, clique, indep):
    """What every reader of the contact table gives on `rep`, errors included."""

    def outcome(fn, *args):
        try:
            return _comparable(fn(*args))
        except Exception as exc:  # the error itself is part of what is compared
            return type(exc), str(exc)

    out = [
        outcome(intersection_graph, rep),
        outcome(verify_realizes, rep, graph),
        outcome(is_proper, rep),
        outcome(classify_sh_sv, rep, clique, indep),
        outcome(build_auxiliary_fh_fv, rep, clique, indep),
        outcome(enumerate_good_sets, rep, 3),
        outcome(certificate_candidates, rep, 3),
        outcome(induced_grid, rep),
        outcome(strip_small_sets, rep, 3),
        outcome(rep.compressed),
    ]
    for b in indep:
        out.append(outcome(clique_hit_sequence, rep, b, clique))
        out.append(outcome(trim_independent_path, rep, b, clique))
    return out


def test_contact_table_follows_every_change_of_the_assignment():
    rep = construct_k3n_proper(4)
    graph = intersection_graph(rep)
    clique = [1, 2, 3, 4]
    indep = list(combinations(clique, 3))

    def mutations():
        # replace paths: two independent paths swap places
        a, b = rep.assignment[(1, 2, 3)], rep.assignment[(1, 2, 4)]
        rep.assignment[(1, 2, 3)], rep.assignment[(1, 2, 4)] = b, a
        yield
        rep.assignment["extra"] = rep.path(1).translated(Fraction(1, 3), Fraction(1, 7))
        yield
        del rep.assignment[(1, 3, 4)]
        yield

    before = _readings(rep, graph, clique, indep)
    assert before == _readings(VpgRepresentation(rep.assignment), graph, clique, indep)
    for _ in mutations():
        after = _readings(rep, graph, clique, indep)
        assert after == _readings(VpgRepresentation(rep.assignment), graph, clique, indep)
        assert after != before
        before = after


# --- trimming --------------------------------------------------------------------


def _trim_layout():
    # independent path runs along y=0; clique path a crosses twice (a U),
    # c and b once each: hit sequence (a, c, a, b)
    return VpgRepresentation(
        {
            "b*": RectPath([(0, 0), (10, 0)]),
            "a": RectPath([(1, 1), (1, -1), (5, -1), (5, 1)]),
            "c": RectPath([(3, -1), (3, 1)]),
            "b": RectPath([(7, -1), (7, 1)]),
        }
    )


def test_hit_sequence_order():
    rep = _trim_layout()
    seq = [a for a, *_ in clique_hit_sequence(rep, "b*", ["a", "b", "c"])]
    assert seq == ["a", "c", "a", "b"]


def test_trim_removes_recurring_leaf():
    rep = _trim_layout()
    trimmed = trim_independent_path(rep, "b*", ["a", "b", "c"])
    assert trimmed.corners == (P(3, 0), P(7, 0))
    # still meets all three clique paths
    from vpgbend.geometry import path_intersections

    for lbl in ("a", "b", "c"):
        assert path_intersections(trimmed, rep.path(lbl))


def test_trim_distinct_leaves_untouched():
    rep = VpgRepresentation(
        {
            "b*": RectPath([(0, 0), (10, 0)]),
            "a": RectPath([(1, -1), (1, 1)]),
            "b": RectPath([(3, -1), (3, 1)]),
            "c": RectPath([(5, -1), (5, 1)]),
        }
    )
    trimmed = trim_independent_path(rep, "b*", ["a", "b", "c"])
    assert trimmed.corners == (P(1, 0), P(5, 0))


def test_trim_degenerate_flagged():
    rep = VpgRepresentation(
        {
            "b*": RectPath([(0, 0), (10, 0)]),
            "a": RectPath([(1, 1), (1, -1), (5, -1), (5, 1)]),
        }
    )
    with pytest.raises(DegenerateTrimError):
        trim_independent_path(rep, "b*", ["a"])


def test_trim_requires_hits():
    rep = VpgRepresentation(
        {"b*": RectPath([(0, 0), (1, 0)]), "a": RectPath([(5, 5), (6, 5)])}
    )
    with pytest.raises(DomainError):
        trim_independent_path(rep, "b*", ["a"])


@pytest.mark.parametrize("walk", [clique_hit_sequence, trim_independent_path])
def test_walks_name_the_first_unknown_label(walk):
    rep = _trim_layout()
    with pytest.raises(DomainError, match="no path labelled d$"):
        walk(rep, "b*", ["a", "d", "b", "e"])
    # the walked path comes before the clique paths
    with pytest.raises(DomainError, match="no path labelled x$"):
        walk(rep, "x", iter(["a", "d"]))


def test_trim_subpath_is_contiguous_slice():
    rep = VpgRepresentation(
        {
            "b*": RectPath([(0, 0), (4, 0), (4, 4), (8, 4)]),
            "a": RectPath([(1, 1), (1, -1)]),
            "b": RectPath([(3, 1), (3, -1)]),
            "c": RectPath([(5, 3), (5, 5)]),
        }
    )
    full = rep.path("b*")
    trimmed = trim_independent_path(rep, "b*", ["a", "b", "c"])
    assert bend_count(trimmed) <= bend_count(full)
    inner = trimmed.corners[1:-1]
    assert inner == (P(4, 0), P(4, 4))
    start = full.corners.index(inner[0])
    assert full.corners[start : start + len(inner)] == inner


def test_subpath_between_single_segment():
    p = RectPath([(0, 0), (10, 0)])
    sub = hit_reference.subpath_between(p, P(2, 0), P(5, 0))
    assert sub.corners == (P(2, 0), P(5, 0))


def test_subpath_between_spanning_corner():
    p = RectPath([(0, 0), (4, 0), (4, 4)])
    sub = hit_reference.subpath_between(p, P(1, 0), P(4, 2))
    assert sub.corners == (P(1, 0), P(4, 0), P(4, 2))


# --- text format -----------------------------------------------------------------


def test_representation_text_round_trip():
    rep = VpgRepresentation(
        {
            "a": RectPath([("1/2", 0), ("1/2", "3/4"), (2, "3/4")]),
            "b": RectPath([(0, 0), (1, 0)]),
        }
    )
    text = write_representation_text(rep)
    back = read_representation_text(text)
    assert write_representation_text(back) == text
    assert back.path("a").corners == rep.path("a").corners


def test_representation_writer_rejects_labels_with_one_text():
    path = RectPath([(0, 0), (1, 0)])
    for labels in ([1, "1"], [(1, 2), "1,2"]):
        rep = VpgRepresentation({label: path for label in labels})
        with pytest.raises(ValidationError, match="cannot be written to a representation file"):
            write_representation_text(rep)
    # inner whitespace stays readable in this format
    text = write_representation_text(VpgRepresentation({"x y": path, "x  y": path}))
    assert write_representation_text(read_representation_text(text)) == text


def test_representation_text_rejects_malformed():
    with pytest.raises(ValidationError):
        read_representation_text("a (0,0) (1,0)\n")  # missing separator
    with pytest.raises(ValidationError):
        read_representation_text("a : 0,0 1,0\n")  # missing parens
    with pytest.raises(ValidationError):
        read_representation_text("a : (0,0) (1,0)\na : (0,2) (1,2)\n")
