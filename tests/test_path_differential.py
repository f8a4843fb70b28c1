"""`RectPath` validation, corner ranking and the representation reader on
common-denominator ints against the `Fraction` forms in `path_reference`.

Corner walks of 2-8 corners on a 5x5 grid mix axis moves, repeated corners
and jumps, so straight continuations, backtracking, diagonals, self-touches,
self-overlaps and closed loops all occur.  Scaled and shifted copies give
mixed denominators, and some walks are passed as `Point`s.  Coordinate
tokens mix the grammar's forms with decimals, exponents, signs, spaces and
non-ASCII digits.  Whole representation files mix both, unreduced fractions,
blank lines, CRLF and repeated labels.
"""

import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import path_reference as reference
import vpgbend.geometry
from rep_strategies import rank_table, representation, representations, scales, shifts
from vpgbend.constructors import construct_gtm_stairs, construct_k3n_proper
from vpgbend.geometry import Point, RectPath, _parse_ratio, rational
from vpgbend.representation import read_representation_text, write_representation_text

GRID = st.integers(min_value=0, max_value=4)


@st.composite
def corner_walks(draw):
    """2-8 corners, each a step from the last: mostly a turn onto the other
    axis, sometimes a step on the same axis (a straight continuation or a
    backtrack), a repeated corner, or a jump (a diagonal unless it shares an
    axis)."""
    x, y = draw(GRID), draw(GRID)
    corners = [(x, y)]
    horizontal = draw(st.booleans())
    for _ in range(draw(st.integers(min_value=1, max_value=7))):
        step = draw(st.sampled_from(("turn", "turn", "turn", "turn", "same", "repeat", "jump")))
        if step == "jump":
            x, y = draw(GRID), draw(GRID)
        elif step != "repeat":
            horizontal = horizontal != (step == "turn")
            if horizontal:
                x = draw(GRID.filter(lambda c, x=x: c != x))
            else:
                y = draw(GRID.filter(lambda c, y=y: c != y))
        corners.append((x, y))
    return corners


def _outcome(build, arg):
    """(scaled ints, corners, segments) of a built path, any other result as
    it is, or the error's type and message."""
    try:
        result = build(arg)
    except Exception as exc:  # the error itself is part of what is compared
        return type(exc), str(exc)
    if isinstance(result, RectPath):
        return result._scaled, result.corners, result.segments()
    return result


@settings(max_examples=500, deadline=None)
@given(corner_walks(), scales, scales, shifts, shifts, st.booleans())
@example([(0, 0), (2, 0), (2, 2), (0, 2), (0, 0)], 1, 1, 0, 0, False)  # closed loop
@example([(0, 1), (3, 1), (3, 0), (1, 0), (1, 2)], 1, 1, 0, 0, False)  # self-crossing
# the smallest non-simple paths have four segments, and RectPath sweeps only
# those: each of these three is rejected, and the U and Z of three are kept
@example([(0, 0), (2, 0), (2, 1), (1, 1), (1, -1)], 1, 1, 0, 0, False)  # crosses itself
@example([(0, 0), (2, 0), (2, 1), (1, 1), (1, 0)], 1, 1, 0, 0, False)  # self-touch
@example([(0, 0), (2, 0), (2, 1), (0, 1), (0, 0)], 1, 1, 0, 0, False)  # closes on its start
@example([(0, 0), (2, 0), (2, 1), (0, 1)], 1, 1, 0, 0, False)  # U
@example([(0, 0), (2, 0), (2, 1), (4, 1)], 1, 1, 0, 0, False)  # Z
@example([(0, 0), (3, 0), (3, 1), (1, 1), (1, 0), (2, 0)], 1, 1, 0, 0, True)  # overlap
@example([(0, 0), (1, 0), (1, 0), (3, 0), (3, 2), (3, 4)], 1, 1, 0, 0, True)  # merges
@example([(0, 0), (3, 0), (1, 0), (1, 2)], 1, 1, 0, 0, False)  # backtracking
# five segments with monotone corner x's, or y's, are kept unswept; a
# self-crossing path of five is monotone on neither axis and is still swept
@example([(0, 0), (1, 0), (1, 2), (2, 2), (2, 1), (3, 1)], 1, 1, 0, 0, False)  # x-monotone
@example([(0, 0), (0, 1), (2, 1), (2, 2), (1, 2), (1, 3)], 1, 1, 0, 0, True)  # y-monotone
@example([(0, 1), (3, 1), (3, 2), (1, 2), (1, 0), (2, 0)], 1, 1, 0, 0, False)  # crosses itself
# the build checks axes in its merging pass: a backtrack found before a
# diagonal is raised only if no diagonal follows, a corner repeated after a
# straight continuation repeats the moved corner, and merged-away corners can
# leave a factor common to den and every int, which is divided out
@example([(0, 0), (3, 0), (1, 0), (2, 2)], 1, 1, 0, 0, False)  # diagonal move (1,0) -> (2,2)
@example([(0, 0), (1, 0), (2, 0), (2, 0), (2, 1)], 1, 1, 0, 0, False)  # repeat after merge
@example([(0, 0), (0, 1), (0, 2), (0, 2), (2, 2)], 1, 1, 0, 0, True)  # the same, vertical
@example([(0, 0), (1, 0), (4, 0)], Fraction(1, 2), 1, 0, 0, False)  # (1, 0, 0, 2, 0)
def test_path_validation_matches_reference(walk, sx, sy, dx, dy, as_points):
    corners = [(x * sx + dx, y * sy + dy) for x, y in walk]
    if as_points:
        corners = [Point(x, y) for x, y in corners]
    assert _outcome(RectPath, corners) == _outcome(reference.validated, corners)


def _assert_same_ranks(paths):
    # the ranking hands out ints over den; as Fractions they are the
    # reference's sorted distinct coordinates
    xs, ys, ranked = reference.ranked_corners(paths)
    table = rank_table(paths)
    den, x_ints, y_ints = table.den, table.xs, table.ys
    assert all(type(v) is int for v in (den, *x_ints, *y_ints))
    assert ([Fraction(x, den) for x in x_ints], [Fraction(y, den) for y in y_ints]) == (xs, ys)
    assert list(table.ranked.values()) == ranked


@settings(max_examples=300, deadline=None)
@given(representations, scales, shifts)
def test_ranks_match_reference(paths, scale, shift):
    _assert_same_ranks(list(representation(paths, lambda c: c * scale + shift).assignment.values()))


@pytest.mark.parametrize("n", [4, 7, 10])
def test_ranks_match_reference_on_k3n(k3n_reps, n):
    _assert_same_ranks(list(k3n_reps[n].assignment.values()))


def _counting_sweeps(monkeypatch) -> list:
    """Record each call of the simplicity sweep `RectPath` runs."""
    calls = []
    real = vpgbend.geometry._crossing_contacts

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(vpgbend.geometry, "_crossing_contacts", counted)
    return calls


@pytest.mark.parametrize("corners, sweeps", [
    ([(0, 0), (1, 0), (1, 2), (2, 2), (2, 1), (3, 1)], 0),  # x-monotone
    ([(0, 0), (0, 1), (2, 1), (2, 2), (1, 2), (1, 3)], 0),  # y-monotone
    ([(0, 0), (3, 0), (3, 3), (1, 3), (1, 1), (2, 1)], 1),  # neither: a simple spiral
], ids=["x", "y", "neither"])
def test_only_paths_monotone_on_neither_axis_are_swept(monkeypatch, corners, sweeps):
    calls = _counting_sweeps(monkeypatch)
    RectPath(corners)
    assert len(calls) == sweeps


@pytest.mark.parametrize("build, sweeps", [
    (lambda: construct_gtm_stairs(8, 4), 0),  # every staircase is monotone on both axes
    (lambda: construct_k3n_proper(12), 3),  # 9 of the 12 long clique paths are monotone
], ids=["gtm84", "k3n12"])
def test_reading_sweeps_only_paths_monotone_on_neither_axis(monkeypatch, build, sweeps):
    text = write_representation_text(build())
    calls = _counting_sweeps(monkeypatch)
    read_representation_text(text)
    assert len(calls) == sweeps


def test_building_paths_tests_no_fraction_segment_pairs(monkeypatch):
    # simplicity is decided by the int contact sweep, not pair by pair
    calls = []
    real = vpgbend.geometry.segment_intersection

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(vpgbend.geometry, "segment_intersection", counted)
    text = write_representation_text(construct_k3n_proper(6))
    read_representation_text(text)
    assert calls == []


DIGITS = st.text("0123456789", min_size=1, max_size=5)
coordinate_tokens = st.one_of(
    st.builds(lambda sign, num, den: sign + num + (den and "/" + den),
              st.sampled_from(("", "-")), DIGITS, st.sampled_from(("", "0", "00")) | DIGITS),
    st.text(st.sampled_from("0123456789-/+._eE ()\n\u0661\u00b2"), max_size=7),
    st.text(max_size=4),
)


@settings(max_examples=1000, deadline=None)
@given(coordinate_tokens)
@example("1e-9999999999")
@example("1e400000000")
@example("9" * 5000)  # over int()'s digit limit where the interpreter has one
@example("-0/7")
def test_coordinate_parser_matches_reference(tok):
    expected = _outcome(reference.parsed_ratio, tok)
    assert _outcome(_parse_ratio, tok) == expected
    assert _outcome(lambda t: rational(t).as_integer_ratio(), tok) == expected


def _coordinate_text(v: int, den: int, factor: int) -> str:
    """v/den, written with numerator and denominator times `factor`."""
    return str(v * factor) if den * factor == 1 else f"{v * factor}/{den * factor}"


@st.composite
def representation_files(draw):
    """0-4 lines mixing labelled corner walks over a common denominator,
    each coordinate written reduced or unreduced (`2/4`), labelled pairs of
    `coordinate_tokens`, blank and bad lines, and repeated labels, joined by
    LF or CRLF."""
    lines = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        kind = draw(st.sampled_from(("walk", "walk", "walk", "tokens", "blank")))
        if kind == "blank":
            lines.append(draw(st.sampled_from(("", "  ", "", "no separator"))))
            continue
        if kind == "walk":
            den = draw(st.integers(min_value=1, max_value=4))
            factors = st.integers(min_value=1, max_value=3)
            toks = [f"({_coordinate_text(x - 2, den, draw(factors))},"
                    f"{_coordinate_text(y - 2, den, draw(factors))})"
                    for x, y in draw(corner_walks())]
        else:
            toks = [f"({draw(coordinate_tokens)},{draw(coordinate_tokens)})"
                    for _ in range(draw(st.integers(min_value=1, max_value=3)))]
        lines.append(draw(st.sampled_from(("a", "b", " a "))) + " : " + " ".join(toks))
    sep = draw(st.sampled_from(("\n", "\r\n")))
    return sep.join(lines) + draw(st.sampled_from(("", sep)))


def _read_scaled(text):
    rep = read_representation_text(text)
    return [(label, path._scaled) for label, path in rep.assignment.items()]


@settings(max_examples=500, deadline=None)
@given(representation_files())
@example("a : (1/0,2) (0,0)")
@example("a : (0,0) (1,2/0)")
@example("a : (0.5,1) (0,1)")
@example("a : (0,0) (1,2")
@example("a : (1,2,3) (0,0)")
@example("a : (,) (0,0)")
@example("a : (+1,2) (0,2)")
@example("a : (" + "9" * 5000 + ",0) (0,0)")  # over int()'s digit limit where there is one
@example("a : (0,0) (1,0)\r\n\r\na : (0,0) (1,2,3)")  # the token's error, not the duplicate
@example("a : (2/4,0) (3/3,2/4)")  # names (1/2,0) -> (1,1/2)
# a line is split at its corner tokens once: only whitespace may lie around
# them, and each coordinate keeps its own denominator
@example("a : (0,0)(1,0)")  # bad corner token '(0,0)(1,0)'
@example("a : (0,0)\t(1,0)")
@example("a : (0,0)\u00a0(1,0)")  # str.split splits at a no-break space too
@example("a : x(0,0) (1,0)")
@example("a : (0,0) x (1,0)")
@example("a : (0,0) (1,0)x")
@example("a : (1/2,0) (3,0)")  # (2, 1, 0, 6, 0)
@example("a : (0,0) (1,0)\nb : (0,0) (1/0,0)")  # a zero denominator on a later line
def test_reader_matches_reference(text):
    assert _outcome(_read_scaled, text) == _outcome(reference.read_representation_text, text)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit")
def test_coordinate_over_the_digit_limit_is_rejected():
    tok = "7" * (sys.get_int_max_str_digits() + 1)
    with pytest.raises(vpgbend.geometry.GeometryError, match="not an exact coordinate"):
        _parse_ratio(tok)


@settings(max_examples=300, deadline=None)
@given(representations, scales, shifts)
def test_text_round_trip_and_points_match_the_reader(paths, scale, shift):
    rep = representation(paths, lambda c: c * scale + shift)
    text = write_representation_text(rep)
    read = read_representation_text(text)
    assert write_representation_text(read) == text
    for label, path in rep.assignment.items():
        from_text, from_points = read.path(str(label)), RectPath(path.corners)
        assert from_text == path == from_points and hash(from_text) == hash(from_points)
        assert from_text.corners == from_points.corners


@pytest.mark.parametrize("build", [lambda: construct_k3n_proper(7), lambda: construct_gtm_stairs(6, 3)])
def test_text_round_trip_on_constructions(build):
    rep = build()
    text = write_representation_text(rep)
    assert write_representation_text(read_representation_text(text)) == text
    assert [str(c) for p in rep.assignment.values() for c in p.corners] == [
        tok for ln in text.splitlines() for tok in ln.split(" : ")[1].split()
    ]
