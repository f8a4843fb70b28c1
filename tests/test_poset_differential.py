"""The mask order core of `vpgbend.posets` against the set-based reference in
`tests/poset_reference.py`: the same closure from `make_poset`, the same
verdicts from `Poset`'s checks, and the same dimension.

The reference search assigns every ordered incomparable pair, critical pairs
first; the mask search assigns critical pairs only.  They agree on every
dimension, but their realizers may differ, so each realizer is checked with
`is_realizer` rather than compared.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import poset_reference as ref
from vpgbend.errors import ValidationError
from vpgbend.posets import (
    Poset,
    brute_force_dimension,
    build_p_rsn,
    find_realizer,
    is_realizer,
    make_poset,
)


@st.composite
def posets(draw, max_size=8):
    """Posets on at most `max_size` elements: relations that point forward in
    a drawn permutation of the ground, so that none closes a cycle."""
    n = draw(st.integers(0, max_size))
    perm = draw(st.permutations(range(n)))
    rels = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))) if n else set()
    return make_poset(range(n), [(perm[i], perm[j]) for i, j in rels if i < j])


def check_dimension(p, max_dim=4):
    dim = brute_force_dimension(p, max_dim)
    assert dim == ref.search_dimension(p, max_dim)
    for t in range(1, max_dim + 1):
        realizer = find_realizer(p, t)
        assert (realizer is not None) == (dim is not None and t >= dim)
        if realizer is not None:
            assert len(realizer.orders) == t and is_realizer(p, realizer)


@settings(max_examples=300, deadline=None)
@given(posets())
@example(Poset(tuple(range(8)), frozenset()))
def test_dimension_matches_reference(p):
    check_dimension(p)


@pytest.mark.parametrize("r,s,n", [(1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5), (2, 3, 4)])
def test_dimension_matches_reference_on_containment_posets(r, s, n):
    check_dimension(build_p_rsn(r, s, n))


def outcome(build, *args):
    try:
        return build(*args)
    except ValidationError as exc:
        return ValidationError, str(exc)


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n + 1), st.integers(0, n + 1)), max_size=12))))
@example((3, [(0, 1), (1, 2), (2, 0)]))
@example((3, [(0, 4)]))
@example((3, [(1, 1)]))
def test_make_poset_matches_reference_closure(case):
    # elements n and n + 1 are outside the ground, and relations may close cycles
    n, rels = case
    new, old = outcome(make_poset, range(n), rels), outcome(ref.make_poset, range(n), rels)
    if isinstance(old, Poset):
        assert isinstance(new, Poset) and new.less == old.less and new.ground == old.ground
    else:
        assert new[0] is ValidationError


def upto_last_element(message):
    return message.rpartition("<")[0] or message


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.frozensets(st.tuples(st.integers(0, n), st.integers(0, n)), max_size=14))))
@example((3, frozenset({(0, 1), (1, 2)})))
@example((4, frozenset({(0, 1), (1, 2), (1, 3), (0, 3)})))
def test_poset_checks_match_reference(case):
    # element n is outside the ground; the transitivity message may name
    # another missing w, so it is compared up to its last element
    n, less = case
    new = outcome(Poset, tuple(range(n)), less)
    old = outcome(lambda: ref.validate(tuple(range(n)), less))
    if old is None:
        assert isinstance(new, Poset)
    else:
        assert new[0] is ValidationError
        assert upto_last_element(new[1]) == upto_last_element(old[1])
