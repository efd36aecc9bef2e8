"""Semigroup arithmetic against brute force and pinned invariants."""

from __future__ import annotations

import pytest

from curvetorsion import (NumericalSemigroup, SemigroupError, apery_set, blowup,
                          colength, enumerate_by_genus, from_generators)
from oracles import count_gap_sets, naive_members

# (generators) -> (gaps, frobenius, conductor, multiplicity, embdim, symmetric)
INVARIANTS = {
    (2, 3): ((1,), 1, 2, 2, 2, True),
    (3, 4, 5): ((1, 2), 2, 3, 3, 3, False),
    (4, 5): ((1, 2, 3, 6, 7, 11), 11, 12, 4, 2, True),
    (4, 6, 7): ((1, 2, 3, 5, 9), 9, 10, 4, 3, True),
    (4, 5, 6, 7): ((1, 2, 3), 3, 4, 4, 4, False),
    (3, 5, 7): ((1, 2, 4), 4, 5, 3, 3, False),
    (5, 7, 9, 11, 13): ((1, 2, 3, 4, 6, 8), 8, 9, 5, 5, False),
    (2, 9): ((1, 3, 5, 7), 7, 8, 2, 2, True),
}

GENUS_COUNTS = (1, 1, 2, 4, 7, 12, 23, 39, 67)


@pytest.mark.parametrize("gens", sorted(INVARIANTS))
def test_pinned_invariants(gens):
    S = from_generators(gens)
    gaps, frob, cond, mult, embdim, sym = INVARIANTS[gens]
    assert S.min_generators == gens
    assert S.gaps == gaps
    assert S.genus == len(gaps)
    assert S.frobenius == frob
    assert S.conductor == cond
    assert S.multiplicity == mult
    assert S.embdim == embdim
    assert S.is_symmetric is sym


@pytest.mark.parametrize("gens", sorted(INVARIANTS))
def test_membership_matches_brute_force(gens):
    S = from_generators(gens)
    bound = S.conductor + 2 * max(gens)
    expected = naive_members(gens, bound)
    assert set(S.members(bound)) == expected
    for v in range(bound + 1):
        assert S.contains(v) == (v in expected)
    assert S.contains(bound + 1)  # bound is past the conductor


def test_members_bound_is_inclusive():
    S = from_generators((4, 6, 7))
    assert S.members(6) == [0, 4, 6]
    assert S.members(7) == [0, 4, 6, 7]
    assert S.members(-1) == []


def test_contains_rejects_negatives():
    S = from_generators((2, 3))
    assert not S.contains(-1)
    assert 2 in S and 1 not in S


def test_minimalization_drops_redundant_generators():
    assert from_generators((4, 6, 7, 10, 11)).min_generators == (4, 6, 7)
    assert from_generators((6, 9, 20)).min_generators == (6, 9, 20)
    assert from_generators((3, 3, 4, 5)).min_generators == (3, 4, 5)
    assert from_generators((1, 5)).min_generators == (1,)


def test_invalid_generators_raise():
    with pytest.raises(SemigroupError):
        from_generators((2, 4))
    with pytest.raises(SemigroupError, match="gcd 3"):
        from_generators((3, 6, 9))
    with pytest.raises(SemigroupError):
        from_generators(())
    with pytest.raises(SemigroupError):
        from_generators((0, 3))
    with pytest.raises(SemigroupError):
        from_generators((-2, 3))


def test_apery_sets():
    assert apery_set(from_generators((4, 6, 7)), 4) == [0, 13, 6, 7]
    assert apery_set(from_generators((3, 4, 5)), 3) == [0, 4, 5]
    assert apery_set(from_generators((1,)), 1) == [0]


def test_apery_set_properties():
    S = from_generators((5, 7, 9, 11, 13))
    q = S.multiplicity
    ap = apery_set(S, q)
    assert len(ap) == q and ap[0] == 0
    for r, w in enumerate(ap):
        assert w % q == r
        assert S.contains(w) and not S.contains(w - q)
    # classical identities recovered from the apery set
    assert S.frobenius == max(ap) - q
    assert 2 * q * S.genus == 2 * sum(ap) - q * (q - 1)


def test_apery_invalid_modulus():
    S = from_generators((4, 6, 7))
    with pytest.raises(SemigroupError):
        apery_set(S, 5)
    with pytest.raises(SemigroupError):
        apery_set(S, 0)
    with pytest.raises(SemigroupError):
        apery_set(S, -4)


def test_symmetry_matches_frobenius_criterion():
    for S in enumerate_by_genus(6):
        assert S.is_symmetric == (S.frobenius == 2 * S.genus - 1)


BLOWUPS = {
    (2, 3): ((1,), (2, 1), 1),
    (3, 4, 5): ((1,), (3, 1, 2), 2),
    (4, 5): ((1,), (4, 1), 6),
    (4, 6, 7): ((2, 3), (4, 2, 3), 4),
    (4, 5, 6, 7): ((1,), (4, 1, 2, 3), 3),
    (6, 9, 20): ((3, 14), (6, 3, 14), 9),
}


@pytest.mark.parametrize("gens", sorted(BLOWUPS))
def test_blowup_pinned(gens):
    result = blowup(from_generators(gens))
    transformed, tup, away = BLOWUPS[gens]
    assert result.transformed.min_generators == transformed
    assert result.generator_tuple == tup
    assert result.colength == away


def test_blowup_of_regular_curve_is_identity():
    N = from_generators((1,))
    result = blowup(N)
    assert result.transformed == N
    assert result.generator_tuple == (1,)
    assert result.colength == 0


def test_blowup_chain_terminates():
    S = from_generators((6, 9, 20))
    seen = []
    while S.embdim > 1:
        seen.append(S.min_generators)
        S = blowup(S).transformed
    assert S.min_generators == (1,)
    assert len(seen) <= 22  # one step per removed gap at most


def test_colength():
    S = from_generators((4, 6, 7))
    T = blowup(S).transformed
    assert colength(S, T) == 4
    assert colength(S, S) == 0
    with pytest.raises(SemigroupError):
        colength(T, S)


def test_enumeration_counts():
    counts = {}
    for S in enumerate_by_genus(8):
        counts[S.genus] = counts.get(S.genus, 0) + 1
    assert tuple(counts[g] for g in range(9)) == GENUS_COUNTS


def test_enumeration_matches_gap_set_brute_force():
    counts = {}
    for S in enumerate_by_genus(4):
        counts[S.genus] = counts.get(S.genus, 0) + 1
    for g in range(5):
        assert counts[g] == count_gap_sets(g)


def test_enumeration_order_is_deterministic():
    first = [S.min_generators for S in enumerate_by_genus(5)]
    second = [S.min_generators for S in enumerate_by_genus(5)]
    assert first == second
    assert first[:8] == [(1,), (2, 3), (2, 5), (3, 4, 5), (2, 7), (3, 4),
                         (3, 5, 7), (4, 5, 6, 7)]
    assert len(set(first)) == len(first)


def test_enumeration_rejects_negative_bound():
    with pytest.raises(SemigroupError):
        list(enumerate_by_genus(-1))


def test_equality_and_hashing():
    a = from_generators((4, 6, 7))
    b = from_generators((7, 6, 4, 10))
    assert a == b and hash(a) == hash(b)
    assert a != from_generators((4, 5))
    assert a != (4, 6, 7)
    assert len({a, b, from_generators((4, 5))}) == 2


def test_string_forms():
    S = from_generators((4, 6, 7))
    assert str(S) == "<4,6,7>"
    assert repr(S) == "NumericalSemigroup(4, 6, 7)"
    assert isinstance(S, NumericalSemigroup)
