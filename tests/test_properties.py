"""Property suite: randomized cross-checks and corpus-wide invariants.

Runnable on its own (pytest tests/test_properties.py).  Covers the two
standing guarantees: no graded computation ever trips its own cutoff
audit on the corpus, and flipping the tie-breaking rule for relation
representatives changes no reported length anywhere downstream.
"""

from __future__ import annotations

from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvetorsion import (GeneratorTuple, OracleError, Presentation,
                          apery_set, blowup, complementary_module,
                          dedekind_different, enumerate_by_genus,
                          from_generators, full_report, inverse,
                          minimal_presentation, presentation_of,
                          relations_generate, value_set_of)
from curvetorsion.linalg import integer_determinant, integer_rank
from curvetorsion.oracle import _MaskedRanks, _span_values
from curvetorsion.presentation import _joined
from oracles import (bareiss_determinant, bareiss_rank, echelon_extend,
                     fraction_determinant, fraction_rank, joined_positions,
                     naive_conductor, naive_members, reference_inverse,
                     reference_minimal_presentation, reference_span_values,
                     used_positions, value_set, values_up_to)

matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda ncols: st.lists(
        st.lists(st.integers(min_value=-9, max_value=9),
                 min_size=ncols, max_size=ncols),
        min_size=0, max_size=6))

square_matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-9, max_value=9),
                 min_size=n, max_size=n),
        min_size=n, max_size=n))



@st.composite
def row_sequences(draw):
    """Small integer rows, some of them integer combinations of earlier
    ones, so that dependent rows really occur."""
    ncols = draw(st.integers(min_value=1, max_value=5))
    entries = st.integers(min_value=-9, max_value=9)
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        if rows and draw(st.booleans()):
            coeffs = draw(st.lists(st.integers(min_value=-3, max_value=3),
                                   min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * row[j] for c, row in zip(coeffs, rows))
                         for j in range(ncols)])
        else:
            rows.append(draw(st.lists(entries, min_size=ncols,
                                      max_size=ncols)))
    return rows


generator_sets = st.lists(st.integers(min_value=2, max_value=24),
                          min_size=2, max_size=4, unique=True)


def _coprime(gens):
    g = 0
    for v in gens:
        g = gcd(g, v)
    return g == 1


def _normalize(gens):
    # consecutive integers are coprime, so one extension always suffices
    if not _coprime(gens):
        gens = gens + [max(gens) + 1]
    return gens


@given(matrices)
def test_rank_agrees_with_fraction_elimination(matrix):
    assert integer_rank(matrix) == fraction_rank(matrix)
    assert integer_rank(matrix) == bareiss_rank(matrix)


@given(matrices, st.integers(min_value=0, max_value=31),
       st.integers(min_value=0, max_value=63))
def test_slot_rank_is_the_rank_of_the_restricted_matrix(matrix, valid, mask):
    # rows whose invalid slots are zero: the masked rank at full width
    # must be the rank of the masked rows restricted to the valid columns
    ncols = len(matrix[0]) if matrix else 5
    valid &= (1 << ncols) - 1
    mask &= (1 << len(matrix)) - 1
    keep = [j for j in range(ncols) if valid >> j & 1]
    rows = [tuple(x if valid >> j & 1 else 0 for j, x in enumerate(row))
            for row in matrix]
    restricted = [[row[j] for j in keep]
                  for i, row in enumerate(rows) if mask >> i & 1]
    ranks = _MaskedRanks(rows)
    assert ranks.rank(mask, valid) == fraction_rank(restricted)
    # a second request is a memo hit and gives the same rank
    assert list(ranks._memo) == [mask]
    assert ranks.rank(mask, valid) == fraction_rank(restricted)


# entries near zero, so a row is often zero in a slot and a picked row
# is often the only one nonzero there
sparse_matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda ncols: st.lists(
        st.lists(st.integers(min_value=-2, max_value=2),
                 min_size=ncols, max_size=ncols),
        min_size=1, max_size=6))


@given(sparse_matrices, st.integers(min_value=0, max_value=63),
       st.lists(st.integers(min_value=0, max_value=31), min_size=1,
                max_size=3))
def test_masked_ranks_against_bareiss_on_any_rows(matrix, mask, valids):
    # nonzero entries may sit in invalid slots: every request on one
    # helper, the memo hits too, raises naming the lowest invalid slot
    # where a picked row is nonzero and the first picked row's entry
    # there, or is the Bareiss rank of the picked rows on the valid slots
    ncols = len(matrix[0])
    mask &= (1 << len(matrix)) - 1
    picked = [row for i, row in enumerate(matrix) if mask >> i & 1]
    ranks = _MaskedRanks(matrix)
    for valid in valids:
        bad = [(j, row[j]) for j in range(ncols) if not valid >> j & 1
               for row in picked if row[j]]
        if bad:
            slot, coeff = bad[0]
            with pytest.raises(OracleError, match=f"coefficient {coeff} in "
                               f"invalid slot {slot}$"):
                ranks.rank(mask, valid)
        else:
            assert ranks.rank(mask, valid) == bareiss_rank(
                [[row[j] for j in range(ncols) if valid >> j & 1]
                 for row in picked])


@given(square_matrices)
def test_determinant_agrees_with_fraction_elimination(matrix):
    assert bareiss_determinant(matrix) == fraction_determinant(matrix)
    assert integer_determinant(matrix) == fraction_determinant(matrix)


@given(square_matrices)
def test_zero_determinant_means_rank_deficient(matrix):
    n = len(matrix)
    assert (fraction_determinant(matrix) == 0) == (integer_rank(matrix) < n)


@given(row_sequences())
def test_echelon_extends_exactly_when_the_rank_grows(rows):
    echelon = ()
    for i, row in enumerate(rows):
        before = [(pivot, list(r)) for pivot, r in echelon]
        grown = echelon_extend(echelon, row)
        # extend copies: the rows already stored are left as they were
        assert [(pivot, list(r)) for pivot, r in echelon] == before
        grows = fraction_rank(rows[:i + 1]) > fraction_rank(rows[:i])
        assert (grown is not None) == grows
        if grown is not None:
            echelon = grown
    assert len(echelon) == fraction_rank(rows)


@settings(deadline=None, max_examples=60)
@given(generator_sets)
def test_membership_matches_naive_closure(gens):
    gens = _normalize(gens)
    S = from_generators(gens)
    conductor = naive_conductor(gens)
    bound = conductor + max(gens)
    expected = naive_members(gens, bound)
    assert set(S.members(bound)) == expected
    # minimal: a nonzero member that is no sum of two nonzero members
    assert S.min_generators == tuple(
        m for m in sorted(expected)
        if m and not any(a in expected and m - a in expected
                         for a in range(1, m)))
    assert S.conductor == conductor
    assert S.gaps == tuple(v for v in range(conductor) if v not in expected)


@settings(deadline=None, max_examples=60)
@given(generator_sets)
def test_apery_identities(gens):
    gens = _normalize(gens)
    S = from_generators(gens)
    q = S.multiplicity
    ap = apery_set(S, q)
    assert sorted(w % q for w in ap) == list(range(q))
    assert S.frobenius == max(ap) - q
    assert 2 * q * S.genus == 2 * sum(ap) - q * (q - 1)
    assert blowup(S).colength == S.genus - blowup(S).transformed.genus


@settings(deadline=None, max_examples=40)
@given(generator_sets)
def test_value_set_roundtrips(gens):
    gens = _normalize(gens)
    S = from_generators(gens)
    for V in (value_set_of(S), complementary_module(S),
              dedekind_different(S)):
        rebuilt = value_set(S, values_up_to(V, V.tail_start), V.tail_start)
        assert rebuilt == V
        bound = V.tail_start + 3
        listed = values_up_to(V, bound)
        assert listed == sorted(listed)
        for v in range(V.min_value - 2, bound):
            assert V.contains(v) == (v in listed)
    assert inverse(value_set_of(S)) == value_set_of(S)


# unsorted, with repeats and weight 1 allowed: blowup tuples are like this
weight_tuples = st.lists(st.integers(min_value=1, max_value=9),
                         min_size=1, max_size=4)


@settings(deadline=None, max_examples=100)
@given(weight_tuples)
def test_minimal_presentation_of_any_weight_tuple(weights):
    if not _coprime(weights):
        weights = weights + [max(weights) + 1]
    tup = GeneratorTuple(tuple(weights))
    for tiebreak in (False, True):
        pres = minimal_presentation(tup, tiebreak)
        assert tuple((r.lhs, r.rhs, r.degree) for r in pres.relations) == \
            reference_minimal_presentation(tup.weights, tiebreak)
        assert relations_generate(pres)
        for k in range(pres.mu):
            dropped = pres.relations[:k] + pres.relations[k + 1:]
            assert not relations_generate(Presentation(tup, dropped))


@settings(deadline=None, max_examples=100)
@given(weight_tuples, st.integers(min_value=0, max_value=20))
def test_support_sets_of_any_weight_tuple(weights, top):
    # no coprimality needed: the masks read only the weights
    joined = _joined(tuple(weights), top)
    assert joined == joined_positions(weights, top)
    assert [sum(1 << p for p, row in enumerate(joined) if row[p] >> d & 1)
            for d in range(top + 1)] == used_positions(weights, top)


CORPUS_GENUS = 6
TIEBREAK_GENUS = 5


def test_cutoff_audits_never_fire_on_the_corpus():
    # every oracle recomputes one stability window past its cutoff and
    # raises OracleError if the window is not empty; a clean pass over
    # the corpus means no cutoff is ever violated
    for S in enumerate_by_genus(CORPUS_GENUS):
        report = full_report(S)
        failed = [k for k, v in report.checks.items() if v is False]
        assert failed in ([], ["kaehler_equals_dedekind"]), S.min_generators
        if report.deviation <= 1:
            assert failed == [], S.min_generators


def test_reverse_tiebreak_changes_nothing_downstream():
    for S in enumerate_by_genus(TIEBREAK_GENUS):
        plain = full_report(S)
        flipped = full_report(S, reverse_tiebreak=True)
        assert plain.to_dict() == flipped.to_dict(), S.min_generators
        if S.embdim > 1:
            assert presentation_of(S, reverse_tiebreak=True).mu == \
                presentation_of(S).mu
            assert presentation_of(S, reverse_tiebreak=True).betti_degrees \
                == presentation_of(S).betti_degrees


# conductors of at most 132, so the set loops of the references stay fast
small_generator_sets = st.lists(st.integers(min_value=2, max_value=12),
                                min_size=2, max_size=4, unique=True)


@st.composite
def stable_value_sets(draw):
    """A semigroup and a finite union of v + S over shifts v in [-c, c],
    most of them shapes that no trace dual or different takes."""
    S = from_generators(_normalize(draw(small_generator_sets)))
    c = S.conductor
    shifts = draw(st.lists(st.integers(min_value=-c, max_value=c),
                           min_size=1, max_size=6))
    lo, tail = min(shifts), min(shifts) + c
    members = [v for v in range(lo, tail)
               if any(S.contains(v - s) for s in shifts)]
    return value_set(S, members, tail)


@settings(deadline=None, max_examples=150)
@given(stable_value_sets())
def test_inverse_of_any_stable_value_set(V):
    W = inverse(V)
    assert (W.members, W.tail_start) == reference_inverse(
        V.ambient.min_generators, (V.members, V.tail_start))


@settings(deadline=None, max_examples=150)
@given(small_generator_sets, st.integers(min_value=0, max_value=200))
def test_span_values_of_any_semigroup_and_bound(gens, bound):
    S = from_generators(_normalize(gens))
    span = _span_values(S, bound)
    assert {v for v in range(bound) if span >> v & 1} == \
        reference_span_values(S.min_generators, bound)
    assert span < 1 << bound
