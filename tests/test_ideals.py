"""Value sets, dualizing modules, and the two differents."""

from __future__ import annotations

import pytest

from curvetorsion import (IdealError, Presentation, ValueSet,
                          blowup_presentation, complementary_module,
                          dedekind_different, deviation,
                          different_inverse_gap, enumerate_by_genus,
                          from_generators, inverse, kaehler_different,
                          least_minor_degree, make_value_set,
                          presentation_of, quotient_length, value_set_of)
from curvetorsion import ideals
from oracles import (brute_force_minor_degrees, naive_conductor,
                     naive_members, reference_fitting_minor_degrees,
                     search_kaehler_different, value_set, values_up_to)


def vs(gens, members, tail):
    return value_set(from_generators(gens), members, tail)


def test_value_set_basics():
    V = vs((2, 3), [3], 5)
    assert V.members == (3,)
    assert V.tail_start == 5
    assert V.min_value == 3
    assert V.bits == -3  # ...11101: bit 0 for 3, every bit from 2 on
    assert V.contains(3) and not V.contains(4) and V.contains(99)
    assert not V.contains(2) and not V.contains(-7)
    assert values_up_to(V, 7) == [3, 5, 6]
    assert values_up_to(V, 3) == []
    assert str(V) == "{3, 5+}"


def test_value_set_tail_normalization():
    # consecutive members right below the tail are absorbed into it
    V = vs((2, 3), [3, 5, 6], 7)
    assert V.members == (3,) and V.tail_start == 5
    W = vs((2, 3), [2, 3, 4], 5)
    assert W.members == () and W.tail_start == 2
    assert str(W) == "{2+}"
    # through the constructor: leading zero bits above lo, bits set past
    # tail_start, and an empty finite part all reach the normal form
    S = from_generators((2, 3))
    assert (V.min_value, V.bits) == (3, -3)
    assert make_value_set(S, 0, 0b1000, 5) == V
    assert make_value_set(S, -4, 0b10000000, 5) == V
    assert make_value_set(S, 1, 0b1100100, 5) == V
    assert make_value_set(S, 3, -1 << 2 | 1, 5) == V
    assert (W.min_value, W.bits) == (2, -1)
    assert make_value_set(S, 2, 0, 2) == W
    assert make_value_set(S, -3, 0, 2) == W
    assert make_value_set(S, -3, 0b11100000, 5) == W


def test_value_set_duplicate_and_tail_values_are_dropped():
    V = vs((2, 3), [3, 3, 9, 11], 5)
    assert V.members == (3,) and V.tail_start == 5


def test_value_set_stability_check():
    with pytest.raises(IdealError, match="not stable"):
        vs((2, 3), [1], 5)
    with pytest.raises(IdealError, match="not stable"):
        vs((4, 6, 7), [0, 2], 20)


def test_value_set_of_ring():
    R = value_set_of(from_generators((2, 3)))
    assert R.members == (0,) and R.tail_start == 2
    assert str(R) == "{0, 2+}"
    N = value_set_of(from_generators((1,)))
    assert N.members == () and N.tail_start == 0


# (generators) -> complementary module as (members, tail_start)
COMPLEMENTARY = {
    (2, 3): ((-3,), -1),
    (3, 4, 5): ((-5, -4), -2),
    (4, 5): ((-15, -11, -10, -7, -6, -5), -3),
    (4, 6, 7): ((-13, -9, -7, -6, -5), -3),
    (4, 5, 6, 7): ((-7, -6, -5), -3),
    (3, 5, 7): ((-7, -5, -4), -2),
}


@pytest.mark.parametrize("gens", sorted(COMPLEMENTARY))
def test_complementary_module_pinned(gens):
    C = complementary_module(from_generators(gens))
    assert (C.members, C.tail_start) == COMPLEMENTARY[gens]


def test_complementary_module_membership_witnesses():
    C = complementary_module(from_generators((4, 6, 7)))
    assert C.contains(-13) and not C.contains(-12) and not C.contains(-4)


# (generators) -> (fitting degrees, kaehler different, dedekind different,
#                  inverse different gap)
DIFFERENTS = {
    (2, 3): ((3,), ((3,), 5), ((3,), 5), 0),
    (3, 4, 5): ((8, 9, 10), ((), 8), ((), 8), 1),
    (4, 5): ((15,), ((15, 19, 20, 23, 24, 25), 27),
             ((15, 19, 20, 23, 24, 25), 27), 0),
    (4, 6, 7): ((13,), ((13, 17, 19, 20, 21), 23),
                ((13, 17, 19, 20, 21), 23), 0),
    (4, 5, 6, 7): ((15, 16, 17, 18), ((), 15), ((), 11), 5),
    (3, 5, 7): ((10, 12, 14), ((10,), 12), ((10,), 12), 1),
}


@pytest.mark.parametrize("gens", sorted(DIFFERENTS))
def test_differents_pinned(gens):
    S = from_generators(gens)
    pres = presentation_of(S)
    fit, dk, dd, gap = DIFFERENTS[gens]
    assert reference_fitting_minor_degrees(pres) == fit
    assert least_minor_degree(pres) == fit[0]
    DK = kaehler_different(S, pres)
    DD = dedekind_different(S)
    assert (DK.members, DK.tail_start) == dk
    assert (DD.members, DD.tail_start) == dd
    assert different_inverse_gap(S, pres) == gap


def test_the_two_differents_differ_beyond_deviation_one():
    # <4,5,6,7> is the smallest curve where the derivative different is
    # strictly smaller than the inverse of the trace dual
    S = from_generators((4, 5, 6, 7))
    DK = kaehler_different(S, presentation_of(S))
    DD = dedekind_different(S)
    assert DK != DD
    assert not DK.contains(11) and DD.contains(11)
    for v in values_up_to(DK, DK.tail_start + S.conductor):
        assert DD.contains(v)  # containment still holds one way


def _assert_ideal_of_degrees(S, different, degrees):
    """different is the ideal generated by the values in degrees: the
    union of v + S, every value from min(degrees) + conductor on."""
    tail = min(degrees) + naive_conductor(S.min_generators)
    members = naive_members(S.min_generators, tail)
    union = {v + m for v in degrees for m in members if v + m < tail}
    assert set(values_up_to(different, tail)) == union, (S, different)
    assert different.tail_start <= tail, (S, different)


@pytest.mark.parametrize("gens", [(3, 4, 5), (4, 5, 6, 7), (3, 5, 7)])
def test_fitting_degrees_match_exhaustive_minor_search(gens):
    # regression guard for the greedy basis and the pruned search: agree
    # with trying every subset of relation rows inside the window
    S = from_generators(gens)
    pres = presentation_of(S)
    least = least_minor_degree(pres)
    limit = least + S.conductor
    brute = brute_force_minor_degrees(pres, limit)
    reference = reference_fitting_minor_degrees(pres)
    assert least == min(brute) == min(reference)
    assert set(d for d in reference if d < limit) == brute
    _assert_ideal_of_degrees(S, kaehler_different(S, pres), brute)


def _corpus_presentations(max_genus):
    """Every distinct minimal and blowup presentation, both tie-breaks."""
    seen = {}
    for S in enumerate_by_genus(max_genus):
        if S.embdim == 1:
            continue
        for tiebreak in (False, True):
            for pres in (presentation_of(S, tiebreak),
                         blowup_presentation(S, tiebreak)):
                seen.setdefault(pres, S.min_generators)
    return seen


def test_fitting_degrees_match_reference_search_on_the_corpus():
    # the greedy least degree, and on the minimal presentations the ideal
    # the determinant reads off, against the original search re-ranking
    # every node over Fraction and against the cover-pruned search
    presentations = _corpus_presentations(6)
    assert len(presentations) == 145
    minimal = 0
    for pres, gens in presentations.items():
        reference = reference_fitting_minor_degrees(pres)
        assert least_minor_degree(pres) == min(reference), \
            (gens, pres.gen_tuple)
        if pres.gen_tuple.weights == gens:
            S = from_generators(gens)
            _assert_ideal_of_degrees(S, kaehler_different(S, pres), reference)
            assert kaehler_different(S, pres) == \
                search_kaehler_different(S, pres), (gens, pres.gen_tuple)
            minimal += 1
    assert minimal == 72


def test_kaehler_different_of_regular_curve_is_the_ring():
    N = from_generators((1,))
    assert kaehler_different(N, presentation_of(N)) == value_set_of(N)


def test_rows_that_cannot_span_leave_no_maximal_minor():
    # <3,4,5> has three relations on two columns; any two of them still
    # span, so keep only the first, and every maximal minor vanishes
    S = from_generators((3, 4, 5))
    full = presentation_of(S)
    for k in range(full.mu):
        dropped = full.relations[:k] + full.relations[k + 1:]
        assert least_minor_degree(Presentation(full.gen_tuple, dropped)) \
            >= least_minor_degree(full)
    pres = Presentation(full.gen_tuple, full.relations[:1])
    with pytest.raises(IdealError, match=r"^all maximal minors vanish$"):
        least_minor_degree(pres)
    with pytest.raises(IdealError, match=r"^all maximal minors vanish$"):
        kaehler_different(S, pres)


def test_kaehler_different_validates_presentation():
    S = from_generators((4, 6, 7))
    with pytest.raises(IdealError, match="does not match"):
        kaehler_different(S, presentation_of(from_generators((2, 3))))


def test_inverse_of_ring_is_ring():
    for gens in [(2, 3), (3, 4, 5), (4, 6, 7), (1,)]:
        R = value_set_of(from_generators(gens))
        assert inverse(R) == R


def test_inverse_is_an_involution_on_symmetric_curves():
    for gens in [(2, 3), (4, 5), (4, 6, 7), (6, 9, 20)]:
        C = complementary_module(from_generators(gens))
        assert inverse(inverse(C)) == C


def test_symmetric_trace_dual_is_a_shift_of_the_ring():
    for S in enumerate_by_genus(6):
        if not S.is_symmetric or S.embdim == 1:
            continue
        C = complementary_module(S)
        shift = -(S.frobenius + S.multiplicity)
        R = value_set_of(S)
        assert C.members == tuple(shift + m for m in R.members
                                  if shift + m < C.tail_start)
        assert C.tail_start == shift + R.tail_start


def test_trace_dual_colength_identity():
    # length of the trace dual over the ring is 2*genus + multiplicity - 1
    for S in enumerate_by_genus(5):
        C = complementary_module(S)
        expected = 2 * S.genus + S.multiplicity - 1
        assert quotient_length(C, value_set_of(S)) == expected


def test_quotient_length_pinned():
    S = from_generators((2, 3))
    assert quotient_length(complementary_module(S), value_set_of(S)) == 3
    V = value_set_of(S)
    assert quotient_length(V, V) == 0


def test_quotient_length_validation():
    S = from_generators((2, 3))
    T = from_generators((3, 4, 5))
    with pytest.raises(IdealError, match="different curves"):
        quotient_length(value_set_of(S), value_set_of(T))
    with pytest.raises(IdealError, match="not contained"):
        quotient_length(value_set_of(S), complementary_module(S))
    # tail of the inner set starts below the outer tail
    with pytest.raises(IdealError, match="tail"):
        quotient_length(vs((2, 3), [3], 5), vs((2, 3), [2], 4))
    # finite member of the inner set missing from the outer set
    with pytest.raises(IdealError, match="not contained"):
        quotient_length(vs((4, 6, 7), [0], 4), vs((4, 6, 7), [2], 4))


def test_value_set_equality_is_structural():
    assert vs((2, 3), [3], 5) == vs((2, 3), [3, 5, 6], 7)
    assert vs((2, 3), [3], 5) != vs((2, 3), [], 3)
    assert isinstance(vs((2, 3), [3], 5), ValueSet)


def test_fitting_different_inside_the_trace_different_through_genus_9():
    # on every singular curve the Fitting different lies inside the trace
    # different, and strictly exactly at deviation >= 2; the first
    # exception to strictness, <9,10,11,12,15>, has genus 12
    singular = [S for S in enumerate_by_genus(9) if S.embdim > 1]
    assert len(singular) == 273
    for S in singular:
        gap = quotient_length(dedekind_different(S),
                              kaehler_different(S, presentation_of(S)))
        assert (gap > 0) == (deviation(S) >= 2), S


def test_complementary_module_self_check_fires_on_a_planted_apery_entry(
        monkeypatch):
    # <4,6,7> has Apery set (0, 13, 6, 7) mod 4.  Lowering the entry of
    # residue 1 by q drops -13 from the closed form, which stays stable,
    # while the trace condition still admits -13: only the self-check sees
    # it.  (Raising an entry by q instead trips the stability check first.)
    real = ideals.apery_set

    def planted(S, modulus):
        out = real(S, modulus)
        out[1] -= modulus
        return out

    monkeypatch.setattr(ideals, "apery_set", planted)
    complementary_module.cache_clear()  # an earlier test may have filled it
    with pytest.raises(IdealError,
                       match=r"^complementary module self-check failed at -13$"):
        complementary_module(from_generators((4, 6, 7)))


def test_kaehler_self_check_fires_on_a_planted_greedy_total(monkeypatch):
    # <4,6,7> has rows of degrees 12 and 14 and greedy total 26.  A greedy
    # total one higher leaves the least digit below it, and a zero
    # determinant has no lowest digit; only the self-check sees either.
    S = from_generators((4, 6, 7))
    pres = presentation_of(S)
    real = ideals.least_minor_degree
    monkeypatch.setattr(ideals, "least_minor_degree",
                        lambda pres: real(pres) + 1)
    kaehler_different.cache_clear()  # an earlier test may have filled it
    with pytest.raises(IdealError,
                       match=r"^Kaehler different self-check failed at 27$"):
        kaehler_different(S, pres)
    monkeypatch.setattr(ideals, "least_minor_degree", real)
    monkeypatch.setattr(ideals, "integer_determinant", lambda matrix: 0)
    with pytest.raises(IdealError,
                       match=r"^Kaehler different self-check failed at 26$"):
        kaehler_different(S, pres)
