"""Graded oracle results pinned degree by degree."""

from __future__ import annotations

import dataclasses

import pytest

from curvetorsion import (BinomialRelation, GeneratorTuple, OracleError,
                          Presentation, blowup, blowup_presentation,
                          colength_via_derivative_spans, enumerate_by_genus,
                          exactness_defect, from_generators,
                          genus_via_derivative_spans,
                          presentation_of, relation_module_lengths,
                          relative_differential_dims, torsion_length)
from curvetorsion import oracle
from curvetorsion.oracle import _MaskedRanks, _present
from oracles import naive_present

# (generators) -> (total, per-degree nonzero dimensions)
DIFFERENTIAL_DIMS = {
    (2, 3): (3, ((3, 1), (5, 1), (7, 1))),
    (3, 4, 5): (7, ((4, 1), (5, 1), (7, 1), (8, 1), (9, 1), (10, 1), (11, 1))),
    (4, 5): (15, ((5, 1), (9, 1), (10, 1), (13, 1), (14, 1), (15, 1), (17, 1),
                  (18, 1), (19, 1), (21, 1), (22, 1), (23, 1), (26, 1),
                  (27, 1), (31, 1))),
    (4, 6, 7): (13, ((6, 1), (7, 1), (10, 1), (11, 1), (13, 2), (14, 1),
                     (15, 1), (17, 2), (19, 1), (21, 1), (23, 1))),
    (4, 5, 6, 7): (12, ((5, 1), (6, 1), (7, 1), (9, 1), (10, 1), (11, 2),
                        (12, 1), (13, 2), (14, 1), (15, 1))),
}


@pytest.mark.parametrize("gens", sorted(DIFFERENTIAL_DIMS))
def test_differential_dimensions_pinned(gens):
    ledger = relative_differential_dims(presentation_of(from_generators(gens)))
    total, per_degree = DIFFERENTIAL_DIMS[gens]
    assert ledger.total == total
    assert ledger.per_degree == per_degree
    assert sum(d for _, d in per_degree) == total
    assert max(d for d, _ in per_degree) <= ledger.cutoff
    assert ledger.window == (ledger.cutoff, ledger.cutoff + max(gens))


def test_ledger_dimension_accessor():
    S = from_generators((2, 3))
    ledger = relative_differential_dims(presentation_of(S))
    assert ledger.dimension(5) == 1
    assert ledger.dimension(4) == 0
    assert ledger.dimension(-1) == 0


def test_differential_dimensions_of_regular_curve():
    ledger = relative_differential_dims(presentation_of(from_generators((1,))))
    assert ledger.total == 0 and ledger.per_degree == ()


# (generators) -> (torsion length, per-degree contributions)
TORSION = {
    (2, 3): (2, ((5, 1), (7, 1))),
    (3, 4, 5): (5, ((7, 1), (8, 1), (9, 1), (10, 1), (11, 1))),
    (4, 5): (12, ((9, 1), (13, 1), (14, 1), (17, 1), (18, 1), (19, 1),
                  (21, 1), (22, 1), (23, 1), (26, 1), (27, 1), (31, 1))),
    (4, 6, 7): (10, ((10, 1), (11, 1), (13, 1), (14, 1), (15, 1), (17, 2),
                     (19, 1), (21, 1), (23, 1))),
    (4, 5, 6, 7): (9, ((9, 1), (10, 1), (11, 2), (12, 1), (13, 2), (14, 1),
                       (15, 1))),
    (3, 5, 7): (7, ((8, 1), (10, 1), (11, 1), (12, 1), (13, 1), (14, 1),
                    (16, 1))),
}


@pytest.mark.parametrize("gens", sorted(TORSION))
def test_torsion_pinned(gens):
    result = torsion_length(from_generators(gens))
    length, contributions = TORSION[gens]
    assert result.length == length
    assert result.route_a == result.route_b == length
    assert result.contributions == contributions
    assert sum(c for _, c in contributions) == length


def test_torsion_of_regular_curve_is_zero():
    result = torsion_length(from_generators((1,)))
    assert result.length == 0 and result.contributions == ()


def test_torsion_is_memoized():
    S = from_generators((4, 6, 7))
    assert torsion_length(S) is torsion_length(S)


def test_torsion_sits_inside_the_differential_module():
    for gens in sorted(TORSION):
        S = from_generators(gens)
        ledger = relative_differential_dims(presentation_of(S))
        for degree, dim in torsion_length(S).contributions:
            assert dim <= ledger.dimension(degree)


# (generators) -> (blowup/rescaled, blowup/lifted, lifted/rescaled,
#                  rescaled/original)
MODULE_LENGTHS = {
    (2, 3): (1, 0, 1, 4),
    (3, 4, 5): (3, 0, 3, 12),
    (4, 5): (14, 8, 6, 8),
    (4, 6, 7): (8, 0, 8, 16),
    (4, 5, 6, 7): (6, 0, 6, 24),
    (3, 5, 7): (3, 0, 3, 12),
}


@pytest.mark.parametrize("gens", sorted(MODULE_LENGTHS))
def test_relation_module_lengths_pinned(gens):
    S = from_generators(gens)
    lengths = relation_module_lengths(S)
    assert (lengths.blowup_over_rescaled, lengths.blowup_over_lifted,
            lengths.lifted_over_rescaled,
            lengths.rescaled_over_original) == MODULE_LENGTHS[gens]
    # the four lengths are nested quotients of one chain
    assert lengths.blowup_over_rescaled == \
        lengths.blowup_over_lifted + lengths.lifted_over_rescaled
    assert lengths.rescaled_over_original == \
        2 * (S.embdim - 1) * S.multiplicity


def test_relation_module_lengths_of_regular_curve():
    lengths = relation_module_lengths(from_generators((1,)))
    assert (lengths.blowup_over_rescaled, lengths.blowup_over_lifted,
            lengths.lifted_over_rescaled,
            lengths.rescaled_over_original) == (0, 0, 0, 0)


BLOWUP_DIM_TOTALS = {
    (2, 3): 1,
    (3, 4, 5): 2,
    (4, 5): 3,
    (4, 6, 7): 5,
    (3, 5, 7): 4,
}


@pytest.mark.parametrize("gens", sorted(BLOWUP_DIM_TOTALS))
def test_transform_differential_dimensions(gens):
    S = from_generators(gens)
    # the transformed ring over the original parameter line is presented
    # by the blowup relations differentiated in the transformed variables
    ledger = relative_differential_dims(blowup_presentation(S))
    assert ledger.total == BLOWUP_DIM_TOTALS[gens]
    assert sum(d for _, d in ledger.per_degree) == ledger.total
    assert max(d for d, _ in ledger.per_degree) <= ledger.cutoff


def test_blowup_torsion_pinned():
    S1 = blowup(from_generators((4, 6, 7))).transformed
    assert S1.min_generators == (2, 3)
    assert torsion_length(S1).length == 2


def test_exactness_defect_is_zero_on_samples():
    for gens in [(2, 3), (3, 4, 5), (4, 5), (4, 6, 7), (4, 5, 6, 7),
                 (3, 5, 7), (5, 7, 9, 11, 13), (6, 9, 20), (1,)]:
        assert exactness_defect(from_generators(gens)) == 0


def test_genus_via_derivative_spans():
    for gens in [(2, 3), (3, 4, 5), (4, 5), (4, 6, 7), (5, 7, 9, 11, 13),
                 (1,)]:
        S = from_generators(gens)
        assert genus_via_derivative_spans(S) == S.genus


def test_colength_via_derivative_spans():
    for gens in [(2, 3), (3, 4, 5), (4, 6, 7), (4, 5)]:
        S = from_generators(gens)
        S1 = blowup(S).transformed
        assert colength_via_derivative_spans(S, S1) == S.genus - S1.genus
    S = from_generators((2, 3))
    assert colength_via_derivative_spans(S, S) == 0


def test_colength_via_spans_requires_nested_rings():
    with pytest.raises(OracleError, match="not nested"):
        colength_via_derivative_spans(from_generators((2, 3)),
                                      from_generators((4, 6, 7)))


def test_torsion_equals_differential_total_minus_known_parts():
    # route a spelled out: the ledger total splits into the torsion, the
    # normalization share, and the (always zero) exactness defect
    for gens in sorted(TORSION):
        S = from_generators(gens)
        total = relative_differential_dims(presentation_of(S)).total
        assert torsion_length(S).length == \
            total - (S.multiplicity - 1) - exactness_defect(S)


def test_invalid_slot_guard_fires_on_a_planted_row():
    # the one relation of <2,3>, y^2 - x^3, declared in degree 4 instead
    # of 6: in degree 4 its row is active, but y has no multiple there
    planted = BinomialRelation((0, 2), (3, 0), 4)
    pres = Presentation(GeneratorTuple((2, 3)), (planted,))
    with pytest.raises(OracleError,
                       match="coefficient 2 in invalid slot 0"):
        relative_differential_dims(pres)
    # the same row straight into the rank helper, behind a valid row
    with pytest.raises(OracleError, match="coefficient -3 in invalid slot 1"):
        _MaskedRanks([(1, 0, 0), (4, -3, 0)]).rank(0b11, 0b101)


def test_slot_guard_fires_on_a_memo_hit():
    rows = _MaskedRanks([(1, 0), (0, 2)])
    assert rows.rank(0b11, 0b11) == 2
    # the same mask again, now in a degree where slot 1 is invalid: the
    # memoized rank must not skip the guard
    with pytest.raises(OracleError, match="coefficient 2 in invalid slot 1"):
        rows.rank(0b11, 0b01)
    assert rows.rank(0b01, 0b01) == 1


def test_relation_module_guards_fire_on_planted_faults(monkeypatch):
    S = from_generators((4, 6, 7))
    # the cached function would hide the planted faults
    lengths = relation_module_lengths.__wrapped__
    real_blowup_presentation = oracle.blowup_presentation
    real_rescaled = oracle.rescaled_relation_generators
    with monkeypatch.context() as m:
        m.setattr(oracle, "blowup_presentation", lambda S, tb=False:
                  dataclasses.replace(real_blowup_presentation(S, tb),
                                      relations=()))
        with pytest.raises(OracleError, match="containment violation"):
            lengths(S)
    with monkeypatch.context() as m:
        m.setattr(oracle, "rescaled_relation_generators",
                  lambda S, pres: real_rescaled(S, pres)[:-1])
        with pytest.raises(OracleError, match="cutoff violation"):
            lengths(S)
    with monkeypatch.context() as m:
        m.setattr(oracle, "fitting_minor_degrees", lambda pres: (-30,))
        with pytest.raises(OracleError, match="rescaling length check"):
            lengths(S)
    assert lengths(S) == relation_module_lengths(S)


def test_degree_masks_match_the_naive_membership_test(monkeypatch):
    # record every (items, ring, top) the three oracles ask for, through
    # genus 6 and under both tie-breaks, running them past their caches
    asked = set()

    def recording(items, ring, top):
        asked.add((tuple(items), ring, top))
        return _present(items, ring, top)

    monkeypatch.setattr(oracle, "_present", recording)
    for S in enumerate_by_genus(6):
        for tiebreak in (False, True):
            for pres in (presentation_of(S, tiebreak),
                         blowup_presentation(S, tiebreak)):
                relative_differential_dims.__wrapped__(pres)
            torsion_length.__wrapped__(S, tiebreak)
            relation_module_lengths.__wrapped__(S, tiebreak)
    assert len({(items, ring) for items, ring, _ in asked}) == 309
    for items, ring, top in sorted(asked, key=repr):
        # the oracle's top, top 0, and a top below the smallest item
        for t in sorted({top, 0, min(items, default=0) - 1}):
            masks = _present(items, ring, t)
            assert len(masks) == t + 1
            for d, mask in enumerate(masks):
                assert mask == naive_present(items, ring.min_generators, d), \
                    (items, ring, d)


def test_derivative_escape_guard_fires_on_a_planted_value(monkeypatch):
    # in <4,6,7>, 4 + 1 = 5 is no sum of a member and a nonzero member,
    # so a derivative value 4 lies outside the span
    S = from_generators((4, 6, 7))
    real = oracle._derivative_values
    monkeypatch.setattr(oracle, "_derivative_values",
                        lambda S, bound: real(S, bound) | 1 << 4)
    with pytest.raises(OracleError,
                       match="^derivative values escaped their ring closure$"):
        exactness_defect(S)
