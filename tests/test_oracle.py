"""Graded oracle results pinned degree by degree."""

from __future__ import annotations

import pytest

from curvetorsion import (BinomialRelation, GeneratorTuple, OracleError,
                          Presentation, blowup, blowup_presentation,
                          colength_via_derivative_spans, enumerate_by_genus,
                          exactness_defect, from_generators,
                          genus_via_derivative_spans,
                          presentation_of, relation_module_lengths,
                          relative_differential_dims, torsion_length)
from curvetorsion import oracle
from curvetorsion.oracle import _MaskedRanks, _degree_classes
from oracles import (check_graded_oracles, check_masked_ranks,
                     grouped_by_value,
                     large_conductor_generators, naive_present, per_degree,
                     reference_present,
                     reference_relation_module_lengths,
                     reference_relative_differential_dims,
                     reference_torsion_route_b)

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
    total, dims = DIFFERENTIAL_DIMS[gens]
    assert ledger.total == total
    assert per_degree(ledger.by_value) == dims
    # one pair per distinct dimension, in increasing order of dimension
    assert ledger.by_value == grouped_by_value(dims)
    assert sum(d for _, d in dims) == total
    assert max(d for d, _ in dims) <= ledger.cutoff
    assert ledger.window == (ledger.cutoff, ledger.cutoff + max(gens))


def test_ledger_dimension_accessor():
    S = from_generators((2, 3))
    ledger = relative_differential_dims(presentation_of(S))
    assert ledger.dimension(5) == 1
    assert ledger.dimension(4) == 0
    assert ledger.dimension(-1) == 0
    S = from_generators((4, 6, 7))
    ledger = relative_differential_dims(presentation_of(S))
    for degree, dim in DIFFERENTIAL_DIMS[(4, 6, 7)][1]:
        assert ledger.dimension(degree) == dim
    assert ledger.dimension(12) == 0 and ledger.dimension(100) == 0


def test_differential_dimensions_of_regular_curve():
    ledger = relative_differential_dims(presentation_of(from_generators((1,))))
    assert ledger.total == 0 and ledger.by_value == ()


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
    assert per_degree(result.by_value) == contributions
    assert result.by_value == grouped_by_value(contributions)
    assert sum(c for _, c in contributions) == length


def test_torsion_of_regular_curve_is_zero():
    result = torsion_length(from_generators((1,)))
    assert result.length == 0 and result.by_value == ()


def test_torsion_is_memoized():
    S = from_generators((4, 6, 7))
    assert torsion_length(S) is torsion_length(S)


def test_torsion_sits_inside_the_differential_module():
    for gens in sorted(TORSION):
        S = from_generators(gens)
        ledger = relative_differential_dims(presentation_of(S))
        for degree, dim in per_degree(torsion_length(S).by_value):
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
    dims = per_degree(ledger.by_value)
    assert sum(d for _, d in dims) == ledger.total
    assert max(d for d, _ in dims) <= ledger.cutoff


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


def test_masked_ranks_decide_one_row_or_one_column_from_the_supports(
        monkeypatch):
    # no elimination for a mask of at most one row, or whose rows are
    # nonzero in one column only: rank 1 unless every picked entry is zero
    def no_elimination(rows):
        raise AssertionError("eliminated a one-row or one-column mask")

    rows = _MaskedRanks([(0, 0), (3, 0), (0, 0), (-2, 0), (1, 1)])
    monkeypatch.setattr(oracle, "integer_rank", no_elimination)
    assert [rows.rank(mask, 0b11) for mask in (0, 0b1, 0b101, 0b10, 0b1010,
                                                0b1110, 0b10000)] == \
        [0, 0, 0, 1, 1, 1, 1]
    assert rows.rank(0b101, 0b11) == 0
    monkeypatch.undo()
    assert rows.rank(0b10010, 0b11) == 2


def _raised(fn, *args) -> str:
    """The message of the OracleError that fn(*args) raises."""
    with pytest.raises(OracleError) as info:
        fn(*args)
    return str(info.value)


def test_relation_module_guards_fire_on_planted_faults(monkeypatch):
    S = from_generators((4, 6, 7))
    # the cached function would hide the planted faults
    lengths = relation_module_lengths.__wrapped__
    real_blowup_presentation = oracle.blowup_presentation
    real_rescaled = oracle.rescaled_relation_generators
    with monkeypatch.context() as m:
        m.setattr(oracle, "blowup_presentation", lambda S, tb=False:
                  real_blowup_presentation(S, tb)._replace(relations=()))
        message = _raised(lengths, S)
        assert message == (
            "containment violation: lifted rescaled module escapes the "
            "blowup relation module at degree 4 for <4,6,7>")
        assert message == _raised(reference_relation_module_lengths, S)
        # in <2,3> the escaping key recurs through degree 7; the guard
        # reports its first degree
        T = from_generators((2, 3))
        message = _raised(lengths, T)
        assert message == (
            "containment violation: lifted rescaled module escapes the "
            "blowup relation module at degree 2 for <2,3>")
        assert message == _raised(reference_relation_module_lengths, T)

    def drop_last(S, pres):
        resc = real_rescaled(S, pres)
        return resc._replace(relations=resc.relations[:-1])

    with monkeypatch.context() as m:
        m.setattr(oracle, "rescaled_relation_generators", drop_last)
        message = _raised(lengths, S)
        assert message == ("cutoff violation: relation modules not full at "
                           "degree 39 beyond 38 for <4,6,7>")
        assert message == _raised(reference_relation_module_lengths, S)
    with monkeypatch.context() as m:
        # a negative cutoff: no degree is summed, every window index is
        # clamped at 0, and the length check is what fires
        m.setattr(oracle, "least_minor_degree", lambda pres: -30)
        message = _raised(lengths, S)
        assert message == "rescaling length check failed: 0 != 16 for <4,6,7>"
        assert message == _raised(reference_relation_module_lengths, S)
    assert lengths(S) == relation_module_lengths(S)


def test_relation_module_slot_check_covers_every_mask(monkeypatch):
    # each of a class's five masks is checked, not only the joint one:
    # plant the original module's rows in every degree from 0 on, where
    # the joint mask lacks them and no slot is valid, and the check must
    # name their slot
    S = from_generators((4, 6, 7))
    m = presentation_of(S).mu
    real = oracle._degree_classes
    everywhere = from_generators((1,))
    monkeypatch.setattr(oracle, "_degree_classes", lambda items, top: real(
        items[:-m] + [(everywhere, 0)] * m, top))
    assert _raised(relation_module_lengths.__wrapped__, S) == \
        "derivative row has coefficient 2 in invalid slot 0"


def test_graded_oracles_match_the_per_degree_references():
    # one evaluation per distinct degree key against the walk over every
    # degree it replaced, on every minimal and blowup presentation through
    # genus 7 and of the large-conductor curves, under both tie-breaks
    curves = list(enumerate_by_genus(7)) + [
        from_generators(g) for g in large_conductor_generators()]
    assert check_graded_oracles(curves) == 4 * 2 * len(curves)


def test_masked_ranks_match_bareiss_through_genus_9():
    # the per-degree walks rank through _MaskedRanks too; here every rank
    # it hands the oracles, each checked against its valid slots, is
    # compared with Bareiss elimination, which shares no code with the
    # package's echelon
    assert check_masked_ranks(enumerate_by_genus(9)) == 125854


def test_differential_cutoff_violation_fires_on_a_planted_cutoff(
        monkeypatch):
    S = from_generators((4, 5))
    pres = presentation_of(S)
    real = oracle.least_minor_degree
    with monkeypatch.context() as m:
        m.setattr(oracle, "least_minor_degree", lambda pres: real(pres) - 8)
        message = _raised(relative_differential_dims.__wrapped__, pres)
        assert message == ("cutoff violation: differential dimension 1 at "
                           "degree 26 beyond 24")
        assert message == _raised(reference_relative_differential_dims, pres)
    # degree 26 shares its key with degree 5, below the cutoff: the fault
    # is reported at the key's first degree past the cutoff.  The ledger is
    # read with the true cutoff, so the memo never holds a planted one.
    assert relative_differential_dims.__wrapped__(pres).dimension(5) == 1


def _lowered_ledger(monkeypatch, shift: int) -> None:
    """Lower the ledger's cutoff, which torsion route b reads, by shift.
    The torsion sits inside the ledger degree by degree, so a cutoff low
    enough to cut torsion would trip the ledger's own guard first."""
    real = oracle.relative_differential_dims
    monkeypatch.setattr(oracle, "relative_differential_dims", lambda pres:
                        real(pres)._replace(cutoff=real(pres).cutoff - shift))


def test_torsion_cutoff_violation_fires_on_a_planted_cutoff(monkeypatch):
    S = from_generators((4, 5))
    _lowered_ledger(monkeypatch, 8)
    message = _raised(torsion_length.__wrapped__, S)
    assert message == ("cutoff violation: torsion contribution 1 at degree "
                       "26 beyond 24")
    assert message == _raised(reference_torsion_route_b, S)


def _planted_relation(monkeypatch, relation: BinomialRelation) -> None:
    """Append a relation whose row is not in the evaluation kernel to every
    minimal presentation the oracle module asks for."""
    real = oracle.presentation_of
    monkeypatch.setattr(oracle, "presentation_of", lambda S, tb=False:
                        real(S, tb)._replace(relations=real(
                            S, tb).relations + (relation,)))


def test_kernel_guard_fires_on_a_planted_row(monkeypatch):
    # x*y in degree 5 of <2,3>: its row (1, 1) evaluates to 2 + 3, not 0.
    # From degree 8 on both rows are active in both slots, one rank beyond
    # the kernel; every later degree has the same key, and the guard
    # reports the key's first degree
    with monkeypatch.context() as m:
        S = from_generators((2, 3))
        _planted_relation(m, BinomialRelation((1, 1), (0, 0), 5))
        message = _raised(torsion_length.__wrapped__, S)
        assert message == \
            "relation rows exceed the evaluation kernel at degree 8"
        assert message == _raised(reference_torsion_route_b, S)
    # x*y in degree 10 of <4,6,7>: from degree 16 on
    S = from_generators((4, 6, 7))
    _planted_relation(monkeypatch, BinomialRelation((1, 1, 0), (0, 0, 0), 10))
    message = _raised(torsion_length.__wrapped__, S)
    assert message == "relation rows exceed the evaluation kernel at degree 16"
    assert message == _raised(reference_torsion_route_b, S)
    # with the cutoff lowered to 14, degree 15 breaks the cutoff before
    # degree 16's key trips the kernel guard; the lower degree wins
    _lowered_ledger(monkeypatch, 14)
    message = _raised(torsion_length.__wrapped__, S)
    assert message == ("cutoff violation: torsion contribution 1 at degree "
                       "15 beyond 14")
    assert message == _raised(reference_torsion_route_b, S)


def test_route_disagreement_fires_on_a_planted_defect(monkeypatch):
    S = from_generators((4, 6, 7))
    real = oracle.exactness_defect
    monkeypatch.setattr(oracle, "exactness_defect", lambda S: real(S) + 1)
    message = _raised(torsion_length.__wrapped__, S)
    assert message == ("oracle inconsistency: torsion 9 by dimension count "
                       "vs 10 by kernel count for <4,6,7>")
    assert message == _raised(reference_torsion_route_b, S)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except OracleError as exc:
        return str(exc)


@pytest.mark.parametrize("gens", [(2, 3), (4, 5), (4, 6, 7), (3, 5, 7),
                                  (4, 5, 6, 7), (6, 9, 20)])
def test_lowered_cutoffs_match_the_per_degree_references(monkeypatch, gens):
    # every Fitting degree from the true one down past zero, so the
    # cutoffs run through the last nonzero degrees and turn negative
    S = from_generators(gens)
    real = oracle.least_minor_degree
    monkeypatch.setattr(oracle, "relative_differential_dims",
                        relative_differential_dims.__wrapped__)
    seen = set()
    for shift in range(0, 61, 2):
        monkeypatch.setattr(oracle, "least_minor_degree",
                            lambda pres: real(pres) - shift)
        for pres in (presentation_of(S), blowup_presentation(S)):
            got = _outcome(relative_differential_dims.__wrapped__, pres)
            assert got == _outcome(reference_relative_differential_dims,
                                   pres), (pres, shift)
            seen.add(type(got))
        got = _outcome(torsion_length.__wrapped__, S)
        assert got == _outcome(reference_torsion_route_b, S), shift
        got = _outcome(relation_module_lengths.__wrapped__, S)
        assert got == _outcome(reference_relation_module_lengths, S), shift
    assert str in seen


def test_degree_masks_match_the_naive_membership_test(monkeypatch):
    # record every (items, top) the three oracles pass to _degree_classes,
    # keeping the largest top asked, through genus 6 and on the
    # large-conductor curves, under both tie-breaks, past their caches
    asked = {}

    def recording(items, top):
        key = tuple(items)
        asked[key] = max(top, asked.get(key, top))
        return _degree_classes(items, top)

    monkeypatch.setattr(oracle, "_degree_classes", recording)
    small = list(enumerate_by_genus(6))
    large = [from_generators(g) for g in large_conductor_generators()]
    for S in small + large:
        for tiebreak in (False, True):
            for pres in (presentation_of(S, tiebreak),
                         blowup_presentation(S, tiebreak)):
                relative_differential_dims.__wrapped__(pres)
            torsion_length.__wrapped__(S, tiebreak)
            relation_module_lengths.__wrapped__(S, tiebreak)
        if S is small[-1]:
            assert len(asked) == 186
    # the relation-module rows come unsorted, with repeated degrees, over
    # two rings in one call
    assert any(len({ring for ring, _ in items}) == 2
               and [w for _, w in items] != sorted(w for _, w in items)
               and len(set(items)) < len(items) for items in asked)
    # more such items, and the ring <1>, whose conductor is 0, so every
    # item is in every degree from its own weight on
    rings = [from_generators(g) for g in [(1,), (2, 3), (4, 6, 7), (6, 9, 20)]]
    for weights in [(5, 3, 5, 0, 3), (7, 7), (0,), (2, 1), ()]:
        for ring in rings:
            asked.setdefault(tuple((ring, w) for w in weights), 40)
    asked.setdefault(tuple((ring, w) for ring in rings for w in (3, 0, 3)), 40)
    for items, top in asked.items():
        # the oracle's top, top 0 and -1, a top below the smallest item,
        # tops below each conductor, and tops on both sides of c + min w
        # and c + max w, where the run of full masks starts
        ws = [w for _, w in items] or [0]
        tops = {top, 0, -1, min(ws) - 1}
        for c in {ring.conductor for ring, _ in items}:
            tops |= {c - 1, c}
            for w in (min(ws), max(ws)):
                tops |= {c + w - 1, c + w, c + w + 1}
        tops = sorted(t for t in tops if t >= -1)
        # per ring, the naive masks of its items; combined, bit i of
        # degree d for item i
        where = {ring: [i for i, (r, _) in enumerate(items) if r == ring]
                 for ring, _ in items}
        weights = {ring: [items[i][1] for i in at]
                   for ring, at in where.items()}
        naive = {ring: naive_present(weights[ring], ring.min_generators,
                                     tops[-1]) for ring in where}
        expected = [0] * (tops[-1] + 1)
        for ring, at in where.items():
            for d, mask in enumerate(naive[ring]):
                for j, i in enumerate(at):
                    if mask >> j & 1:
                        expected[d] |= 1 << i
        for t in tops:
            # the classes come in order of first degree and are the
            # degrees of each distinct naive key, so they partition 0..t
            classes = _degree_classes(items, t)
            assert [first for first, _, _ in classes] == sorted(
                (degrees & -degrees).bit_length() - 1
                for _, degrees, _ in classes)
            want = {}
            for d, key in enumerate(expected[:t + 1]):
                want[key] = want.get(key, 0) | 1 << d
            assert len(classes) == len(want), (items, t)
            assert {key: degrees for _, degrees, key in classes} == want, \
                (items, t)
            for ring in where:
                assert reference_present(weights[ring], ring, t) == \
                    naive[ring][:t + 1]


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
