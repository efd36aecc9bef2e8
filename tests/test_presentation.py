"""Minimal presentations, classification, and rescaling of relations."""

from __future__ import annotations

import pytest

from curvetorsion import (BinomialRelation, GeneratorTuple, Presentation,
                          PresentationError, betti_degree_bound, blowup,
                          blowup_presentation, classify_transform, deviation,
                          enumerate_by_genus, from_generators,
                          minimal_presentation, presentation_of,
                          relations_generate, rescaled_relation_generators)
from curvetorsion.presentation import _support_sets
from oracles import (_factorization_table, large_conductor_generators,
                     naive_factorizations, reference_minimal_presentation,
                     reference_relations_generate, support_sets)

# (generators) -> (mu, betti degrees)
PRESENTATIONS = {
    (2, 3): (1, (6,)),
    (3, 4, 5): (3, (8, 9, 10)),
    (4, 5): (1, (20,)),
    (4, 6, 7): (2, (12, 14)),
    (4, 5, 6, 7): (6, (10, 11, 12, 12, 13, 14)),
    (3, 5, 7): (3, (10, 12, 14)),
    (6, 9, 20): (2, (18, 60)),
}


@pytest.mark.parametrize("gens", sorted(PRESENTATIONS))
def test_pinned_presentations(gens):
    pres = presentation_of(from_generators(gens))
    mu, betti = PRESENTATIONS[gens]
    assert pres.mu == mu
    assert pres.betti_degrees == betti
    assert len(pres.relations) == mu
    assert pres.gen_tuple.weights == gens
    assert pres.gen_tuple.has_x


def test_pinned_relations():
    pres = presentation_of(from_generators((3, 4, 5)))
    assert [(r.lhs, r.rhs, r.degree) for r in pres.relations] == [
        ((0, 2, 0), (1, 0, 1), 8),
        ((0, 1, 1), (3, 0, 0), 9),
        ((0, 0, 2), (2, 1, 0), 10),
    ]
    pres = presentation_of(from_generators((2, 3)))
    assert [(r.lhs, r.rhs, r.degree) for r in pres.relations] == [
        ((0, 2), (3, 0), 6),
    ]


@pytest.mark.parametrize("gens", sorted(PRESENTATIONS))
def test_relations_are_homogeneous_and_ordered(gens):
    pres = presentation_of(from_generators(gens))
    for rel in pres.relations:
        assert sum(e * w for e, w in zip(rel.lhs, gens)) == rel.degree
        assert sum(e * w for e, w in zip(rel.rhs, gens)) == rel.degree
        assert rel.lhs < rel.rhs
    assert pres.betti_degrees == tuple(sorted(pres.betti_degrees))


@pytest.mark.parametrize("gens", sorted(PRESENTATIONS))
def test_presentations_generate(gens):
    pres = presentation_of(from_generators(gens))
    assert relations_generate(pres)
    assert relations_generate(pres, extra_degrees=5)


def test_dropping_a_minimal_relation_breaks_generation():
    pres = presentation_of(from_generators((3, 4, 5)))
    for skip in range(pres.mu):
        kept = tuple(r for i, r in enumerate(pres.relations) if i != skip)
        broken = Presentation(pres.gen_tuple, kept)
        assert not relations_generate(broken)


def test_mislabelled_relation_degree_is_rejected():
    pres = presentation_of(from_generators((3, 4, 5)))
    last = pres.relations[-1]
    for shift in (-1, 1):
        relabelled = BinomialRelation(last.lhs, last.rhs, last.degree + shift)
        bad = Presentation(pres.gen_tuple, pres.relations[:-1] + (relabelled,))
        with pytest.raises(PresentationError,
                           match=rf"\(0, 0, 2\) - \(2, 1, 0\) .* degree "
                                 rf"{last.degree + shift}\b"):
            relations_generate(bad)


def test_factorizations():
    # the reference table of tests/oracles.py, which the original minimal
    # presentation still lists
    table = _factorization_table((3, 4, 5), 9)
    assert len(table) == 10
    assert table[9] == ((0, 1, 1), (3, 0, 0))
    assert table[1] == ()
    assert table[0] == ((0, 0, 0),)
    facs = _factorization_table((2, 3), 12)[12]
    assert facs == tuple(sorted(facs))
    assert all(2 * a + 3 * b == 12 for a, b in facs)


FACTORIZATION_GENUS = 6


def _small_tuples():
    """Every minimal and blowup tuple through FACTORIZATION_GENUS, and an
    unsorted one."""
    tuples = {(4, 2, 3)}
    for S in enumerate_by_genus(FACTORIZATION_GENUS):
        tuples.add(S.min_generators)
        tuples.add(blowup(S).generator_tuple)
    return sorted(tuples)


def test_factorization_table_matches_brute_force():
    for weights in _small_tuples():
        top = betti_degree_bound(GeneratorTuple(weights))
        table = _factorization_table(weights, top)
        assert len(table) == top + 1
        for d, facs in enumerate(table):
            assert list(facs) == naive_factorizations(weights, d), (weights, d)


def test_support_sets_match_brute_force():
    # the knapsack behind the generation check against the supports of
    # brute-force factorizations, three degrees past the Betti bound
    for weights in _small_tuples():
        top = betti_degree_bound(GeneratorTuple(weights)) + 3
        assert _support_sets(weights, top) == support_sets(weights, top), \
            weights


def test_generation_check_matches_the_tuple_reference():
    # the R-class check against the plain tuple-sum loop, on every minimal
    # and blowup presentation, whole and with one relation dropped
    curves = list(enumerate_by_genus(FACTORIZATION_GENUS)) + [
        from_generators(g) for g in large_conductor_generators()]
    presentations = set()
    for S in curves:
        for tiebreak in (False, True):
            presentations.add(presentation_of(S, tiebreak))
            presentations.add(blowup_presentation(S, tiebreak))
    verdicts = set()
    for pres in sorted(presentations, key=repr):
        variants = [pres] + [
            Presentation(pres.gen_tuple, pres.relations[:k]
                         + pres.relations[k + 1:])
            for k in range(pres.mu)]
        for variant in variants:
            for extra in (0, 3):
                got = relations_generate(variant, extra)
                assert got == reference_relations_generate(variant, extra), \
                    (variant, extra)
                verdicts.add((variant is pres, got))
    # whole presentations generate, and none does without one relation
    assert verdicts == {(True, True), (False, False)}


REFERENCE_GENUS = 9


def test_minimal_presentation_matches_the_factorization_reference():
    # the membership-test construction against the original one that
    # lists every factorization, relation for relation, both tie-breaks
    curves = list(enumerate_by_genus(REFERENCE_GENUS)) + [
        from_generators(g) for g in large_conductor_generators()]
    tuples = set()
    for S in curves:
        tuples.add(S.min_generators)
        tuples.add(blowup(S).generator_tuple)
    for weights in sorted(tuples):
        for tiebreak in (False, True):
            pres = minimal_presentation(GeneratorTuple(weights), tiebreak)
            got = tuple((r.lhs, r.rhs, r.degree) for r in pres.relations)
            assert got == reference_minimal_presentation(weights, tiebreak), \
                (weights, tiebreak)


def test_generator_tuple_validation():
    with pytest.raises(PresentationError):
        GeneratorTuple(())
    with pytest.raises(PresentationError):
        GeneratorTuple((3, 0, 5))
    tup = GeneratorTuple((4, 2, 3))
    assert tup.x_weight == 4
    assert tup.var_weights == (2, 3)
    bare = GeneratorTuple((2, 3), has_x=False)
    assert bare.var_weights == (2, 3)
    with pytest.raises(PresentationError):
        bare.x_weight


def test_binomial_relation_validation():
    with pytest.raises(PresentationError):
        BinomialRelation((1, 0), (1, 0), 2)
    rel = BinomialRelation((0, 2, 0), (1, 0, 1), 8)
    assert rel.coefficients(skip_first=True) == (2, -1)
    assert rel.coefficients(skip_first=False) == (-1, 2, -1)


DEVIATIONS = {
    (1,): 0,
    (2, 3): 0,
    (4, 6, 7): 0,
    (3, 4, 5): 1,
    (3, 5, 7): 1,
    (3, 7, 8): 1,
    (4, 5, 6, 7): 3,
}


@pytest.mark.parametrize("gens", sorted(DEVIATIONS))
def test_deviation(gens):
    assert deviation(from_generators(gens)) == DEVIATIONS[gens]


CLASSES = {
    (1,): "regular",
    (2, 3): "stable CI",
    (4, 5): "stable CI",
    (4, 6, 7): "stable CI",
    (6, 9, 20): "stable CI",
    (3, 4, 5): "nice ACI",
    (3, 5, 7): "nice ACI",
    (3, 7, 8): "ACI-not-nice",
    (4, 5, 6, 7): "other",
    (5, 7, 9, 11, 13): "other",
}


@pytest.mark.parametrize("gens", sorted(CLASSES))
def test_classification(gens):
    assert classify_transform(from_generators(gens)) == CLASSES[gens]


def test_betti_degree_bound():
    assert betti_degree_bound(GeneratorTuple((3, 4, 5))) == 13
    pres = presentation_of(from_generators((6, 9, 20)))
    assert max(pres.betti_degrees) <= betti_degree_bound(pres.gen_tuple)


BLOWUP_PRESENTATIONS = {
    (2, 3): ((2, 1), 1, (2,)),
    (3, 4, 5): ((3, 1, 2), 2, (2, 3)),
    (4, 6, 7): ((4, 2, 3), 2, (4, 6)),
}


@pytest.mark.parametrize("gens", sorted(BLOWUP_PRESENTATIONS))
def test_blowup_presentations(gens):
    pres = blowup_presentation(from_generators(gens))
    weights, mu, betti = BLOWUP_PRESENTATIONS[gens]
    assert pres.gen_tuple.weights == weights
    assert pres.mu == mu
    assert pres.betti_degrees == betti
    assert relations_generate(pres)


def test_reverse_tiebreak_keeps_mu_and_degrees():
    for gens in sorted(PRESENTATIONS):
        S = from_generators(gens)
        plain = presentation_of(S)
        flipped = presentation_of(S, reverse_tiebreak=True)
        assert flipped.mu == plain.mu
        assert flipped.betti_degrees == plain.betti_degrees
        assert relations_generate(flipped)


def test_reverse_tiebreak_changes_a_representative():
    # <4,5,6,7> has a degree with three factorization components, so the
    # two tie-breaking rules must actually pick different binomials.
    S = from_generators((4, 5, 6, 7))
    plain = presentation_of(S)
    flipped = presentation_of(S, reverse_tiebreak=True)
    assert plain.relations != flipped.relations


def test_rescaled_relation_generators():
    S = from_generators((3, 4, 5))
    resc = rescaled_relation_generators(S, presentation_of(S))
    assert [(r.lhs, r.rhs, r.degree) for r in resc] == [
        ((0, 2, 0), (0, 0, 1), 2),
        ((0, 1, 1), (1, 0, 0), 3),
        ((0, 0, 2), (1, 1, 0), 4),
    ]


def test_rescaled_degrees_drop_by_twice_the_multiplicity():
    S = from_generators((4, 6, 7))
    pres = presentation_of(S)
    resc = rescaled_relation_generators(S, pres)
    assert [r.degree for r in resc] == \
        [r.degree - 2 * S.multiplicity for r in pres.relations]
    bw = blowup(S).generator_tuple
    for rel in resc:
        assert sum(e * w for e, w in zip(rel.lhs, bw)) == rel.degree


def test_rescaling_rejects_foreign_presentations():
    S = from_generators((4, 6, 7))
    with pytest.raises(PresentationError):
        rescaled_relation_generators(S, presentation_of(from_generators((2, 3))))
    with pytest.raises(PresentationError):
        rescaled_relation_generators(S, blowup_presentation(S))


def test_rescaling_rejects_low_degree_sides():
    S = from_generators((2, 3))
    bogus = Presentation(
        GeneratorTuple((2, 3)), (BinomialRelation((0, 1), (0, 2), 3),))
    with pytest.raises(PresentationError, match="total degree"):
        rescaled_relation_generators(S, bogus)


def test_rescaling_checks_degree_bookkeeping():
    S = from_generators((2, 3))
    bogus = Presentation(
        GeneratorTuple((2, 3)), (BinomialRelation((0, 2), (3, 0), 8),))
    with pytest.raises(PresentationError, match="bookkeeping"):
        rescaled_relation_generators(S, bogus)


def test_minimal_presentation_of_plane_curves_is_principal():
    for a, b in [(2, 5), (3, 7), (4, 9), (5, 6)]:
        pres = minimal_presentation(GeneratorTuple((a, b)))
        assert pres.mu == 1
        assert pres.betti_degrees == (a * b,)
