"""Closed formulas against the oracle, and the per-curve report."""

from __future__ import annotations

import json

import pytest

from curvetorsion import (CHECK_NAMES, FormulaNotApplicable, blowup,
                          blowup_presentation, chain_drop_sum,
                          ci_drop_lower_bound, complete_intersection_torsion,
                          different_inverse_gap, drop_formula_for,
                          from_generators, full_report, general_drop,
                          genus_via_derivative_spans, nice_aci_drop,
                          normalization_differential_colength,
                          presentation_of, relative_differential_dims,
                          stable_ci_drop, torsion_length)


def test_normalization_differential_colength():
    assert normalization_differential_colength(from_generators((4, 6, 7))) == 3
    assert normalization_differential_colength(from_generators((1,))) == 0


def test_complete_intersection_torsion():
    assert complete_intersection_torsion(from_generators((2, 3))) == 2
    assert complete_intersection_torsion(from_generators((4, 5))) == 12
    assert complete_intersection_torsion(from_generators((4, 6, 7))) == 10
    assert complete_intersection_torsion(from_generators((6, 9, 20))) == 44
    with pytest.raises(FormulaNotApplicable):
        complete_intersection_torsion(from_generators((3, 4, 5)))


def test_ci_drop_lower_bound():
    assert ci_drop_lower_bound(from_generators((2, 3))) == 2
    assert ci_drop_lower_bound(from_generators((4, 6, 7))) == 8
    with pytest.raises(FormulaNotApplicable):
        ci_drop_lower_bound(from_generators((3, 4, 5)))


def test_stable_ci_drop():
    assert stable_ci_drop(from_generators((2, 3))) == 2
    assert stable_ci_drop(from_generators((4, 6, 7))) == 8
    assert stable_ci_drop(from_generators((4, 5))) == 12
    with pytest.raises(FormulaNotApplicable):
        stable_ci_drop(from_generators((3, 4, 5)))


def test_nice_aci_drop():
    assert nice_aci_drop(from_generators((3, 4, 5))) == 5
    assert nice_aci_drop(from_generators((3, 5, 7))) == 5
    with pytest.raises(FormulaNotApplicable):
        nice_aci_drop(from_generators((2, 3)))
    with pytest.raises(FormulaNotApplicable):
        nice_aci_drop(from_generators((3, 7, 8)))


def test_general_drop():
    assert general_drop(from_generators((4, 5, 6, 7))) == 9
    # the general form agrees with the class-specific ones where both apply
    assert general_drop(from_generators((4, 6, 7))) == 8
    assert general_drop(from_generators((3, 4, 5))) == 5
    with pytest.raises(FormulaNotApplicable):
        general_drop(from_generators((1,)))


def test_drop_formulas_match_the_oracle():
    for gens in [(2, 3), (3, 4, 5), (4, 5), (4, 6, 7), (4, 5, 6, 7),
                 (3, 5, 7), (3, 7, 8)]:
        S = from_generators(gens)
        S1 = blowup(S).transformed
        oracle_drop = torsion_length(S).length - torsion_length(S1).length
        name, value = drop_formula_for(S)
        assert value == oracle_drop, (gens, name)


def test_drop_formula_selection():
    assert drop_formula_for(from_generators((4, 6, 7))) == ("stable_ci_drop", 8)
    assert drop_formula_for(from_generators((3, 4, 5))) == ("nice_aci_drop", 5)
    assert drop_formula_for(from_generators((4, 5, 6, 7))) == \
        ("general_drop", 9)
    assert drop_formula_for(from_generators((3, 7, 8))) == ("general_drop", 5)


def test_chain_drop_sum():
    assert chain_drop_sum(from_generators((4, 6, 7))) == 10
    assert chain_drop_sum(from_generators((3, 4, 5))) == 5
    assert chain_drop_sum(from_generators((3, 5, 7))) == 7
    assert chain_drop_sum(from_generators((3, 7, 8))) == 10
    assert chain_drop_sum(from_generators((1,))) == 0


def test_general_drop_is_the_differential_colength():
    for gens in [(2, 3), (3, 4, 5), (4, 5), (4, 6, 7), (4, 5, 6, 7)]:
        S = from_generators(gens)
        here = relative_differential_dims(presentation_of(S)).total
        there = relative_differential_dims(blowup_presentation(S)).total
        assert general_drop(S) == here - there
    with pytest.raises(FormulaNotApplicable):
        general_drop(from_generators((1,)))


def test_aci_torsion_splits_into_three_parts():
    S = from_generators((3, 4, 5))
    spans = genus_via_derivative_spans(S)
    gap = different_inverse_gap(S, presentation_of(S))
    assert (spans, S.genus, gap) == (2, 2, 1)
    assert torsion_length(S).length == spans + S.genus + gap == 5


def test_full_report_on_a_stable_complete_intersection():
    report = full_report(from_generators((4, 6, 7)))
    assert report.generators == (4, 6, 7)
    assert report.classification == "stable CI"
    assert report.torsion_length == 10
    assert report.blowup_torsion_length == 2
    assert report.torsion_drop == 8
    assert report.differential_total == 13
    assert report.blowup_differential_total == 5
    assert report.colength == 4
    assert report.different_inverse_gap == 0
    assert (report.blowup_over_rescaled, report.blowup_over_lifted,
            report.lifted_over_rescaled,
            report.rescaled_over_original) == (8, 0, 8, 16)
    assert report.all_pass
    assert report.checks["aci_torsion_formula"] is None
    assert report.checks["nice_aci_drop_formula"] is None
    failed = [k for k, v in report.checks.items() if v is False]
    assert failed == []


def test_full_report_flags_the_different_mismatch():
    report = full_report(from_generators((4, 5, 6, 7)))
    failed = [k for k, v in report.checks.items() if v is False]
    assert failed == ["kaehler_equals_dedekind"]
    assert not report.all_pass
    assert report.deviation == 3
    assert report.torsion_length == 9 and report.torsion_drop == 9


def test_full_report_on_the_regular_curve():
    report = full_report(from_generators((1,)))
    assert report.classification == "regular"
    assert report.torsion_length == 0 and report.torsion_drop == 0
    assert report.all_pass
    assert report.checks["torsion_routes_match"] is True
    assert report.checks["kaehler_equals_dedekind"] is True
    assert report.checks["ci_torsion_formula"] is None
    assert report.different_inverse_gap is None
    assert report.blowup_over_rescaled is None


def test_report_checks_cover_exactly_the_published_names():
    for gens in [(1,), (2, 3), (4, 5, 6, 7)]:
        report = full_report(from_generators(gens))
        assert tuple(report.checks) == CHECK_NAMES


def test_report_serializes_without_floats():
    report = full_report(from_generators((3, 4, 5)))
    data = report.to_dict()
    text = json.dumps(data)
    assert json.loads(text) == data

    def no_floats(value):
        if isinstance(value, float):
            return False
        if isinstance(value, dict):
            return all(no_floats(v) for v in value.values())
        if isinstance(value, list):
            return all(no_floats(v) for v in value)
        return True

    assert no_floats(data)
    assert data["torsion_length"] == 5
    assert data["all_pass"] is True


def test_every_check_name_fires_somewhere():
    # each identity must be exercised (not n/a) on at least one curve of
    # this small sample, so no check can silently rot
    sample = [(1,), (2, 3), (3, 4, 5), (4, 6, 7), (4, 5, 6, 7)]
    seen = {name: False for name in CHECK_NAMES}
    for gens in sample:
        for name, value in full_report(from_generators(gens)).checks.items():
            if value is not None:
                seen[name] = True
    assert all(seen.values()), [n for n, s in seen.items() if not s]
