"""Closed combinatorial formulas and the per-curve verification report.

Every formula here is checked elsewhere against an exact graded oracle;
none of them feeds the oracle.  full_report packages one curve's worth of
quantities with the outcome of every applicable identity, so a single
record says which theorems held and which had nothing to say.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import FormulaNotApplicable
from .ideals import (dedekind_different, different_inverse_gap,
                     kaehler_different)
from .oracle import (RelationModuleLengths, colength_via_derivative_spans,
                     exactness_defect, genus_via_derivative_spans,
                     relation_module_lengths, relative_differential_dims,
                     torsion_length)
from .presentation import (blowup_presentation, classify_transform, deviation,
                           presentation_of)
from .semigroup import NumericalSemigroup, blowup


def normalization_differential_colength(S: NumericalSemigroup) -> int:
    """Length of the normalization's differentials over the parameter line.

    The normalization is a power series ring and the parameter has value
    equal to the multiplicity, so the length is multiplicity - 1.
    """
    return S.multiplicity - 1


def complete_intersection_torsion(S: NumericalSemigroup) -> int:
    """Torsion length of a complete intersection curve: twice the genus."""
    if deviation(S) != 0:
        raise FormulaNotApplicable(f"{S} is not a complete intersection")
    return 2 * S.genus


def ci_drop_lower_bound(S: NumericalSemigroup) -> int:
    """Least possible torsion drop under one transform of a complete
    intersection: (embdim - 1) times the multiplicity."""
    if deviation(S) != 0:
        raise FormulaNotApplicable(f"{S} is not a complete intersection")
    return (S.embdim - 1) * S.multiplicity


def stable_ci_drop(S: NumericalSemigroup) -> int:
    """Torsion drop when curve and transform are complete intersections:
    twice the number of gaps removed by the transform."""
    if classify_transform(S) != "stable CI":
        raise FormulaNotApplicable(f"{S} is not a stable complete intersection")
    return 2 * blowup(S).colength


def nice_aci_drop(S: NumericalSemigroup,
                  reverse_tiebreak: bool = False) -> int:
    """Torsion drop for an almost complete intersection whose transform is
    a complete intersection: twice the removed gaps plus the length of the
    inverted different over the trace dual."""
    if classify_transform(S) != "nice ACI":
        raise FormulaNotApplicable(
            f"{S} is not an almost complete intersection with complete "
            f"intersection transform")
    gap = different_inverse_gap(S, presentation_of(S, reverse_tiebreak))
    return 2 * blowup(S).colength + gap


def general_drop(S: NumericalSemigroup, reverse_tiebreak: bool = False) -> int:
    """Torsion drop for any singular curve, from module lengths.

    The drop equals the blowup-over-rescaled length minus
    (embdim - 1) * (removed gaps - multiplicity).
    """
    if S.embdim == 1:
        raise FormulaNotApplicable("the curve is already regular")
    lengths = relation_module_lengths(S, reverse_tiebreak)
    n_vars = S.embdim - 1
    away = blowup(S).colength
    return lengths.blowup_over_rescaled - n_vars * (away - S.multiplicity)


class ChainStep(NamedTuple):
    """One transform step with the formula-side drop prediction."""

    generators: tuple[int, ...]
    classification: str
    formula_name: str
    formula_drop: int


class ChainResult(NamedTuple):
    """A full transform chain down to a regular curve.

    The formula drops are summed without consulting the torsion oracle on
    any intermediate curve; telescoping against the starting torsion is
    therefore a real test, not bookkeeping.
    """

    steps: tuple[ChainStep, ...]
    start_torsion: int
    telescoped_total: int

    @property
    def telescopes(self) -> bool:
        return self.start_torsion == self.telescoped_total


def drop_formula_for(S: NumericalSemigroup,
                     reverse_tiebreak: bool = False) -> ChainStep:
    """The sharpest applicable drop formula for one transform step.

    Stable complete intersections and nice almost complete intersections
    get their closed combinatorial forms; everything else falls back to
    the module-length formula.  None of these consults the torsion oracle.
    """
    label = classify_transform(S)
    if label == "stable CI":
        name, drop = "stable_ci_drop", stable_ci_drop(S)
    elif label == "nice ACI":
        name, drop = "nice_aci_drop", nice_aci_drop(S, reverse_tiebreak)
    else:
        name, drop = "general_drop", general_drop(S, reverse_tiebreak)
    return ChainStep(S.min_generators, label, name, drop)


def build_chain(S: NumericalSemigroup,
                reverse_tiebreak: bool = False) -> ChainResult:
    """Transform repeatedly until regular, collecting formula drops; the
    chain ends at a regular curve with zero torsion, so their sum must
    telescope to the starting torsion length."""
    steps = []
    current = S
    while current.embdim > 1:
        steps.append(drop_formula_for(current, reverse_tiebreak))
        current = blowup(current).transformed
    return ChainResult(tuple(steps), torsion_length(S, reverse_tiebreak).length,
                       sum(s.formula_drop for s in steps))


class CurveReport(NamedTuple):
    """Everything the verifier computed for one curve, plus check outcomes.

    checks maps identity names to True (held), False (violated), or None
    (not applicable to this curve).
    """

    generators: tuple[int, ...]
    multiplicity: int
    embedding_dimension: int
    genus: int
    frobenius: int
    conductor: int
    symmetric: bool
    deviation: int
    blowup_deviation: int
    classification: str
    blowup_generators: tuple[int, ...]
    blowup_genus: int
    colength: int
    torsion_length: int
    blowup_torsion_length: int
    torsion_drop: int
    differential_total: int
    blowup_differential_total: int
    exactness_defect: int
    blowup_exactness_defect: int
    different_inverse_gap: int | None
    blowup_over_rescaled: int | None
    blowup_over_lifted: int | None
    lifted_over_rescaled: int | None
    rescaled_over_original: int | None
    relation_degrees: tuple[int, ...]
    blowup_relation_count: int
    kaehler_different: str
    checks: dict[str, bool | None]

    @property
    def failed(self) -> tuple[str, ...]:
        """The names of the violated checks, in check order."""
        return tuple(name for name, ok in self.checks.items() if ok is False)

    @property
    def all_pass(self) -> bool:
        return not self.failed

    def to_dict(self) -> dict:
        out = {k: list(v) if isinstance(v, tuple) else v
               for k, v in self._asdict().items()}
        out["checks"] = dict(self.checks)
        out["all_pass"] = self.all_pass
        return out


def full_report(S: NumericalSemigroup,
                reverse_tiebreak: bool = False) -> CurveReport:
    """Compute every quantity and evaluate every applicable identity.

    A regular curve takes the same path; the checks that need a
    singularity stay None, and so do the inverse different gap and the
    relation-module lengths.
    """
    step = blowup(S)
    S1 = step.transformed
    tor = torsion_length(S, reverse_tiebreak)
    tor1 = torsion_length(S1, reverse_tiebreak)
    defect = exactness_defect(S)
    defect1 = exactness_defect(S1)
    pres = presentation_of(S, reverse_tiebreak)
    bpres = blowup_presentation(S, reverse_tiebreak)
    omega = relative_differential_dims(pres)
    omega1 = relative_differential_dims(bpres)
    dk = kaehler_different(S, pres)
    away = step.colength
    n_vars = S.embdim - 1
    q = S.multiplicity
    label = classify_transform(S)
    drop = tor.length - tor1.length
    singular = S.embdim > 1
    ci = singular and deviation(S) == 0
    # the oracles run in a fixed order, these two before the relation-module
    # lengths, so a curve that more than one of them fails reports the first
    dedekind = dedekind_different(S)
    chain = build_chain(S, reverse_tiebreak)
    gap = lengths = predicted_drop = None
    if singular:
        lengths = relation_module_lengths(S, reverse_tiebreak)
        gap = different_inverse_gap(S, pres)
        predicted_drop = general_drop(S, reverse_tiebreak)

    checks = {
        "torsion_routes_match": tor.route_a == tor.route_b,
        "blowup_torsion_routes_match":
            tor1.route_a == tor1.route_b if singular else None,
        "exactness_defect_zero": defect == 0,
        "blowup_exactness_defect_zero": defect1 == 0 if singular else None,
        "normalization_colength_matches_genus":
            genus_via_derivative_spans(S) == S.genus,
        "blowup_colength_matches_gap_count":
            colength_via_derivative_spans(S, S1) == away if singular else None,
        "kaehler_equals_dedekind": dk == dedekind,
        "blowup_torsion_via_base_presentation": tor1.length == omega1.total
            - normalization_differential_colength(S) - defect1
            if singular else None,
        "differential_drop_identity":
            omega.total - omega1.total == predicted_drop if singular else None,
        "general_drop_identity": drop == predicted_drop if singular else None,
        "rescaled_sandwich_length": lengths.rescaled_over_original
            == 2 * n_vars * q if singular else None,
        "torsion_positive_when_singular": tor.length > 0 if singular else None,
        "ci_torsion_formula":
            tor.length == complete_intersection_torsion(S) if ci else None,
        "ci_projective_dimension_split": omega.total == 2 * S.genus
            + normalization_differential_colength(S) if ci else None,
        "ci_drop_decomposition": lengths.blowup_over_rescaled
            == lengths.blowup_over_lifted + n_vars * away if ci else None,
        "ci_drop_via_lifted_module":
            drop == lengths.blowup_over_lifted + n_vars * q if ci else None,
        "ci_drop_lower_bound": drop >= ci_drop_lower_bound(S) if ci else None,
        "ci_different_gap_zero": gap == 0 if ci else None,
        "aci_torsion_formula": tor.length == genus_via_derivative_spans(S)
            + S.genus + gap if deviation(S) == 1 else None,
        "stable_ci_drop_formula":
            drop == stable_ci_drop(S) if label == "stable CI" else None,
        "nice_aci_drop_formula": drop == nice_aci_drop(S, reverse_tiebreak)
            if label == "nice ACI" else None,
        "chain_telescopes": chain.telescopes,
    }

    module_lengths = (lengths._asdict() if lengths is not None else
                      dict.fromkeys(RelationModuleLengths._fields))
    return CurveReport(
        generators=S.min_generators,
        multiplicity=q,
        embedding_dimension=S.embdim,
        genus=S.genus,
        frobenius=S.frobenius,
        conductor=S.conductor,
        symmetric=S.is_symmetric,
        deviation=deviation(S),
        blowup_deviation=deviation(S1),
        classification=label,
        blowup_generators=S1.min_generators,
        blowup_genus=S1.genus,
        colength=away,
        torsion_length=tor.length,
        blowup_torsion_length=tor1.length,
        torsion_drop=drop,
        differential_total=omega.total,
        blowup_differential_total=omega1.total,
        exactness_defect=defect,
        blowup_exactness_defect=defect1,
        different_inverse_gap=gap,
        **module_lengths,
        relation_degrees=pres.betti_degrees,
        blowup_relation_count=bpres.mu,
        kaehler_different=str(dk),
        checks=checks,
    )
