"""Closed combinatorial formulas and the per-curve verification report.

Every formula here is checked elsewhere against an exact graded oracle;
none of them feeds the oracle.  full_report packages one curve's worth of
quantities with the outcome of every applicable identity, so a single
record says which theorems held and which had nothing to say.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

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


def drop_formula_for(S: NumericalSemigroup,
                     reverse_tiebreak: bool = False) -> tuple[str, int]:
    """The sharpest applicable drop formula for one transform step.

    Stable complete intersections and nice almost complete intersections
    get their closed combinatorial forms; everything else falls back to
    the module-length formula.  None of these consults the torsion oracle.
    """
    label = classify_transform(S)
    if label == "stable CI":
        return "stable_ci_drop", stable_ci_drop(S)
    if label == "nice ACI":
        return "nice_aci_drop", nice_aci_drop(S, reverse_tiebreak)
    return "general_drop", general_drop(S, reverse_tiebreak)


def _chain_drops(S: NumericalSemigroup, reverse_tiebreak: bool
                 ) -> list[tuple[NumericalSemigroup, str, int]]:
    """(curve, formula name, drop) for every transform step down to a
    regular curve; like drop_formula_for, it never consults the torsion
    oracle."""
    out = []
    current = S
    while current.embdim > 1:
        out.append((current, *drop_formula_for(current, reverse_tiebreak)))
        current = blowup(current).transformed
    return out


def chain_drop_sum(S: NumericalSemigroup,
                   reverse_tiebreak: bool = False) -> int:
    """Sum of per-step formula drops along the full transform chain.

    The chain ends at a regular curve with zero torsion, so the sum must
    telescope to the starting torsion length.
    """
    return sum(drop for _, _, drop in _chain_drops(S, reverse_tiebreak))


@dataclass
class CurveReport:
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
    checks: dict[str, bool | None] = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(v is not False for v in self.checks.values())

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        for k, v in out.items():
            if isinstance(v, tuple):
                out[k] = list(v)
        out["checks"] = dict(self.checks)
        out["all_pass"] = self.all_pass
        return out


CHECK_NAMES = (
    "torsion_routes_match",
    "blowup_torsion_routes_match",
    "exactness_defect_zero",
    "blowup_exactness_defect_zero",
    "normalization_colength_matches_genus",
    "blowup_colength_matches_gap_count",
    "kaehler_equals_dedekind",
    "blowup_torsion_via_base_presentation",
    "differential_drop_identity",
    "general_drop_identity",
    "rescaled_sandwich_length",
    "torsion_positive_when_singular",
    "ci_torsion_formula",
    "ci_projective_dimension_split",
    "ci_drop_decomposition",
    "ci_drop_via_lifted_module",
    "ci_drop_lower_bound",
    "ci_different_gap_zero",
    "aci_torsion_formula",
    "stable_ci_drop_formula",
    "nice_aci_drop_formula",
    "chain_telescopes",
)


def full_report(S: NumericalSemigroup,
                reverse_tiebreak: bool = False) -> CurveReport:
    """Compute every quantity and evaluate every applicable identity.

    A regular curve takes the same path; the checks that need a
    singularity stay None, and so do the inverse different gap and the
    relation-module lengths.
    """
    checks: dict[str, bool | None] = {name: None for name in CHECK_NAMES}
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
    gap = lengths = None

    checks["torsion_routes_match"] = tor.route_a == tor.route_b
    checks["exactness_defect_zero"] = defect == 0
    checks["normalization_colength_matches_genus"] = \
        genus_via_derivative_spans(S) == S.genus
    checks["kaehler_equals_dedekind"] = dk == dedekind_different(S)
    checks["chain_telescopes"] = chain_drop_sum(S, reverse_tiebreak) \
        == tor.length

    if S.embdim > 1:
        lengths = relation_module_lengths(S, reverse_tiebreak)
        gap = different_inverse_gap(S, pres)
        predicted_drop = general_drop(S, reverse_tiebreak)
        checks["blowup_torsion_routes_match"] = tor1.route_a == tor1.route_b
        checks["blowup_exactness_defect_zero"] = defect1 == 0
        checks["blowup_colength_matches_gap_count"] = \
            colength_via_derivative_spans(S, S1) == away
        checks["blowup_torsion_via_base_presentation"] = \
            tor1.length == omega1.total \
            - normalization_differential_colength(S) - defect1
        checks["differential_drop_identity"] = \
            omega.total - omega1.total == predicted_drop
        checks["general_drop_identity"] = drop == predicted_drop
        checks["rescaled_sandwich_length"] = \
            lengths.rescaled_over_original == 2 * n_vars * q
        checks["torsion_positive_when_singular"] = tor.length > 0

        if deviation(S) == 0:
            checks["ci_torsion_formula"] = \
                tor.length == complete_intersection_torsion(S)
            checks["ci_projective_dimension_split"] = \
                omega.total == 2 * S.genus \
                + normalization_differential_colength(S)
            checks["ci_drop_decomposition"] = \
                lengths.blowup_over_rescaled == lengths.blowup_over_lifted \
                + n_vars * away
            checks["ci_drop_via_lifted_module"] = \
                drop == lengths.blowup_over_lifted + n_vars * q
            checks["ci_drop_lower_bound"] = drop >= ci_drop_lower_bound(S)
            checks["ci_different_gap_zero"] = gap == 0
        if deviation(S) == 1:
            checks["aci_torsion_formula"] = \
                tor.length == genus_via_derivative_spans(S) + S.genus + gap
        if label == "stable CI":
            checks["stable_ci_drop_formula"] = drop == stable_ci_drop(S)
        if label == "nice ACI":
            checks["nice_aci_drop_formula"] = \
                drop == nice_aci_drop(S, reverse_tiebreak)

    module_lengths = (asdict(lengths) if lengths is not None else
                      dict.fromkeys(f.name for f in
                                    fields(RelationModuleLengths)))
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
