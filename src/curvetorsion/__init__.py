"""Verified torsion and length computations for monomial algebroid curves.

The package computes, for the local ring of a monomial curve given by a
numerical semigroup: the torsion of its differential module, the same
data for its first quadratic transform, the nested relation-module
lengths connecting the two, and the dualizing ideals tying everything
together.  Every closed formula is checked against an exact graded
oracle, and every oracle guards its own degree cutoffs.
"""

from .campaign import (CampaignConfig, CampaignSummary, ChainResult, ChainStep,
                       build_chain, run_campaign)
from .errors import FormulaNotApplicable, OracleError
from .formulas import (CHECK_NAMES, CurveReport, chain_drop_sum,
                       ci_drop_lower_bound, complete_intersection_torsion,
                       drop_formula_for, full_report, general_drop,
                       nice_aci_drop, normalization_differential_colength,
                       stable_ci_drop)
from .ideals import (IdealError, ValueSet, complementary_module,
                     dedekind_different, different_inverse_gap,
                     fitting_minor_degrees, inverse, kaehler_different,
                     make_value_set, quotient_length, value_set_of)
from .oracle import (GradedDimensionLedger, RelationModuleLengths,
                     TorsionResult, colength_via_derivative_spans,
                     differential_dims_of_transform, exactness_defect,
                     genus_via_derivative_spans, relation_module_lengths,
                     relative_differential_dims, torsion_length)
from .presentation import (BinomialRelation, GeneratorTuple, Presentation,
                           PresentationError, betti_degree_bound,
                           blowup_presentation, classify_transform,
                           deviation, factorizations, minimal_presentation,
                           presentation_of, relations_generate,
                           rescaled_relation_generators)
from .semigroup import (BlowupResult, NumericalSemigroup, SemigroupError,
                        apery_set, blowup, colength, enumerate_by_genus,
                        from_generators)

__all__ = [
    "BinomialRelation", "BlowupResult", "CampaignConfig", "CampaignSummary",
    "ChainResult", "ChainStep", "CHECK_NAMES", "CurveReport",
    "FormulaNotApplicable", "GeneratorTuple", "GradedDimensionLedger",
    "IdealError", "NumericalSemigroup", "OracleError", "Presentation",
    "PresentationError", "RelationModuleLengths", "SemigroupError",
    "TorsionResult", "ValueSet", "apery_set", "blowup", "blowup_presentation",
    "build_chain", "chain_drop_sum", "ci_drop_lower_bound",
    "classify_transform", "colength", "colength_via_derivative_spans",
    "complementary_module", "complete_intersection_torsion",
    "dedekind_different", "deviation", "different_inverse_gap",
    "differential_dims_of_transform", "drop_formula_for", "enumerate_by_genus",
    "exactness_defect", "factorizations", "fitting_minor_degrees",
    "from_generators", "full_report", "general_drop",
    "genus_via_derivative_spans", "inverse", "kaehler_different",
    "make_value_set", "minimal_presentation", "nice_aci_drop",
    "normalization_differential_colength", "presentation_of",
    "quotient_length", "relation_module_lengths", "relations_generate",
    "relative_differential_dims", "rescaled_relation_generators",
    "run_campaign", "stable_ci_drop", "torsion_length", "value_set_of",
]
