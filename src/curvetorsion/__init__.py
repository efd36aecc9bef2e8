"""Verified torsion and length computations for monomial algebroid curves.

The package computes, for the local ring of a monomial curve given by a
numerical semigroup: the torsion of its differential module, the same
data for its first quadratic transform, the nested relation-module
lengths connecting the two, and the dualizing ideals tying everything
together.  Every closed formula is checked against an exact graded
oracle, and every oracle guards its own degree cutoffs.
"""

import types

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
                     exactness_defect, genus_via_derivative_spans,
                     relation_module_lengths, relative_differential_dims,
                     torsion_length)
from .presentation import (BinomialRelation, GeneratorTuple, Presentation,
                           PresentationError, betti_degree_bound,
                           blowup_presentation, classify_transform,
                           deviation, minimal_presentation, presentation_of,
                           relations_generate, rescaled_relation_generators)
from .semigroup import (BlowupResult, NumericalSemigroup, SemigroupError,
                        apery_set, blowup, colength, enumerate_by_genus,
                        from_generators)

__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_")
                 and not isinstance(value, types.ModuleType))
