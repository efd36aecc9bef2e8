"""Exact graded oracles for differential modules of monomial curves.

Everything here is computed degree by degree from integer matrices.  In
each degree the ambient free module has one slot per variable whose shift
lands in the coefficient semigroup, and a relation contributes one row:
the unique monomial multiple of its derivative vector in that degree.
Dimensions are slot counts minus exact integer ranks.

Each quantity carries a provable degree cutoff.  The code always computes
one stability window past the cutoff and raises OracleError if anything
is still alive there, so a wrong cutoff cannot silently truncate a sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import OracleError
from .ideals import fitting_minor_degrees
from .linalg import integer_rank
from .presentation import (GeneratorTuple, Presentation, _tuple_semigroup,
                           blowup_presentation, presentation_of,
                           rescaled_relation_generators)
from .semigroup import NumericalSemigroup, blowup


@dataclass(frozen=True)
class GradedDimensionLedger:
    """Nonzero graded dimensions of a finite-length module, with audit data."""

    per_degree: tuple[tuple[int, int], ...]
    total: int
    cutoff: int
    window: tuple[int, int]

    def dimension(self, degree: int) -> int:
        return dict(self.per_degree).get(degree, 0)


@dataclass(frozen=True)
class TorsionResult:
    """Torsion length with both independent routes that produced it."""

    length: int
    route_a: int
    route_b: int
    contributions: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class RelationModuleLengths:
    """Lengths between the four nested relation modules after one transform.

    All four live in the free module on the transformed variables.  The
    rescaled module is spanned over the original ring by the derivative
    vectors of the rescaled relations; lifting extends the coefficients
    to the transformed ring; the blowup module comes from the transformed
    curve's own relations; the original module is the rescaled one times
    the square of the distinguished parameter.
    """

    blowup_over_rescaled: int
    blowup_over_lifted: int
    lifted_over_rescaled: int
    rescaled_over_original: int


def _degree_matrix(rows, valid_cols):
    """Restrict derivative rows to the valid slots of this degree.

    A nonzero coefficient outside a valid slot would mean the module
    element escapes the ambient free module, which the construction
    makes impossible; it is still checked.
    """
    col_set = set(valid_cols)
    out = []
    for coeffs in rows:
        for i, c in enumerate(coeffs):
            if c and i not in col_set:
                raise OracleError(
                    f"derivative row has coefficient {c} in invalid slot {i}")
        out.append([coeffs[i] for i in valid_cols])
    return out


@lru_cache(maxsize=None)
def relative_differential_dims(pres: Presentation) -> GradedDimensionLedger:
    """Graded dimensions of the differentials relative to the parameter line.

    The module is presented by one slot per non-distinguished variable
    and one row per relation, differentiated in those variables only;
    coefficients live in the semigroup generated by the full weight
    tuple.  The cutoff is max weight + ambient conductor + least value of
    the derivative Fitting ideal; one window of width max weight past the
    cutoff is verified to be zero.
    """
    tup = pres.gen_tuple
    if not tup.var_weights:
        return GradedDimensionLedger((), 0, 0, (0, 0))
    ambient = _tuple_semigroup(tup.weights)
    width = max(tup.weights)
    cutoff = width + ambient.conductor + min(fitting_minor_degrees(pres))
    col_weights = tup.var_weights
    per_degree = []
    total = 0
    for d in range(cutoff + width + 1):
        valid_cols = [i for i, w in enumerate(col_weights)
                      if ambient.contains(d - w)]
        rows = [rel.coefficients(skip_first=tup.has_x)
                for rel in pres.relations if ambient.contains(d - rel.degree)]
        dim = len(valid_cols) - integer_rank(_degree_matrix(rows, valid_cols))
        if dim == 0:
            continue
        if d > cutoff:
            raise OracleError(
                f"cutoff violation: differential dimension {dim} at degree "
                f"{d} beyond {cutoff}")
        per_degree.append((d, dim))
        total += dim
    return GradedDimensionLedger(tuple(per_degree), total, cutoff,
                                 (cutoff, cutoff + width))


def _span_values(S: NumericalSemigroup, bound: int) -> set[int]:
    """Values of ring multiples of derivatives of ring elements, below bound.

    A monomial of value a times the derivative of one of value m has
    value a + m - 1; m = 0 differentiates to zero and is excluded.
    """
    members = S.members(bound + 1)
    out = set()
    for m in members:
        if m == 0:
            continue
        for a in members:
            v = a + m - 1
            if v < bound:
                out.add(v)
    return out


def _derivative_values(S: NumericalSemigroup, bound: int) -> set[int]:
    """Values of derivatives of ring elements alone, below bound."""
    return {m - 1 for m in S.members(bound + 1) if m >= 1 and m - 1 < bound}


def exactness_defect(S: NumericalSemigroup) -> int:
    """Length gap between the span of derivatives and its ring closure.

    Both value sets agree from the conductor on, so the comparison below
    twice the conductor plus a margin is complete.
    """
    bound = 2 * S.conductor + 2
    span = _span_values(S, bound)
    plain = _derivative_values(S, bound)
    if not plain <= span:
        raise OracleError("derivative values escaped their ring closure")
    return len(span - plain)


def genus_via_derivative_spans(S: NumericalSemigroup) -> int:
    """Colength of the derivative span of the ring inside the normalization's.

    The normalization's span is every nonnegative value, so the count
    recovers the number of gaps by an independent route.
    """
    bound = S.conductor + 1
    full = set(range(bound))
    return len(full - _span_values(S, bound))


def colength_via_derivative_spans(S: NumericalSemigroup,
                                  T: NumericalSemigroup) -> int:
    """Length of the derivative span of a larger ring over that of a smaller."""
    bound = S.conductor + 1
    big = _span_values(T, bound)
    small = _span_values(S, bound)
    if not small <= big:
        raise OracleError("derivative spans are not nested")
    return len(big - small)


@lru_cache(maxsize=None)
def torsion_length(S: NumericalSemigroup,
                   reverse_tiebreak: bool = False) -> TorsionResult:
    """Length of the torsion of the differential module, by two routes.

    Route a: total dimension of the differentials relative to the
    parameter line, minus the normalization's share (multiplicity - 1),
    minus the exactness defect.  Route b: degreewise kernel of the
    evaluation onto the normalization's differentials, minus the relation
    rows it already contains; here differentiation runs over all
    variables including the distinguished one.  Disagreement raises.
    """
    if S.embdim == 1:
        return TorsionResult(0, 0, 0, ())
    pres = presentation_of(S, reverse_tiebreak)
    ledger = relative_differential_dims(pres)
    route_a = ledger.total - (S.multiplicity - 1) - exactness_defect(S)

    weights = pres.gen_tuple.weights
    cutoff, width = ledger.cutoff, max(weights)
    contributions = []
    route_b = 0
    for d in range(cutoff + width + 1):
        valid_cols = [i for i, w in enumerate(weights) if S.contains(d - w)]
        rows = [rel.coefficients(skip_first=False)
                for rel in pres.relations if S.contains(d - rel.degree)]
        kernel_dim = len(valid_cols) - 1 if valid_cols else 0
        contrib = kernel_dim - integer_rank(_degree_matrix(rows, valid_cols))
        if contrib == 0:
            continue
        if contrib < 0:
            raise OracleError(
                f"relation rows exceed the evaluation kernel at degree {d}")
        if d > cutoff:
            raise OracleError(
                f"cutoff violation: torsion contribution {contrib} at degree "
                f"{d} beyond {cutoff}")
        contributions.append((d, contrib))
        route_b += contrib
    if route_a != route_b:
        raise OracleError(
            f"oracle inconsistency: torsion {route_a} by dimension count "
            f"vs {route_b} by kernel count for {S}")
    return TorsionResult(route_a, route_a, route_b, tuple(contributions))


@lru_cache(maxsize=None)
def relation_module_lengths(S: NumericalSemigroup,
                            reverse_tiebreak: bool = False
                            ) -> RelationModuleLengths:
    """Lengths between the nested relation modules after one transform.

    Verifies, degree by degree: the lifted module sits inside the blowup
    module (rank does not grow when its rows are added), every module is
    full past the cutoff, and the rescaled-over-original length equals
    twice the number of variables times the multiplicity.
    """
    if S.embdim == 1:
        return RelationModuleLengths(0, 0, 0, 0)
    q = S.multiplicity
    n_vars = S.embdim - 1
    step = blowup(S)
    S1 = step.transformed
    bpres = blowup_presentation(S, reverse_tiebreak)
    opres = presentation_of(S, reverse_tiebreak)
    rescaled = rescaled_relation_generators(S, opres)
    col_weights = GeneratorTuple(step.generator_tuple).var_weights

    cutoff = 2 * q + min(fitting_minor_degrees(opres)) + S.conductor \
        + max(S.min_generators)
    width = max(q, max(col_weights))

    blowup_rows = [(rel.coefficients(skip_first=True), rel.degree)
                   for rel in bpres.relations]
    rescaled_rows = [(rel.coefficients(skip_first=True), rel.degree)
                     for rel in rescaled]

    totals = [0, 0, 0, 0]
    for d in range(cutoff + width + 1):
        valid_cols = [i for i, w in enumerate(col_weights)
                      if S1.contains(d - w)]
        n1 = [c for c, deg in blowup_rows if S1.contains(d - deg)]
        lifted = [c for c, deg in rescaled_rows if S1.contains(d - deg)]
        resc = [c for c, deg in rescaled_rows if S.contains(d - deg)]
        orig = [c for c, deg in rescaled_rows if S.contains(d - deg - 2 * q)]
        r_n1 = integer_rank(_degree_matrix(n1, valid_cols))
        r_joint = integer_rank(_degree_matrix(n1 + lifted, valid_cols))
        if r_joint != r_n1:
            raise OracleError(
                f"containment violation: lifted rescaled module escapes the "
                f"blowup relation module at degree {d} for {S}")
        r_lift = integer_rank(_degree_matrix(lifted, valid_cols))
        r_resc = integer_rank(_degree_matrix(resc, valid_cols))
        r_orig = integer_rank(_degree_matrix(orig, valid_cols))
        if d > cutoff:
            if r_orig != len(valid_cols):
                raise OracleError(
                    f"cutoff violation: relation modules not full at degree "
                    f"{d} beyond {cutoff} for {S}")
            continue
        totals[0] += r_n1 - r_resc
        totals[1] += r_n1 - r_lift
        totals[2] += r_lift - r_resc
        totals[3] += r_resc - r_orig
    if totals[3] != 2 * n_vars * q:
        raise OracleError(
            f"rescaling length check failed: {totals[3]} != "
            f"{2 * n_vars * q} for {S}")
    return RelationModuleLengths(*totals)


@lru_cache(maxsize=None)
def differential_dims_of_transform(S: NumericalSemigroup,
                                   reverse_tiebreak: bool = False
                                   ) -> GradedDimensionLedger:
    """Differentials of the transformed curve over the original parameter.

    The transformed ring is generated over the original parameter line by
    the transformed variables, so its relative differentials are presented
    by the blowup relations differentiated in those variables.
    """
    if S.embdim == 1:
        return GradedDimensionLedger((), 0, 0, (0, 0))
    return relative_differential_dims(blowup_presentation(S, reverse_tiebreak))
