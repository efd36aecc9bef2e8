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


def _derivative_rows(relations, skip_first: bool):
    """(coefficients, support bitmask, degree) of each relation's row.

    The coefficients do not depend on the degree the row is placed in,
    so each oracle call builds them once.
    """
    out = []
    for rel in relations:
        coeffs = rel.coefficients(skip_first=skip_first)
        support = sum(1 << i for i, c in enumerate(coeffs) if c)
        out.append((coeffs, support, rel.degree))
    return out


def _active(rows, ring: NumericalSemigroup, d: int):
    """The rows whose monomial multiple exists in degree d over the ring."""
    return [(coeffs, support) for coeffs, support, deg in rows
            if ring.contains(d - deg)]


def _valid_slots(weights, ring: NumericalSemigroup, d: int) -> int:
    """Bitmask of the slots whose shift by degree d lands in the ring."""
    return sum(1 << i for i, w in enumerate(weights) if ring.contains(d - w))


def _rank(rows, valid: int) -> int:
    """Rank of the active rows restricted to the valid slots of a degree.

    A nonzero coefficient outside a valid slot would mean the module
    element escapes the ambient free module, which the construction
    makes impossible; it is still checked.  Past that check every invalid
    column is zero, so the full-width rows have the restricted rank.
    """
    for coeffs, support in rows:
        bad = support & ~valid
        if bad:
            i = (bad & -bad).bit_length() - 1
            raise OracleError(f"derivative row has coefficient {coeffs[i]} "
                              f"in invalid slot {i}")
    return integer_rank([coeffs for coeffs, _ in rows])


@lru_cache(maxsize=None)
def relative_differential_dims(pres: Presentation) -> GradedDimensionLedger:
    """Graded dimensions of the differentials relative to the parameter line.

    The module is presented by one slot per non-distinguished variable
    and one row per relation, differentiated in those variables only;
    coefficients live in the semigroup generated by the full weight
    tuple.  The cutoff is max weight + ambient conductor + least value of
    the derivative Fitting ideal; one window of width max weight past the
    cutoff is verified to be zero.  On a blowup presentation this is the
    transformed curve's module over the original parameter line.
    """
    tup = pres.gen_tuple
    if not tup.var_weights:
        return GradedDimensionLedger((), 0, 0, (0, 0))
    ambient = _tuple_semigroup(tup.weights)
    width = max(tup.weights)
    cutoff = width + ambient.conductor + min(fitting_minor_degrees(pres))
    rows = _derivative_rows(pres.relations, tup.has_x)
    per_degree = []
    total = 0
    for d in range(cutoff + width + 1):
        valid = _valid_slots(tup.var_weights, ambient, d)
        dim = valid.bit_count() - _rank(_active(rows, ambient, d), valid)
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
    rows = _derivative_rows(pres.relations, False)
    contributions = []
    route_b = 0
    for d in range(cutoff + width + 1):
        valid = _valid_slots(weights, S, d)
        kernel_dim = valid.bit_count() - 1 if valid else 0
        contrib = kernel_dim - _rank(_active(rows, S, d), valid)
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

    blowup_rows = _derivative_rows(bpres.relations, True)
    rescaled_rows = _derivative_rows(rescaled, True)

    totals = [0, 0, 0, 0]
    for d in range(cutoff + width + 1):
        valid = _valid_slots(col_weights, S1, d)
        n1 = _active(blowup_rows, S1, d)
        lifted = _active(rescaled_rows, S1, d)
        r_n1 = _rank(n1, valid)
        if _rank(n1 + lifted, valid) != r_n1:
            raise OracleError(
                f"containment violation: lifted rescaled module escapes the "
                f"blowup relation module at degree {d} for {S}")
        r_lift = _rank(lifted, valid)
        r_resc = _rank(_active(rescaled_rows, S, d), valid)
        # the original module is the rescaled one times x^2
        r_orig = _rank(_active(rescaled_rows, S, d - 2 * q), valid)
        if d > cutoff:
            if r_orig != valid.bit_count():
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

