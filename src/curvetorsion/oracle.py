"""Exact graded oracles for differential modules of monomial curves.

Everything here is graded and computed from integer matrices.  In
each degree the ambient free module has one slot per variable whose shift
lands in the coefficient semigroup, and a relation contributes one row:
the unique monomial multiple of its derivative vector in that degree.
Every row is read off Presentation.derivatives, with the distinguished
column (torsion route b) or from index 1 on (the others), and its degree
off Presentation.betti_degrees.  Dimensions are slot counts minus exact
integer ranks.

A row's coefficients do not depend on the degree it is placed in, and
every coefficient in a slot that is invalid in that degree is zero (the
slot guard checks it), so the rank in a degree is a function of which
rows are active there, a row bitmask.  A slot or row of weight w is
present in degree d when d - w is a member of the ring, so its degrees
are the ring's members shifted by w, one int.  Each oracle call splits
the degrees up to its top by these masks into classes of degrees with
equal keys (_degree_classes), each class one int, and evaluates every
class once, in order of first degree (_evaluate): the audit reads its
degrees past the cutoff, and a guard names its first degree.  The
degrees up to the cutoff come back merged by value, one int per value,
and a total is each value times its number of degrees.
Ranks go through one _MaskedRanks whose memo lives for that call only;
the two torsion routes build their own classes and helpers and never
share a rank.

The derivative spans are unions of the ring shifted by g - 1 over its
minimal generators g, one shift per generator.

Each quantity carries a provable degree cutoff.  The code always computes
one stability window past the cutoff and raises OracleError if anything
is still alive there, so a wrong cutoff cannot silently truncate a sum.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .errors import OracleError
from .ideals import least_minor_degree
from .linalg import integer_rank
from .presentation import (Presentation, blowup_presentation, presentation_of,
                           rescaled_relation_generators)
from .semigroup import NumericalSemigroup, blowup, from_generators


class GradedDimensionLedger(NamedTuple):
    """Nonzero graded dimensions of a finite-length module, with audit data.

    by_value holds one (dimension, degrees) pair per nonzero dimension,
    in increasing order of dimension, with bit d of degrees set for each
    degree d of that dimension.
    """

    by_value: tuple[tuple[int, int], ...]
    total: int
    cutoff: int
    window: tuple[int, int]

    def dimension(self, degree: int) -> int:
        return next((dim for dim, degrees in self.by_value
                     if degree >= 0 and degrees >> degree & 1), 0)


class TorsionResult(NamedTuple):
    """Torsion length with both independent routes that produced it, and
    route b's nonzero contributions by value, as in GradedDimensionLedger."""

    length: int
    route_a: int
    route_b: int
    by_value: tuple[tuple[int, int], ...]


class RelationModuleLengths(NamedTuple):
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


def _degree_classes(items, top: int) -> list[tuple[int, int, int]]:
    """The degrees 0..top grouped by key, as (first degree, degrees, key)
    in order of first degree.

    items are (ring, weight) pairs, weight >= 0; item i is present in
    degree d when d - weight is a member of its ring, so its degrees are
    the ring's members shifted by its weight.  The key of a degree is the
    bitmask of its present items, bit i for item i, and a class holds its
    degrees as one int, bit d for degree d.

    Items with the same presence mask form one group.  Every group cuts
    each class in two at most: the part inside its mask is appended with
    the group's bits added to its key, the rest keeps its place and key,
    and a class wholly inside only gains the bits.
    """
    groups: dict[int, int] = {}
    for i, (ring, w) in enumerate(items):
        present = ring.members_mask(top - w) << w
        groups[present] = groups.get(present, 0) | 1 << i
    groups.pop(0, None)
    classes = [(1 << (top + 1)) - 1] if top >= 0 else []
    keys = [0] * len(classes)
    for present, bits in groups.items():
        for k in range(len(classes)):
            part = classes[k] & present
            if part:
                if part == classes[k]:
                    keys[k] |= bits
                else:
                    classes[k] ^= part
                    classes.append(part)
                    keys.append(keys[k] | bits)
    out = [((c & -c).bit_length() - 1, c, k) for c, k in zip(classes, keys)]
    out.sort()
    return out


def _evaluate(classes, cutoff: int, evaluate, violation) -> tuple:
    """(value, degrees up to the cutoff) per distinct nonzero value, in
    increasing order of value, with value = evaluate(key, first degree)
    once per class in order of first degree; the classes' degrees up to
    the cutoff are merged by value into one int.

    violation(value, d) is a message when value may not stand at degree d
    past the cutoff, else falsy; it is asked at each class's lowest degree
    past the cutoff.  The lowest such degree raises OracleError, and so
    does a guard inside evaluate, which names the class's first degree.
    Once a violation lies below the next class's first degree, no later
    class can fault lower, so it is raised before that class runs: the
    lowest faulty degree wins, as in a walk degree by degree.  A negative
    cutoff is clamped: every degree lies past it.
    """
    below = (1 << max(cutoff + 1, 0)) - 1
    fault = None
    merged = {}
    for first, degrees, key in classes:
        if fault and fault[0] < first:
            break
        value = evaluate(key, first)
        if degrees > below:
            past = degrees & ~below
            d = (past & -past).bit_length() - 1
            if not fault or d < fault[0]:
                message = violation(value, d)
                if message:
                    fault = (d, message)
        if first <= cutoff:
            merged[value] = merged.get(value, 0) | degrees & below
    if fault:
        raise OracleError(fault[1])
    return tuple(sorted((value, degrees)
                        for value, degrees in merged.items() if value))


class _MaskedRanks:
    """Restricted ranks of the subsets of one list of rows, by row bitmask.

    The rows come from Presentation.derivatives, whole or from index 1
    on, bit i for row i.  The oracles call it once per degree class, not
    once per degree.  Each rank is memoized with the union of its rows'
    supports; a mask of at most one row, or whose support lies in one
    column, has rank 1 unless that support is empty, and only the others
    are eliminated.  rank checks the union against the valid slots on
    every call, a memo hit too.  A nonzero coefficient outside a valid
    slot would mean the module element escapes the ambient free module,
    which the construction makes impossible; it is still checked.  Past
    that check every invalid column is zero, so the full-width rows have
    the restricted rank.
    """

    def __init__(self, vectors):
        self.vectors = vectors
        self._supports = [sum(1 << i for i, c in enumerate(v) if c)
                          for v in vectors]
        self._memo: dict[int, tuple[int, int]] = {}

    def rank(self, mask: int, valid: int) -> int:
        """Rank of the rows in mask restricted to the valid slots."""
        hit = self._memo.get(mask)
        if hit is None:
            picked, support, rest = [], 0, mask
            while rest:
                low = rest & -rest
                i = low.bit_length() - 1
                picked.append(self.vectors[i])
                support |= self._supports[i]
                rest ^= low
            if mask & (mask - 1) and support & (support - 1):
                rank = integer_rank(picked)
            else:  # one row or one column: rank 1 unless every entry is zero
                rank = 1 if support else 0
            hit = self._memo[mask] = (rank, support)
        rank, support = hit
        bad = support & ~valid
        if bad:
            slot = (bad & -bad).bit_length() - 1
            coeff = next(v[slot] for i, v in enumerate(self.vectors)
                         if mask >> i & 1 and v[slot])
            raise OracleError(f"derivative row has coefficient {coeff} "
                              f"in invalid slot {slot}")
        return rank


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
    ambient = from_generators(tup.weights)
    width = max(tup.weights)
    cutoff = width + ambient.conductor + least_minor_degree(pres)
    rows = _MaskedRanks([vec[1:] for vec in pres.derivatives])
    n_slots = len(tup.var_weights)
    slots = (1 << n_slots) - 1
    classes = _degree_classes(
        [(ambient, w) for w in tup.var_weights + pres.betti_degrees],
        cutoff + width)

    def dimension(key, first):
        valid = key & slots
        return valid.bit_count() - rows.rank(key >> n_slots, valid)

    by_value = _evaluate(classes, cutoff, dimension, lambda dim, d: dim and (
        f"cutoff violation: differential dimension {dim} at degree {d} "
        f"beyond {cutoff}"))
    return GradedDimensionLedger(
        by_value, sum(dim * degrees.bit_count() for dim, degrees in by_value),
        cutoff, (cutoff, cutoff + width))


def _span_values(S: NumericalSemigroup, bound: int) -> int:
    """Values of ring multiples of derivatives of ring elements, below
    bound, as a bitmask (bit v for value v).

    A monomial of value a times the derivative of one of value m has
    value a + m - 1; m = 0 differentiates to zero and is excluded.  Every
    nonzero member is a minimal generator g plus a member, and S + S is
    inside S, so the span is the ring shifted by g - 1 for every minimal
    generator g.
    """
    ring = S.members_mask(bound)
    span = 0
    for g in S.min_generators:
        span |= ring << (g - 1)
    return span & ((1 << bound) - 1)


def _derivative_values(S: NumericalSemigroup, bound: int) -> int:
    """Values of derivatives of ring elements alone, below bound, as a
    bitmask: the nonzero members up to bound, each lowered by one."""
    return S.members_mask(bound) >> 1


def exactness_defect(S: NumericalSemigroup) -> int:
    """Length gap between the span of derivatives and its ring closure.

    Both value sets agree from the conductor on, so the comparison below
    twice the conductor plus a margin is complete.
    """
    bound = 2 * S.conductor + 2
    span = _span_values(S, bound)
    plain = _derivative_values(S, bound)
    if plain & ~span:
        raise OracleError("derivative values escaped their ring closure")
    return (span & ~plain).bit_count()


def genus_via_derivative_spans(S: NumericalSemigroup) -> int:
    """Colength of the derivative span of the ring inside the normalization's.

    The normalization's span is every nonnegative value, so the count
    recovers the number of gaps by an independent route.
    """
    bound = S.conductor + 1
    return bound - _span_values(S, bound).bit_count()


def colength_via_derivative_spans(S: NumericalSemigroup,
                                  T: NumericalSemigroup) -> int:
    """Length of the derivative span of a larger ring over that of a smaller."""
    bound = S.conductor + 1
    big = _span_values(T, bound)
    small = _span_values(S, bound)
    if small & ~big:
        raise OracleError("derivative spans are not nested")
    return (big & ~small).bit_count()


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
    rows = _MaskedRanks(pres.derivatives)
    n_slots = len(weights)
    slots = (1 << n_slots) - 1
    classes = _degree_classes([(S, w) for w in weights + pres.betti_degrees],
                              cutoff + width)

    def contribution(key, first):
        valid = key & slots
        kernel_dim = valid.bit_count() - 1 if valid else 0
        contrib = kernel_dim - rows.rank(key >> n_slots, valid)
        if contrib < 0:
            raise OracleError(
                f"relation rows exceed the evaluation kernel at degree "
                f"{first}")
        return contrib

    by_value = _evaluate(classes, cutoff, contribution, lambda c, d: c and (
        f"cutoff violation: torsion contribution {c} at degree {d} "
        f"beyond {cutoff}"))
    route_b = sum(c * degrees.bit_count() for c, degrees in by_value)
    if route_a != route_b:
        raise OracleError(
            f"oracle inconsistency: torsion {route_a} by dimension count "
            f"vs {route_b} by kernel count for {S}")
    return TorsionResult(route_a, route_a, route_b, by_value)


@lru_cache(maxsize=None)
def relation_module_lengths(S: NumericalSemigroup,
                            reverse_tiebreak: bool = False
                            ) -> RelationModuleLengths:
    """Lengths between the nested relation modules after one transform.

    Verifies, in every degree up to one window past the cutoff, that the
    lifted module sits inside the blowup module (rank does not grow when
    its rows are added) and that every module is full past the cutoff;
    then that the rescaled-over-original length equals twice the number
    of variables times the multiplicity.
    """
    if S.embdim == 1:
        return RelationModuleLengths(0, 0, 0, 0)
    q = S.multiplicity
    n_vars = S.embdim - 1
    S1 = blowup(S).transformed
    bpres = blowup_presentation(S, reverse_tiebreak)
    opres = presentation_of(S, reverse_tiebreak)
    rescaled = rescaled_relation_generators(S, opres)
    col_weights = rescaled.gen_tuple.var_weights

    cutoff = 2 * q + least_minor_degree(opres) + S.conductor \
        + max(S.min_generators)
    width = max(q, max(col_weights))

    # rows below bit bpres.mu are the blowup module's, the rest the
    # rescaled relations'; the original module is the rescaled one times
    # x^2, and lifting reads the rescaled rows over S1
    rows = _MaskedRanks([vec[1:] for vec in
                         bpres.derivatives + rescaled.derivatives])
    n_blown = bpres.mu
    blown = (1 << n_blown) - 1
    resc_degrees = rescaled.betti_degrees
    n_slots, n_rows = len(col_weights), n_blown + rescaled.mu
    slots, over = (1 << n_slots) - 1, (1 << n_rows) - 1
    # key fields from bit 0: the valid slots, the rows active over S1,
    # then the rescaled rows active over S in degree d and in degree
    # d - 2q, which times x^2 are the original module's rows in degree d
    classes = _degree_classes(
        [(S1, w) for w in col_weights + bpres.betti_degrees + resc_degrees]
        + [(S, w) for w in resc_degrees]
        + [(S, w + 2 * q) for w in resc_degrees], cutoff + width)
    resc_at = n_slots + n_rows
    orig_at = resc_at + len(resc_degrees)
    resc_bits = (1 << len(resc_degrees)) - 1

    def ranks(key, first):
        valid = key & slots
        over_s1 = key >> n_slots & over
        n1, lifted = over_s1 & blown, over_s1 & ~blown
        orig = key >> orig_at << n_blown
        resc = (key >> resc_at & resc_bits) << n_blown
        r_orig, r_resc, r_lift, r_n1, r_joint = [
            rows.rank(mask, valid)
            for mask in (orig, resc, lifted, n1, over_s1)]
        if r_joint != r_n1:
            raise OracleError(
                f"containment violation: lifted rescaled module escapes the "
                f"blowup relation module at degree {first} for {S}")
        return (r_n1 - r_resc, r_n1 - r_lift, r_lift - r_resc,
                r_resc - r_orig, r_orig == valid.bit_count())

    values = _evaluate(classes, cutoff, ranks, lambda v, d: not v[4] and (
        f"cutoff violation: relation modules not full at degree {d} beyond "
        f"{cutoff} for {S}"))
    totals = [0, 0, 0, 0]
    for lengths, degrees in values:
        n = degrees.bit_count()
        for i in range(4):
            totals[i] += n * lengths[i]
    if totals[3] != 2 * n_vars * q:
        raise OracleError(
            f"rescaling length check failed: {totals[3]} != "
            f"{2 * n_vars * q} for {S}")
    return RelationModuleLengths(*totals)
