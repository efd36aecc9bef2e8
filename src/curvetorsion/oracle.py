"""Exact graded oracles for differential modules of monomial curves.

Everything here is computed degree by degree from integer matrices.  In
each degree the ambient free module has one slot per variable whose shift
lands in the coefficient semigroup, and a relation contributes one row:
the unique monomial multiple of its derivative vector in that degree.
Dimensions are slot counts minus exact integer ranks.

A row's coefficients do not depend on the degree it is placed in, and
every coefficient in a slot that is invalid in that degree is zero (the
slot guard checks it), so the rank in a degree is a function of which
rows are active there, a row bitmask.  Each oracle call builds the slot
masks and row masks of all its degrees up front, one pass over the ring's
members below the conductor per list (_present), and pairs them into one
key per degree.  Many degrees share a key, and from the last mask change
on every degree does.  Each distinct key is ranked and guarded once,
through one _MaskedRanks whose memo lives for that call only, and the
degrees only read the result (_tabulate); the two torsion routes build
their own masks and helpers and never share a rank.

Each quantity carries a provable degree cutoff.  The code always computes
one stability window past the cutoff and raises OracleError if anything
is still alive there, so a wrong cutoff cannot silently truncate a sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import OracleError
from .ideals import least_minor_degree
from .linalg import integer_rank
from .presentation import (GeneratorTuple, Presentation, blowup_presentation,
                           presentation_of, rescaled_relation_generators)
from .semigroup import NumericalSemigroup, blowup, from_generators


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


def _present(items, ring: NumericalSemigroup, top: int) -> list[int]:
    """Per degree 0..top, the bitmask of the items, slot weights or row
    degrees, whose shift by that degree lands in the ring: the valid
    slots, or the active rows.  Item i of weight w is in degree v + w for
    every member v of the ring; the items are nonnegative.  From the
    conductor c on every value is a member, so item i is in every degree
    from c + w on, and every item in every degree from c + max w on."""
    masks = [0] * (top + 1)
    c = ring.conductor
    tail = c + max(items, default=0)
    stop = min(tail, top + 1)
    for i, w in enumerate(items):
        bit = 1 << i
        for v in ring._below:
            if v + w >= stop:
                break
            masks[v + w] |= bit
        for d in range(c + w, stop):
            masks[d] |= bit
    if tail <= top:
        masks[tail:] = [(1 << len(items)) - 1] * (top + 1 - tail)
    return masks


def _tabulate(keys, evaluate, audit) -> list:
    """Per degree, evaluate(key) of that degree's key, evaluated once per
    distinct key in order of first occurrence; then audit(values), which
    checks the window past the cutoff and raises on the lowest bad degree.

    A guard in evaluate reports its key's first degree, keys.index(key).
    Before that fault propagates, the degrees below it are audited, so a
    fault at a lower degree wins, as in a walk degree by degree.
    """
    table = {}
    try:
        for key in dict.fromkeys(keys):
            table[key] = evaluate(key)
    except OracleError:
        audit([table[k] for k in keys[:keys.index(key)]])
        raise
    values = [table[k] for k in keys]
    audit(values)
    return values


def _zero_past(cutoff: int, what: str):
    """The audit for _tabulate that every value past the cutoff is zero."""
    def audit(values):
        for d in range(max(cutoff + 1, 0), len(values)):
            if values[d]:
                raise OracleError(f"cutoff violation: {what} {values[d]} at "
                                  f"degree {d} beyond {cutoff}")
    return audit


class _MaskedRanks:
    """Restricted ranks of the subsets of one list of rows, by row bitmask.

    The oracles call it once per distinct (row mask, valid slots) pair,
    not once per degree.  Each rank is memoized with the union of its
    rows' supports, and every call, a memo hit too, checks that union
    against the valid slots.  A nonzero coefficient outside a valid slot
    would mean the module element escapes the ambient free module, which
    the construction makes impossible; it is still checked.  Past that check
    every invalid column is zero, so the full-width rows have the
    restricted rank.
    """

    def __init__(self, vectors, degrees=()):
        self.vectors = vectors
        self.degrees = degrees
        self._supports = [sum(1 << i for i, c in enumerate(v) if c)
                          for v in vectors]
        self._memo: dict[int, tuple[int, int]] = {}

    @classmethod
    def of(cls, relations, skip_first: bool) -> _MaskedRanks:
        """The derivative rows of the relations and their degrees."""
        return cls([rel.coefficients(skip_first=skip_first)
                    for rel in relations], [rel.degree for rel in relations])

    def rank(self, mask: int, valid: int) -> int:
        """Rank of the rows in mask restricted to the valid slots."""
        hit = self._memo.get(mask)
        if hit is None:
            picked = [i for i in range(mask.bit_length()) if mask >> i & 1]
            support = 0
            for i in picked:
                support |= self._supports[i]
            hit = self._memo[mask] = (
                integer_rank([self.vectors[i] for i in picked]), support)
        bad = hit[1] & ~valid
        if bad:
            slot = (bad & -bad).bit_length() - 1
            coeff = next(v[slot] for i, v in enumerate(self.vectors)
                         if mask >> i & 1 and v[slot])
            raise OracleError(f"derivative row has coefficient {coeff} "
                              f"in invalid slot {slot}")
        return hit[0]


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
    rows = _MaskedRanks.of(pres.relations, tup.has_x)
    top = cutoff + width
    slots = _present(tup.var_weights, ambient, top)
    active = _present(rows.degrees, ambient, top)
    keys = list(zip(active, slots))

    def dimension(key):
        mask, valid = key
        return valid.bit_count() - rows.rank(mask, valid)

    dims = _tabulate(keys, dimension,
                     _zero_past(cutoff, "differential dimension"))
    per_degree = tuple((d, dim) for d, dim in
                       enumerate(dims[:max(cutoff + 1, 0)]) if dim)
    return GradedDimensionLedger(per_degree, sum(dim for _, dim in per_degree),
                                 cutoff, (cutoff, cutoff + width))


def _span_values(S: NumericalSemigroup, bound: int) -> int:
    """Values of ring multiples of derivatives of ring elements, below
    bound, as a bitmask (bit v for value v).

    A monomial of value a times the derivative of one of value m has
    value a + m - 1; m = 0 differentiates to zero and is excluded.  So the
    span is the ring shifted by m - 1 for every nonzero member m.
    """
    ring = S.members_mask(bound)
    span = 0
    for m in S.members(bound)[1:]:
        span |= ring << (m - 1)
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
    rows = _MaskedRanks.of(pres.relations, False)
    top = cutoff + width
    slots = _present(weights, S, top)
    active = _present(rows.degrees, S, top)
    keys = list(zip(active, slots))

    def contribution(key):
        mask, valid = key
        kernel_dim = valid.bit_count() - 1 if valid else 0
        contrib = kernel_dim - rows.rank(mask, valid)
        if contrib < 0:
            raise OracleError(
                f"relation rows exceed the evaluation kernel at degree "
                f"{keys.index(key)}")
        return contrib

    contribs = _tabulate(keys, contribution,
                         _zero_past(cutoff, "torsion contribution"))
    contributions = tuple((d, c) for d, c in
                          enumerate(contribs[:max(cutoff + 1, 0)]) if c)
    route_b = sum(c for _, c in contributions)
    if route_a != route_b:
        raise OracleError(
            f"oracle inconsistency: torsion {route_a} by dimension count "
            f"vs {route_b} by kernel count for {S}")
    return TorsionResult(route_a, route_a, route_b, contributions)


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
    step = blowup(S)
    S1 = step.transformed
    bpres = blowup_presentation(S, reverse_tiebreak)
    opres = presentation_of(S, reverse_tiebreak)
    rescaled = rescaled_relation_generators(S, opres)
    col_weights = GeneratorTuple(step.generator_tuple).var_weights

    cutoff = 2 * q + least_minor_degree(opres) + S.conductor \
        + max(S.min_generators)
    width = max(q, max(col_weights))

    # rows below bit len(bpres.relations) are the blowup module's, the
    # rest the rescaled relations'; the original module is the rescaled
    # one times x^2, and lifting reads the rescaled rows over S1
    rows = _MaskedRanks.of(bpres.relations + rescaled, True)
    n_blown = len(bpres.relations)
    blown = (1 << n_blown) - 1

    top = cutoff + width
    slots = _present(col_weights, S1, top)
    active = _present(rows.degrees, S1, top)
    # resc[d]: the rescaled rows active over S in degree d; times x^2 they
    # are the original module's rows active in degree d + 2q
    resc = [m << n_blown for m in _present(rows.degrees[n_blown:], S, top)]
    orig = ([0] * (2 * q) + resc)[:len(resc)]
    keys = list(zip(slots, active, resc, orig))

    def ranks(key):
        valid, over_s1, resc_mask, orig_mask = key
        n1, lifted = over_s1 & blown, over_s1 & ~blown
        r_orig = rows.rank(orig_mask, valid)
        r_resc = rows.rank(resc_mask, valid)
        r_lift = rows.rank(lifted, valid)
        r_n1 = rows.rank(n1, valid)
        r_joint = rows.rank(over_s1, valid)
        if r_joint != r_n1:
            raise OracleError(
                f"containment violation: lifted rescaled module escapes the "
                f"blowup relation module at degree {keys.index(key)} for {S}")
        return (r_n1 - r_resc, r_n1 - r_lift, r_lift - r_resc,
                r_resc - r_orig, r_orig == valid.bit_count())

    def audit(values):
        for d in range(max(cutoff + 1, 0), len(values)):
            if not values[d][4]:
                raise OracleError(
                    f"cutoff violation: relation modules not full at degree "
                    f"{d} beyond {cutoff} for {S}")

    values = _tabulate(keys, ranks, audit)[:max(cutoff + 1, 0)]
    # the zero row keeps the four length columns when no degree is summed
    # and drops the fullness column
    totals = [sum(column) for column in zip((0, 0, 0, 0), *values)]
    if totals[3] != 2 * n_vars * q:
        raise OracleError(
            f"rescaling length check failed: {totals[3]} != "
            f"{2 * n_vars * q} for {S}")
    return RelationModuleLengths(*totals)

