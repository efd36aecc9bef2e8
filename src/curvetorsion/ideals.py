"""Monomial fractional ideals of a numerical-semigroup ring.

A fractional ideal stable under the semigroup action is determined by its
set of exponent values: a subset of the integers, bounded below, closed
under adding semigroup members, and containing every integer from some
tail onward.  All the dualizing objects of this package (complementary
module, inverses, the two differents) are of this shape, so identities
between them reduce to finite comparisons.  A value set is one int, as
a semigroup's membership is: bit v - min_value for each value v, every
bit from the tail on set; comparisons shift it to a common lower end.
A value set is the union of v + S over its module generators v, at most
multiplicity many, so an inverse is one AND of the ring's members
shifted down by each generator, not one test per candidate value.

The Kaehler different is the ideal of the maximal minors of the
derivative matrix J; the greedy basis's total gives its least value, all
the oracles' cutoffs read (least_minor_degree).  By Cauchy-Binet the K-bit
digits of det(J^T diag(2^(K d_i)) J) are the sums of det(J_B)^2 over the
row subsets B of each total, K from Hadamard's bound; kaehler_different
reads the others off them and checks the lowest against the greedy total.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, prod
from typing import NamedTuple

from .errors import DomainError
from .linalg import _reduce, integer_determinant
from .presentation import Presentation
from .semigroup import NumericalSemigroup, _closure, _set_bits, apery_set


class IdealError(DomainError, ValueError):
    """Raised for value sets that are not semigroup-stable or comparable."""


class ValueSet(NamedTuple):
    """Value set of a monomial fractional ideal.

    bits has bit v - min_value set for each value v: its lowest bit is
    set, and so is every bit from tail_start - min_value on, so the int
    is negative.  Construct through make_value_set, which normalizes it
    and checks stability; equal sets then have equal fields.
    """

    ambient: NumericalSemigroup
    min_value: int
    bits: int

    @property
    def tail_start(self) -> int:
        """Every integer from here on is a value; the one below is not."""
        return self.min_value + (~self.bits).bit_length()

    @property
    def members(self) -> tuple[int, ...]:
        """The values below tail_start, increasing."""
        lo = self.min_value
        return tuple(lo + v for v in _set_bits(self.mask(lo, self.tail_start)))

    def contains(self, v: int) -> bool:
        return bool(self.mask(v, v + 1))

    def mask(self, lo: int, bound: int) -> int:
        """The values in [lo, bound) as a bitmask, bit v - lo for value v;
        lo <= bound."""
        shift = self.min_value - lo
        out = self.bits << shift if shift >= 0 else self.bits >> -shift
        return out & ((1 << (bound - lo)) - 1)

    def __str__(self) -> str:
        shown = ", ".join(str(m) for m in self.members)
        sep = ", " if shown else ""
        return "{" + shown + sep + str(self.tail_start) + "+}"


def make_value_set(ambient: NumericalSemigroup, lo: int, bits: int,
                   tail_start: int) -> ValueSet:
    """Normalize and validate a value set.

    bits has bit v - lo set for each value v below tail_start, lo <=
    tail_start; every bit from tail_start - lo on is set here, and the
    lowest set bit is shifted to bit 0, so the int carries no leading
    zeros and the tail starts right after the last gap.
    """
    bits |= -(1 << (tail_start - lo))
    low = (bits & -bits).bit_length() - 1
    vs = ValueSet(ambient, lo + low, bits >> low)
    # bits >> g keeps the tail; report the least member, then generator
    fails = [(vs.min_value + (bad & -bad).bit_length() - 1, gen)
             for gen in ambient.min_generators
             if (bad := vs.bits & ~(vs.bits >> gen))]
    if fails:
        v, gen = min(fails)
        raise IdealError(f"value set not stable: {v} + {gen} missing")
    return vs


def value_set_of(S: NumericalSemigroup) -> ValueSet:
    """The ring itself as a value set."""
    return make_value_set(S, 0, S.members_mask(S.conductor), S.conductor)


@lru_cache(maxsize=None)
def complementary_module(S: NumericalSemigroup) -> ValueSet:
    """Trace dual of the ring over the subring generated by its parameter.

    The ring is free over k[[t^q]] with one basis monomial per residue
    class mod q, of value w(c) = least member in class c.  The trace of
    t^j vanishes unless q divides j, so t^v lies in the dual exactly when
    v + m >= 0 for every member m in the class of -v; the sharpest m is
    w((-v) mod q), giving the closed form v >= -w((-v) mod q).  Below 0
    that is, per Apery entry w, the progression -w, -w + q, ... of
    ceil(w / q) values, one mask.  Both the closed form and the defining
    condition are evaluated on a window around zero and compared, so
    neither route is trusted alone.  The condition is read as: no member
    below u = -v is congruent to u.  u has one exactly when u - kq is a
    member for some k >= 1, the members shifted up by q and closed under
    +q; no u <= 0 has one.  That mask, read backwards, is the condition
    on v, and it reads no Apery entry.
    """
    q = S.multiplicity
    apery = apery_set(S, q)
    top = max(apery)
    closed = 0
    for w in apery:
        n = -(-w // q)
        closed |= ((1 << q * n) - 1) // ((1 << q) - 1) << (top - w)
    vs = make_value_set(S, -top, closed, 0)
    window = q + S.conductor
    # bit u, u <= window, when a member below u lies in its class
    below = _closure(S.members_mask(window - q) << q, q, window)
    # the u in 1..window without one, read backwards to bit v + window
    # for v = -u, and every v >= 0
    free = ~below & ((1 << (window + 1)) - 2)
    direct = int(f"{free:0{window + 1}b}"[::-1], 2) | -(1 << window)
    wrong = (direct ^ vs.mask(-window, window)) & ((1 << 2 * window) - 1)
    if wrong:
        v = (wrong & -wrong).bit_length() - 1 - window
        raise IdealError(f"complementary module self-check failed at {v}")
    return vs


def inverse(V: ValueSet) -> ValueSet:
    """Value set of {m : m + V inside the ring}.

    V is the union of v + S over its module generators v, the values of V
    with v - g outside V for every minimal generator g; each is the least
    value of V in its class mod the multiplicity, so there are at most
    that many.  S + S is inside S, so m + V lies in the ring exactly when
    every m + v does, and from the tail start on it always does.  The
    candidates m from -min_value on are one mask, bit m - lo, ANDed with
    the ring's members shifted down by each generator below the tail.
    """
    S = V.ambient
    lo_v, cond = V.min_value, S.conductor
    tail = cond - lo_v
    lo = max(-lo_v, cond - V.tail_start)
    finite = V.mask(lo_v, V.tail_start)
    reached = 0
    for g in S.min_generators:
        reached |= finite << g
    gens = finite & ~reached
    # m < tail and every generator lies below the tail start
    ring = S.members_mask(tail + V.tail_start)
    fits = (1 << (tail - lo)) - 1
    while gens:
        low = gens & -gens
        fits &= ring >> (lo + lo_v + low.bit_length() - 1)
        gens ^= low
    return make_value_set(S, lo, fits, tail)


def _derivative_rows(pres: Presentation) -> list:
    """The derivative matrix's (degree, coefficients) rows, by degree.

    The matrix is Presentation.derivatives from index 1 on: one row per
    relation and one column per non-distinguished variable; entry (r, i)
    is the integer exponent difference times a power of the uniformizer,
    so a maximal minor is an integer determinant times the uniformizer to
    the power sum(chosen relation degrees) - sum(variable weights).
    """
    return sorted(zip(pres.betti_degrees,
                      (vec[1:] for vec in pres.derivatives)))


@lru_cache(maxsize=None)
def least_minor_degree(pres: Presentation) -> int:
    """Least degree of a nonvanishing maximal minor of the derivative
    matrix, the least value of its Fitting ideal.

    A minor is nonzero exactly when its rows are independent, and
    independent subsets form a matroid, so the greedy basis over the rows
    by degree has the least total.  Memoized: the graded oracles read it
    for every cutoff and kaehler_different for its self-check, one int
    per presentation.
    """
    basis, total = [], 0
    for d, vec in _derivative_rows(pres):  # _reduce stops at full rank
        rank = len(basis)
        _reduce(basis, (vec,))
        total += d * (len(basis) - rank)
    if len(basis) < len(pres.gen_tuple.var_weights):
        raise IdealError("all maximal minors vanish")
    return total - sum(pres.gen_tuple.var_weights)


@lru_cache(maxsize=None)
def kaehler_different(S: NumericalSemigroup, pres: Presentation) -> ValueSet:
    """Value set of the ideal of maximal minors of the derivative matrix.

    Differentiation is taken with respect to the non-distinguished
    variables only; the distinguished parameter is a constant of the
    derivation.  For a one-variable curve the derivative matrix is empty
    and the different is the whole ring.

    A minor's value is its row total (see _derivative_rows) minus the
    column sum; totals one conductor past the greedy one lie in the tail.
    With rows (d_i, v_i), n columns, least degree lo and z = 2^K,
    det(sum_i v_i v_i^T z^(d_i - lo)) = sum_B det(J_B)^2 z^(w(B) - n lo)
    over n-row subsets B of row total w(B) (Cauchy-Binet).  K is the bit
    length of comb(rows, n) times the n largest squared row norms, which
    bounds each sum of squares (Hadamard); none cancels, so total t has a
    nonvanishing minor exactly when digit t - n lo is nonzero.  Self-check:
    the lowest nonzero digit is the greedy total's (zero's reads as -1).
    """
    if S.embdim == 1:
        return value_set_of(S)
    if pres.gen_tuple.weights != S.min_generators:
        raise IdealError("presentation does not match the curve")
    col_sum = sum(S.min_generators[1:])
    base_sum = least_minor_degree(pres) + col_sum
    rows = _derivative_rows(pres)
    n, lo = S.embdim - 1, rows[0][0]
    limit = base_sum + S.conductor
    norms = sorted(sum(x * x for x in vec) for _, vec in rows)
    K = (comb(len(rows), n) * prod(norms[-n:])).bit_length()
    det = integer_determinant(
        [[sum(v[a] * v[b] << K * (d - lo) for d, v in rows) for b in range(n)]
         for a in range(n)])
    if ((det & -det).bit_length() - 1) // K != base_sum - n * lo:
        raise IdealError(f"Kaehler different self-check failed at {base_sum}")
    digit, covered = (1 << K) - 1, 0
    for t in range(base_sum, limit):
        if det >> K * (t - n * lo) & digit:
            covered |= S.members_mask(limit - 1 - t) << t
    return make_value_set(S, base_sum - col_sum, covered >> base_sum,
                          limit - col_sum)


def dedekind_different(S: NumericalSemigroup) -> ValueSet:
    """Inverse of the complementary module."""
    return inverse(complementary_module(S))


def quotient_length(outer: ValueSet, inner: ValueSet) -> int:
    """Number of values in outer but not in inner.

    Demands the same ambient curve and actual containment.
    """
    if outer.ambient != inner.ambient:
        raise IdealError("value sets live over different curves")
    if inner.tail_start < outer.tail_start:
        raise IdealError("inner set not contained in outer: tail")
    lo, bound = min(outer.min_value, inner.min_value), inner.tail_start
    outer_vals = outer.mask(lo, bound)
    inner_vals = inner.mask(lo, bound)
    if inner_vals & ~outer_vals:
        raise IdealError("inner set not contained in outer")
    return (outer_vals & ~inner_vals).bit_count()


@lru_cache(maxsize=None)
def different_inverse_gap(S: NumericalSemigroup, pres: Presentation) -> int:
    """Length of the inverse of the different over the complementary module.

    Zero exactly when inverting the different recovers the trace dual; the
    deficit enters the drop formula for curves with one extra relation.

    A report asks for it in its own checks, in the nice-ACI drop formula
    and at every nice-ACI step of the transform chain, and asks for the
    Kaehler different and the trace dual besides; this function,
    kaehler_different and complementary_module are memoized, so each is
    computed once per curve and presentation.
    """
    dk = kaehler_different(S, pres)
    return quotient_length(inverse(dk), complementary_module(S))
