"""Toric presentations of a monomial curve and of its quadratic transform.

Relations between the monomial generators are binomials.  A minimal set
of them is read off degree by degree.  The factorizations of a degree d
fall into R-classes, the classes of the graph whose edges join two
factorizations with overlapping support; a degree with c classes
contributes c - 1 relations.  No degree beyond conductor + 2 * max(weight)
contributes at all, because there that graph is always connected.

The R-classes are found without listing a single factorization: they are
the connected components of the graph G_d on the generator positions i
with d - w_i in S, where i and j are joined when d - w_i - w_j is in S
(Rosales, "On presentations of subsemigroups of N^n", Semigroup Forum 55,
1997; Rosales and Garcia-Sanchez, Numerical Semigroups, Springer 2009,
ch. 7).  Each relation joins two lexicographically extreme
factorizations, and those are built greedily, one coordinate at a time,
against the sums the component's later weights can still reach.

The generation check, relations_generate, is the second route that
confirms a presentation generates.  It lists no factorization either:
the sums of the weights, a fixpoint over the weights alone, give the
vertex and edge masks of G_d for every degree at once, each relation
joins the positions of its two sides in its own degree, and one
bit-sliced transitive closure of both, without reading S, shows whether
any degree keeps two classes apart.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from operator import mul
from typing import Iterable, NamedTuple

from .errors import DomainError
from .semigroup import NumericalSemigroup, _closure, blowup, from_generators


class PresentationError(DomainError, ValueError):
    """Raised for malformed generator tuples or unusable presentations."""


class GeneratorTuple(namedtuple("GeneratorTuple", "weights")):
    """Ordered weight tuple for a toric presentation.

    Position 0 carries the distinguished parameter (weight = multiplicity
    of the ambient curve) that stays constant under differentiation; the
    remaining slots are the module variables, the columns of
    Presentation.derivatives from index 1 on.
    """

    __slots__ = ()

    def __new__(cls, weights: tuple[int, ...]) -> GeneratorTuple:
        if not weights or any(w < 1 for w in weights):
            raise PresentationError("weights must be positive integers")
        return super().__new__(cls, weights)

    @property
    def var_weights(self) -> tuple[int, ...]:
        return self.weights[1:]


class BinomialRelation(namedtuple("BinomialRelation", "lhs rhs degree")):
    """A binomial lhs - rhs between monomials of equal weighted degree."""

    __slots__ = ()

    def __new__(cls, lhs: tuple[int, ...], rhs: tuple[int, ...],
                degree: int) -> BinomialRelation:
        if lhs == rhs:
            raise PresentationError("trivial relation")
        return super().__new__(cls, lhs, rhs, degree)


class Presentation(NamedTuple):
    gen_tuple: GeneratorTuple
    relations: tuple[BinomialRelation, ...]

    @property
    def mu(self) -> int:
        """Number of relations."""
        return len(self.relations)

    @property
    def betti_degrees(self) -> tuple[int, ...]:
        """Degree of each relation, in relation order."""
        return tuple(rel.degree for rel in self.relations)

    @property
    def derivatives(self) -> tuple[tuple[int, ...], ...]:
        """The derivative matrix over every variable: lhs - rhs per
        relation, in relation order, the distinguished slot first.  A
        derivative in the module variables only is a row from index 1 on."""
        return tuple(tuple(a - b for a, b in zip(rel.lhs, rel.rhs))
                     for rel in self.relations)


def betti_degree_bound(gen_tuple: GeneratorTuple) -> int:
    """Degree past which the shared-support graph is always connected."""
    amb = from_generators(gen_tuple.weights)
    return amb.conductor + 2 * max(gen_tuple.weights)


def _positions(weights: tuple[int, ...], mask: int, x: int) -> int:
    """Bitmask of the positions i with x - w_i in S; mask holds the
    members of S up to x."""
    return sum(1 << i for i, w in enumerate(weights)
               if w <= x and mask >> (x - w) & 1)


def _components(weights: tuple[int, ...], mask: int, d: int) -> list[int]:
    """Connected components of G_d, each a bitmask of generator positions.

    The vertices are _positions(d); the neighbours of vertex i are the
    vertices among _positions(d - w_i).
    """
    rest = _positions(weights, mask, d)
    comps = []
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            i = low.bit_length() - 1
            new = _positions(weights, mask, d - weights[i]) & rest & ~comp
            comp |= new
            frontier |= new
        rest &= ~comp
        comps.append(comp)
    return comps


def _extreme_factorization(weights: tuple[int, ...], comp: int, d: int,
                           largest: bool) -> tuple[int, ...]:
    """Lexicographically least (or largest) exponent vector of degree d
    with support inside the positions of comp.

    after[p] is the bitmask of the sums of the weights of comp past
    position p, closed under repetition by _closure.  The vector is
    fixed coordinate by coordinate: each takes the least (or largest)
    exponent that leaves a remainder in after[p]; the last position
    takes what remains.
    """
    pos = [i for i in range(len(weights)) if comp >> i & 1]
    after = {}
    reach = 1
    for p in reversed(pos):
        after[p] = reach
        reach = _closure(reach, weights[p], d)
    vec = [0] * len(weights)
    rem = d
    for p in pos[:-1]:
        w, tail = weights[p], after[p]
        e = rem // w if largest else 0
        while not tail >> (rem - e * w) & 1:
            e += -1 if largest else 1
        vec[p] = e
        rem -= e * w
    vec[pos[-1]] = rem // weights[pos[-1]]
    return tuple(vec)


def minimal_presentation(gen_tuple: GeneratorTuple,
                         reverse_tiebreak: bool = False) -> Presentation:
    """Minimal binomial generating set of the toric ideal of the tuple.

    Works for non-minimal tuples as well (the blowup tuple usually is
    one).  The R-classes of degree d are the components of G_d, the graph
    on the positions i with d - w_i in S joining i and j when d - w_i - w_j
    is in S (Rosales 1997; Rosales and Garcia-Sanchez 2009, ch. 7, as in
    the module notes); degree d needs one relation less than it has.

    Components are built only on the candidate degrees, found on the
    membership bitmask: uses_i = mask << w_i has bit d set when d - w_i is
    in S, and G_d is connected when some used position is a hub, joined to
    every other used one.  The candidates, used and without a hub, lie
    inside the degrees where two used positions are not joined.

    Each relation joins the lexicographically least factorization of a
    component to the least one of all (the anchor), both built greedily by
    _extreme_factorization; reverse_tiebreak takes the largest ones
    instead, which must not change any downstream length.
    """
    weights = gen_tuple.weights
    top = betti_degree_bound(gen_tuple)
    mask = from_generators(weights).members_mask(top)
    uses = [mask << w for w in weights]
    used = hubs = 0
    for i, w in enumerate(weights):
        hub = uses[i]
        for j, v in enumerate(weights):
            if j != i:
                hub &= ~uses[j] | mask << (w + v)
        used |= uses[i]
        hubs |= hub
    split = used & ~hubs & ((1 << (top + 1)) - 1)
    relations: list[BinomialRelation] = []
    while split:
        d = (split & -split).bit_length() - 1
        split &= split - 1
        comps = _components(weights, mask, d)
        if len(comps) < 2:
            continue
        ends = sorted((_extreme_factorization(weights, c, d, reverse_tiebreak)
                       for c in comps), reverse=reverse_tiebreak)
        anchor = ends[0]
        for p in ends[1:]:
            relations.append(BinomialRelation(min(anchor, p), max(anchor, p), d))
    return Presentation(gen_tuple, tuple(relations))


def _weight_monoid(weights: tuple[int, ...], top: int) -> int:
    """The sums of the weights up to top, 0 included, as a bitmask: one
    pass ORs in the mask shifted by each weight and its doublings, read
    off the weights alone.  A mask closed under one weight stays closed
    under it while later weights are added, so one pass suffices."""
    full = (1 << (top + 1)) - 1
    sums = 1
    for w in weights:
        while w <= top:
            sums |= sums << w & full
            w <<= 1
    return sums


def _joined(weights: tuple[int, ...], top: int,
            joins: Iterable[tuple[int, int]] = ()) -> list[list[int]]:
    """joined[p][r] has bit d, d <= top, when positions p and r lie in
    one class of degree d; joined[p][p] has it when p is used there.

    With N the sums of the weights (_weight_monoid), p is used in degree
    d when d - w_p is in N, and p and r share a factorization there when
    d - w_p - w_r is.  Those masks, N << w_p and N << (w_p + w_r), are the
    vertices and edges of G_d for every degree d at once.  Each (degree,
    positions) pair of joins adds the edges between its positions in its
    degree; the classes are the components, the bit-sliced transitive
    closure of the edges (Warshall, k^3 ANDs and ORs on whole masks).
    Without joins they are the R-classes.
    """
    sums = _weight_monoid(weights, top)
    full = (1 << (top + 1)) - 1
    joined = [[sums << (w + v) & full for v in weights] for w in weights]
    for p, w in enumerate(weights):
        joined[p][p] = sums << w & full
    for d, positions in joins:
        ends = [p for p in range(len(weights)) if positions >> p & 1]
        for p in ends:
            for r in ends:
                joined[p][r] |= 1 << d & full
    for m, via in enumerate(joined):
        for row in joined:
            hop = row[m]
            if hop and row is not via:
                row[:] = [to | hop & step for to, step in zip(row, via)]
    return joined


def _support(vec: tuple[int, ...]) -> int:
    """Support mask of an exponent vector: bit p for a nonzero exponent."""
    return sum(1 << p for p, e in enumerate(vec) if e)


def relations_generate(pres: Presentation) -> bool:
    """Congruence connectivity check: do the relations generate the ideal?

    For every degree up to the Betti bound, the graph on the
    factorizations whose edges are relation translates must be
    connected.  It is checked on R-classes (Herzog, Manuscripta Math. 3,
    1970; Rosales and Garcia-Sanchez 2009, ch. 7).  While every lower
    degree is connected, the factorizations of degree d that use
    generator i are e_i plus those of d - w_i, so they are connected; and
    a translate with a nonzero cofactor c stays among the factorizations
    that use a generator of c.  So degree d is connected exactly when its
    relations of degree d join its R-classes, and the relations generate
    exactly when that holds in every degree.  Each side of such a
    relation is a factorization of degree d, its support inside one
    R-class, so joining the union of the two supports in degree d merges
    exactly the classes the relation joins.  _joined takes those joins
    with the edges of every G_d into one closure; the relations generate
    when every two positions used in a degree are joined there.

    No factorization is listed and the members of S are not read: the
    graphs G_d are the ones minimal_presentation reads from the
    membership bitmask of S, derived here from the weights alone, and so
    is the Betti bound, from Schur's bound (q - 1)(max - 1) on the
    conductor (Brauer, Amer. J. Math. 64, 1942), so the two routes share
    the graph but not the way it is computed.

    A relation whose sides are not of its labelled degree, or weights
    with a common factor, raise PresentationError.
    """
    weights = pres.gen_tuple.weights
    joins = []
    for rel in pres.relations:
        if any(sum(map(mul, side, weights)) != rel.degree
               for side in (rel.lhs, rel.rhs)):
            raise PresentationError(
                f"relation {rel.lhs} - {rel.rhs} is not of degree "
                f"{rel.degree} over the weights {weights}")
        joins.append((rel.degree, _support(rel.lhs) | _support(rel.rhs)))
    q, big = min(weights), max(weights)
    schur = (q - 1) * (big - 1)
    top = schur + q - 1
    conductor = (~_weight_monoid(weights, top) & ((1 << (top + 1)) - 1)
                 ).bit_length()
    if conductor > schur:
        raise PresentationError(f"the weights {weights} have a common factor")
    top = conductor + 2 * big
    joined = _joined(weights, top, joins)
    return not any(row[p] & joined[r][r] & ~row[r]
                   for p, row in enumerate(joined)
                   for r in range(p + 1, len(row)))


@lru_cache(maxsize=None)
def presentation_of(S: NumericalSemigroup,
                    reverse_tiebreak: bool = False) -> Presentation:
    """Minimal presentation over the full minimal generator tuple of S."""
    return minimal_presentation(GeneratorTuple(S.min_generators), reverse_tiebreak)


@lru_cache(maxsize=None)
def blowup_presentation(S: NumericalSemigroup,
                        reverse_tiebreak: bool = False) -> Presentation:
    """Presentation of the transformed curve over the untransformed tuple.

    The tuple keeps the original multiplicity in the distinguished slot
    and n_i - q in the variable slots.  Generation is verified by the
    congruence connectivity check.
    """
    tup = GeneratorTuple(blowup(S).generator_tuple)
    pres = minimal_presentation(tup, reverse_tiebreak)
    if not relations_generate(pres):
        raise PresentationError("blowup presentation does not generate")
    return pres


def deviation(S: NumericalSemigroup) -> int:
    """Excess of the minimal relation count over embdim - 1.

    0 means complete intersection, 1 almost complete intersection.  No
    tie-break changes it: each degree adds its component count minus one.
    """
    if S.embdim == 1:
        return 0
    # positional False: the cache key every other caller uses
    return presentation_of(S, False).mu - (S.embdim - 1)


def classify_transform(S: NumericalSemigroup) -> str:
    """Deviation class of the curve paired with that of its transform."""
    if S.embdim == 1:
        return "regular"
    d0 = deviation(S)
    d1 = deviation(blowup(S).transformed)
    if d0 == 0:
        return "stable CI" if d1 == 0 else "CI-unstable"
    if d0 == 1:
        return "nice ACI" if d1 == 0 else "ACI-not-nice"
    return "other"


def rescaled_relation_generators(S: NumericalSemigroup,
                                 pres: Presentation) -> Presentation:
    """Relation generators divided by the square of the distinguished parameter.

    Substituting X_i -> x * Z_i turns each side x^a0 * X^a into
    x^(a0 + |a|) * Z^a; dividing by x^2 is possible exactly because both
    sides of a minimal relation have total degree at least 2.  The result
    is a presentation over the blowup tuple, one relation per relation of
    pres, each degree lower by twice the multiplicity; only the
    distinguished exponent changes, so its derivatives from index 1 on
    are those of pres.
    """
    if pres.gen_tuple.weights != S.min_generators:
        raise PresentationError("expected the minimal presentation of S itself")
    q = S.multiplicity
    bw = blowup(S).generator_tuple
    out = []
    for rel in pres.relations:
        sides = []
        for side in (rel.lhs, rel.rhs):
            if sum(side) < 2:
                raise PresentationError(
                    "presentation side of total degree < 2; input not minimal")
            sides.append((sum(side) - 2,) + side[1:])
        deg = rel.degree - 2 * q
        if any(sum(e * w for e, w in zip(s, bw)) != deg for s in sides):
            raise PresentationError("degree bookkeeping failed in rescaling")
        out.append(BinomialRelation(sides[0], sides[1], deg))
    return Presentation(GeneratorTuple(bw), tuple(out))
