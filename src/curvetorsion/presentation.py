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

The generation check, relations_generate, is the independent second
route that confirms a presentation generates.  It lists no factorization
either: a knapsack over the weights gives, per degree, the set of support
masks of its factorizations, and the R-classes are merged from those
masks, without reading S or G_d.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from .semigroup import NumericalSemigroup, blowup, from_generators


class PresentationError(ValueError):
    """Raised for malformed generator tuples or unusable presentations."""


@dataclass(frozen=True)
class GeneratorTuple:
    """Ordered weight tuple for a toric presentation.

    When has_x is set, position 0 carries the distinguished parameter
    (weight = multiplicity of the ambient curve) that stays constant
    under differentiation; the remaining slots are the module variables.
    """

    weights: tuple[int, ...]
    has_x: bool = True

    def __post_init__(self) -> None:
        if not self.weights or any(w < 1 for w in self.weights):
            raise PresentationError("weights must be positive integers")

    @property
    def x_weight(self) -> int:
        if not self.has_x:
            raise PresentationError("tuple has no distinguished slot")
        return self.weights[0]

    @property
    def var_weights(self) -> tuple[int, ...]:
        return self.weights[1:] if self.has_x else self.weights


@dataclass(frozen=True)
class BinomialRelation:
    """A binomial lhs - rhs between monomials of equal weighted degree."""

    lhs: tuple[int, ...]
    rhs: tuple[int, ...]
    degree: int

    def __post_init__(self) -> None:
        if self.lhs == self.rhs:
            raise PresentationError("trivial relation")

    def coefficients(self, skip_first: bool) -> tuple[int, ...]:
        """Exponent differences, i.e. the derivative coefficients per slot."""
        start = 1 if skip_first else 0
        return tuple(a - b for a, b in zip(self.lhs[start:], self.rhs[start:]))


@dataclass(frozen=True)
class Presentation:
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
    position p, closed under repetition by shift doubling.  The vector is
    fixed coordinate by coordinate: each takes the least (or largest)
    exponent that leaves a remainder in after[p]; the last position
    takes what remains.
    """
    full = (1 << (d + 1)) - 1
    pos = [i for i in range(len(weights)) if comp >> i & 1]
    after = {}
    reach = 1
    for p in reversed(pos):
        after[p] = reach
        step = weights[p]
        while step <= d:
            reach |= (reach << step) & full
            step <<= 1
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


@lru_cache(maxsize=None)
def _lacking(k: int, p: int) -> int:
    """Bitset over the support masks 0..2^k - 1 of those without bit p."""
    bits, width = (1 << (1 << p)) - 1, 2 << p
    while width < 1 << k:
        bits |= bits << width
        width <<= 1
    return bits


def _support_sets(weights: tuple[int, ...], top: int) -> list[int]:
    """sup[d] for d = 0..top: bit m is set when some factorization of
    degree d has support mask m (bit p of m for a nonzero exponent at p).

    A knapsack over the positions: adding e_p to a factorization of
    degree d - w_p moves its mask m to m | 1 << p.
    """
    sup = [1] + [0] * top
    for p, w in enumerate(weights):
        lacks, step = _lacking(len(weights), p), 1 << p
        for d in range(w, top + 1):
            x = sup[d - w]
            if x:
                sup[d] |= (x & lacks) << step | (x & ~lacks)
    return sup


def _support(vec: tuple[int, ...]) -> int:
    """Support mask of an exponent vector: bit p for a nonzero exponent."""
    return sum(1 << p for p, e in enumerate(vec) if e)


def _merge(comps: list[int], joined: int) -> None:
    """Merge every component meeting the position mask joined, in place."""
    kept = []
    for c in comps:
        if c & joined:
            joined |= c
        else:
            kept.append(c)
    kept.append(joined)
    comps[:] = kept


def relations_generate(pres: Presentation, extra_degrees: int = 0) -> bool:
    """Congruence connectivity check: do the relations generate the ideal?

    For every degree up to the Betti bound (plus extra_degrees), the graph
    on factorizations whose edges are relation translates must be
    connected.  It is checked degree by degree, ascending, on R-classes
    (Herzog, Manuscripta Math. 3, 1970; Rosales and Garcia-Sanchez 2009,
    ch. 7).  While every lower degree is connected, the factorizations of
    degree d that use generator i are e_i plus those of d - w_i, so they
    are connected; and a translate with a nonzero cofactor c stays among
    the factorizations that use a generator of c.  So degree d is
    connected exactly when its relations of degree d join its R-classes:
    the components of the positions merged along each support mask in
    sup[d] (_support_sets).  No factorization is listed, and neither the
    members of S nor G_d is read, so this stays a route independent of
    minimal_presentation.

    A relation whose sides are not of its labelled degree raises
    PresentationError.
    """
    weights = pres.gen_tuple.weights
    joins: dict[int, list[int]] = {}
    for rel in pres.relations:
        if any(sum(map(mul, side, weights)) != rel.degree
               for side in (rel.lhs, rel.rhs)):
            raise PresentationError(
                f"relation {rel.lhs} - {rel.rhs} is not of degree "
                f"{rel.degree} over the weights {weights}")
        joins.setdefault(rel.degree, []).append(
            _support(rel.lhs) | _support(rel.rhs))
    top = betti_degree_bound(pres.gen_tuple) + extra_degrees
    for d, x in enumerate(_support_sets(weights, top)):
        if not x & (x - 1):
            continue
        comps: list[int] = []
        while x:
            low = x & -x
            x ^= low
            _merge(comps, low.bit_length() - 1)
        for joined in joins.get(d, ()):
            _merge(comps, joined)
        if len(comps) > 1:
            return False
    return True


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
                                 pres: Presentation) -> tuple[BinomialRelation, ...]:
    """Relation generators divided by the square of the distinguished parameter.

    Substituting X_i -> x * Z_i turns each side x^a0 * X^a into
    x^(a0 + |a|) * Z^a; dividing by x^2 is possible exactly because both
    sides of a minimal relation have total degree at least 2.  The result
    lives over the blowup tuple and each degree drops by twice the
    multiplicity.
    """
    if pres.gen_tuple.weights != S.min_generators or not pres.gen_tuple.has_x:
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
    return tuple(out)
