"""Toric presentations of a monomial curve and of its quadratic transform.

Relations between the monomial generators are binomials; a minimal set of
them is read off degree by degree from the graph on factorizations whose
edges join factorizations with overlapping support.  Each degree with c
connected components contributes c - 1 relations, and no degree beyond
conductor + 2 * max(weight) contributes at all, because there the graph
is always connected.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

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
    mu: int
    betti_degrees: tuple[int, ...]


@lru_cache(maxsize=None)
def factorizations(weights: tuple[int, ...], degree: int) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors of the given weighted degree, lexicographically."""
    if degree < 0:
        return ()
    if not weights:
        return ((),) if degree == 0 else ()
    out = []
    w0 = weights[0]
    for e in range(degree // w0 + 1):
        for rest in factorizations(weights[1:], degree - e * w0):
            out.append((e,) + rest)
    return tuple(out)


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        p = self.parent
        while p[i] != i:
            p[i] = p[p[i]]
            i = p[i]
        return i

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[rj] = ri


def _support_components(facs: Sequence[tuple[int, ...]]) -> list[list[tuple[int, ...]]]:
    """Connected components of the shared-support graph on factorizations."""
    uf = _UnionFind(len(facs))
    for var in range(len(facs[0])):
        first = None
        for idx, f in enumerate(facs):
            if f[var]:
                if first is None:
                    first = idx
                else:
                    uf.union(first, idx)
    groups: dict[int, list[tuple[int, ...]]] = {}
    for idx, f in enumerate(facs):
        groups.setdefault(uf.find(idx), []).append(f)
    return list(groups.values())


def betti_degree_bound(gen_tuple: GeneratorTuple) -> int:
    """Degree past which the shared-support graph is always connected."""
    amb = from_generators(gen_tuple.weights)
    return amb.conductor + 2 * max(gen_tuple.weights)


@lru_cache(maxsize=None)
def minimal_presentation(gen_tuple: GeneratorTuple,
                         reverse_tiebreak: bool = False) -> Presentation:
    """Minimal binomial generating set of the toric ideal of the tuple.

    Works for non-minimal tuples as well (the blowup tuple usually is
    one).  Spanning relations per disconnected degree are chosen
    deterministically from the lexicographically extreme factorization of
    each component; reverse_tiebreak flips which extreme is used, which
    must not change any downstream length.
    """
    weights = gen_tuple.weights
    relations: list[BinomialRelation] = []
    betti: list[int] = []
    for d in range(1, betti_degree_bound(gen_tuple) + 1):
        facs = factorizations(weights, d)
        if len(facs) < 2:
            continue
        comps = [sorted(c) for c in _support_components(facs)]
        if len(comps) < 2:
            continue
        if reverse_tiebreak:
            comps.sort(key=lambda c: c[-1], reverse=True)
            anchor = comps[0][-1]
            picks = [c[-1] for c in comps[1:]]
        else:
            comps.sort(key=lambda c: c[0])
            anchor = comps[0][0]
            picks = [c[0] for c in comps[1:]]
        for p in picks:
            lhs, rhs = (anchor, p) if anchor < p else (p, anchor)
            relations.append(BinomialRelation(lhs, rhs, d))
            betti.append(d)
    return Presentation(gen_tuple, tuple(relations), len(relations), tuple(betti))


def relations_generate(pres: Presentation, extra_degrees: int = 0) -> bool:
    """Congruence connectivity check: do the relations generate the ideal?

    For every degree up to the Betti bound (plus extra_degrees), the graph
    on factorizations whose edges are relation translates must be
    connected.
    """
    weights = pres.gen_tuple.weights
    for d in range(1, betti_degree_bound(pres.gen_tuple) + extra_degrees + 1):
        facs = factorizations(weights, d)
        if len(facs) < 2:
            continue
        index = {f: i for i, f in enumerate(facs)}
        uf = _UnionFind(len(facs))
        for rel in pres.relations:
            if rel.degree > d:
                continue
            for c in factorizations(weights, d - rel.degree):
                a = tuple(x + y for x, y in zip(c, rel.lhs))
                b = tuple(x + y for x, y in zip(c, rel.rhs))
                uf.union(index[a], index[b])
        roots = {uf.find(i) for i in range(len(facs))}
        if len(roots) > 1:
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
