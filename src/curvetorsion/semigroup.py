"""Numerical semigroups and the quadratic transform of their monomial curves.

A numerical semigroup is a cofinite additive submonoid of the nonnegative
integers.  It encodes a monomial curve branch: the ring spanned by the
monomials t^a for a in the semigroup.  The quadratic transform (blowup)
subtracts the multiplicity from every other minimal generator and inflicts
a strictly larger semigroup until the whole of N is reached.

Membership is stored once, as one int: bit v is set exactly when v is a
member, and every bit from the conductor on is set, so the int is
negative.  Everything else is read from it with shifts and masks
(Rosales and Garcia-Sanchez, Numerical Semigroups, Springer 2009,
chs. 1-2): the conductor is the bit length of its complement, the gaps
are the set bits of that complement, a member is a minimal generator
exactly when the closure of the smaller minimal generators misses it,
and the Apery set of n holds the members s with s - n not a member.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import Iterable, Iterator, NamedTuple

from .errors import DomainError


class SemigroupError(DomainError, ValueError):
    """Raised for inputs that do not define a numerical semigroup."""


def _closure(mask: int, w: int, top: int) -> int:
    """A mask with no bit above top, closed under adding w up to top: bit
    v is set when v - k*w is in mask for some k >= 0.  Shift doubling:
    mask is ORed with itself shifted by w, 2w, 4w, ... up to top."""
    full = (1 << (top + 1)) - 1
    while w <= top:
        mask |= (mask << w) & full
        w <<= 1
    return mask


def _set_bits(mask: int) -> list[int]:
    """Positions of the set bits of a nonnegative int, increasing."""
    return [v for v, digit in enumerate(bin(mask)[:1:-1]) if digit == "1"]


class NumericalSemigroup:
    """Immutable numerical semigroup with precomputed invariants.

    Built from its member int (_members: bit v for member v, every bit
    from the conductor on set); the conductor, gaps and minimal
    generators are derived from it once.  Instances compare and hash by
    their minimal generating set; the hash is computed once.
    """

    __slots__ = ("min_generators", "gaps", "multiplicity", "embdim",
                 "frobenius", "conductor", "genus", "_members", "_hash")

    def __init__(self, members: int):
        conductor = (~members).bit_length()
        nonzero = members & -2
        q = (nonzero & -nonzero).bit_length() - 1
        # any member from max(conductor + q, 2q) on is q plus a nonzero
        # member; below, a member the smaller generators miss is minimal
        top = max(conductor + q, 2 * q) - 1
        free = nonzero & ((1 << (top + 1)) - 1)
        reach = 1
        gens = []
        while free:
            m = (free & -free).bit_length() - 1
            gens.append(m)
            reach = _closure(reach, m, top)
            free &= ~reach
        self._members = members
        self.min_generators = tuple(gens)
        self.gaps = tuple(_set_bits(~members))
        self.conductor = conductor
        self.multiplicity = q
        self.embdim = len(gens)
        self.genus = len(self.gaps)
        self.frobenius = conductor - 1
        self._hash = hash(self.min_generators)

    def contains(self, value: int) -> bool:
        return value >= 0 and bool(self._members >> value & 1)

    __contains__ = contains

    def members(self, bound: int) -> list[int]:
        """All members up to and including bound, in increasing order."""
        return _set_bits(self.members_mask(bound))

    def members_mask(self, bound: int) -> int:
        """The members up to and including bound as one int: bit v is set
        exactly when v is a member."""
        return self._members & ((1 << max(bound + 1, 0)) - 1)

    @property
    def is_symmetric(self) -> bool:
        # symmetric exactly when the conductor is twice the genus
        # (Rosales and Garcia-Sanchez 2009, Cor. 4.5)
        return self.conductor == 2 * self.genus

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NumericalSemigroup):
            return NotImplemented
        return self.min_generators == other.min_generators

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"NumericalSemigroup{self.min_generators}"

    def __str__(self) -> str:
        return "<" + ",".join(str(g) for g in self.min_generators) + ">"


@lru_cache(maxsize=None)
def _build(values: tuple[int, ...]) -> NumericalSemigroup:
    """The semigroup generated by values, sieved as the closure of 0
    under each value up to Schur's bound (q - 1)(max - 1) on the
    conductor (Brauer, Amer. J. Math. 64, 1942); from there on everything
    is a member.  The bound is taken over the shortest prefix of gcd 1,
    whose semigroup lies inside this one, so a large redundant value
    does not widen the sieve."""
    last = next(v for i, v in enumerate(values) if gcd(*values[:i + 1]) == 1)
    top = (values[0] - 1) * (last - 1)
    member = 1
    for g in values:
        member = _closure(member, g, top)
    return NumericalSemigroup(member | -(1 << top))


def from_generators(values: Iterable[int]) -> NumericalSemigroup:
    """Numerical semigroup generated by the given positive integers.

    The input is minimalized: redundant generators are dropped.  Raises
    SemigroupError when a generator is not a positive integer or the gcd
    of the generators is not 1.
    """
    values = tuple(values)
    try:
        vals = sorted({int(v) for v in values})
    except (ValueError, OverflowError):  # NaN, infinity
        raise SemigroupError("generators must be positive integers") from None
    if not vals or vals[0] < 1 or any(int(v) != v for v in values):
        raise SemigroupError("generators must be positive integers")
    g = 0
    for v in vals:
        g = gcd(g, v)
    if g != 1:
        raise SemigroupError(f"not a numerical semigroup: gcd {g} != 1")
    return _build(tuple(vals))


def apery_set(S: NumericalSemigroup, modulus: int) -> list[int]:
    """Least member of S in each residue class mod modulus, indexed by residue.

    The result has exactly `modulus` entries and starts with 0.
    """
    if modulus < 1 or not S.contains(modulus):
        raise SemigroupError(f"apery modulus {modulus} is not a nonzero member")
    out = [0] * modulus
    top = S.conductor + modulus - 1
    for s in _set_bits(S.members_mask(top) & ~(S._members << modulus)):
        out[s % modulus] = s
    return out


class BlowupResult(NamedTuple):
    """Quadratic transform of a semigroup, keeping the untransformed tuple.

    generator_tuple is (q, n2 - q, ..., nk - q) in generator order; it is
    usually not a minimal generating set of the transformed semigroup.
    colength counts the transform modulo the original ring.
    """

    transformed: NumericalSemigroup
    generator_tuple: tuple[int, ...]
    colength: int


@lru_cache(maxsize=None)
def blowup(S: NumericalSemigroup) -> BlowupResult:
    """First quadratic transform: subtract the multiplicity from the others."""
    q = S.multiplicity
    if S.embdim == 1:
        return BlowupResult(S, (q,), 0)
    tup = (q,) + tuple(n - q for n in S.min_generators[1:])
    transformed = from_generators(tup)
    return BlowupResult(transformed, tup, colength(S, transformed))


def colength(inner: NumericalSemigroup, outer: NumericalSemigroup) -> int:
    """Number of members of outer missing from inner; requires inner <= outer."""
    for g in inner.min_generators:
        if not outer.contains(g):
            raise SemigroupError(f"{inner} is not contained in {outer}")
    return inner.genus - outer.genus


def enumerate_by_genus(max_genus: int) -> Iterator[NumericalSemigroup]:
    """All numerical semigroups of genus <= max_genus.

    Tree walk: children of S remove one minimal generator m exceeding the
    Frobenius number, that is, clear bit m of the parent's member int.
    Yields deterministically, ordered by (genus,
    minimal generators lexicographically).
    """
    if max_genus < 0:
        raise SemigroupError("max_genus must be nonnegative")
    level = [from_generators([1])]
    yield level[0]
    for _ in range(max_genus):
        children = []
        for S in level:
            for m in S.min_generators:
                if m > S.frobenius:
                    children.append(NumericalSemigroup(S._members & ~(1 << m)))
        children.sort(key=lambda T: T.min_generators)
        yield from children
        level = children
