"""Numerical semigroups and the quadratic transform of their monomial curves.

A numerical semigroup is a cofinite additive submonoid of the nonnegative
integers.  It encodes a monomial curve branch: the ring spanned by the
monomials t^a for a in the semigroup.  The quadratic transform (blowup)
subtracts the multiplicity from every other minimal generator and inflicts
a strictly larger semigroup until the whole of N is reached.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from math import gcd
from typing import Iterable, Iterator


_DIGITS = bytes.maketrans(b"\x00\x01", b"01")  # bitmap bytes as binary digits


class SemigroupError(ValueError):
    """Raised for inputs that do not define a numerical semigroup."""


class NumericalSemigroup:
    """Immutable numerical semigroup with precomputed invariants.

    Membership is stored as a bitmap up to conductor + largest generator;
    everything from the conductor on is an implicit member.  The members
    below the conductor are also kept as a sorted tuple, and all members
    as one int (_members, bit v for member v, every bit from the
    conductor on set, so the int is negative).  Instances compare and
    hash by their minimal generating set; the hash is computed once.
    """

    __slots__ = ("min_generators", "gaps", "multiplicity", "embdim",
                 "frobenius", "conductor", "genus", "_bitmap", "_below",
                 "_members", "_hash")

    def __init__(self, min_generators: tuple[int, ...], gaps: tuple[int, ...],
                 conductor: int, bitmap: bytes):
        self.min_generators = min_generators
        self.gaps = gaps
        self.conductor = conductor
        self.multiplicity = min_generators[0]
        self.embdim = len(min_generators)
        self.genus = len(gaps)
        self.frobenius = gaps[-1] if gaps else -1
        self._bitmap = bitmap
        self._below = tuple(compress(range(conductor), bitmap))
        self._members = int(bitmap[::-1].translate(_DIGITS), 2) \
            | -(1 << conductor)
        self._hash = hash(min_generators)

    def contains(self, value: int) -> bool:
        if value < 0:
            return False
        if value >= self.conductor:
            return True
        return bool(self._bitmap[value])

    __contains__ = contains

    def members(self, bound: int) -> list[int]:
        """All members up to and including bound, in increasing order."""
        below = self._below
        return list(below[:bisect_right(below, bound)]) \
            + list(range(self.conductor, bound + 1))

    def members_mask(self, bound: int) -> int:
        """The members up to and including bound as one int: bit v is set
        exactly when v is a member."""
        return self._members & ((1 << max(bound + 1, 0)) - 1)

    @property
    def is_symmetric(self) -> bool:
        f = self.frobenius
        return all(self.contains(z) != self.contains(f - z) for z in range(f + 1))

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


def _sieve(gens: tuple[int, ...]) -> tuple[bytearray, int]:
    """Membership bitmap and conductor for the monoid generated by gens.

    Grows the sieve until a run of multiplicity-many consecutive members
    appears; from there on everything is a member.
    """
    q = gens[0]
    bound = 2 * max(gens) + 2
    while True:
        member = bytearray(bound + 1)
        member[0] = 1
        for i in range(1, bound + 1):
            for g in gens:
                if g <= i and member[i - g]:
                    member[i] = 1
                    break
        run = 0
        for i in range(bound + 1):
            run = run + 1 if member[i] else 0
            if run == q:
                return member, i - q + 1
        bound *= 2


@lru_cache(maxsize=None)
def _build(values: tuple[int, ...]) -> NumericalSemigroup:
    member, conductor = _sieve(values)
    q = values[0]
    top = max(conductor + max(values), 2 * q)
    if len(member) <= top:
        member = member + bytearray(b"\x01" * (top + 1 - len(member)))
    # a member is a minimal generator iff it is not a sum of two nonzero
    # members; any member past max(conductor + q, 2q) - 1 decomposes
    min_gens = []
    for m in range(1, max(conductor + q, 2 * q)):
        if not member[m]:
            continue
        if any(member[a] and member[m - a] for a in range(q, m - q + 1)):
            continue
        min_gens.append(m)
    gaps = tuple(i for i in range(1, conductor) if not member[i])
    return NumericalSemigroup(tuple(min_gens), gaps, conductor, bytes(member[:top + 1]))


def from_generators(values: Iterable[int]) -> NumericalSemigroup:
    """Numerical semigroup generated by the given positive integers.

    The input is minimalized: redundant generators are dropped.  Raises
    SemigroupError when the gcd of the generators is not 1.
    """
    vals = sorted({int(v) for v in values})
    if not vals or vals[0] < 1:
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
    out = []
    for r in range(modulus):
        k = r
        while not S.contains(k):
            k += modulus
        out.append(k)
    return out


@dataclass(frozen=True)
class BlowupResult:
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

    Tree walk: children of S remove one minimal generator exceeding the
    Frobenius number.  Yields deterministically, ordered by (genus,
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
                    kept = [v for v in range(1, 2 * m + 3)
                            if v != m and S.contains(v)]
                    children.append(from_generators(kept))
        children.sort(key=lambda T: T.min_generators)
        yield from children
        level = children
