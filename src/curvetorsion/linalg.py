"""Exact linear algebra over the integers.

All graded ranks in this package are ranks of small integer matrices,
and one fraction-free elimination, Echelon, computes them all, so there
is no floating point anywhere.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Sequence


class Echelon:
    """Linearly independent integer rows in echelon form, grown one at a time.

    Each stored row is primitive (its entries have gcd 1) and is zero in
    the pivot column of every row stored before it, so a candidate row is
    reduced against all of them in one pass and is independent exactly
    when something survives.  The form is persistent: extend and absorb
    return a new Echelon and leave this one as it was, so a depth-first
    search backtracks by dropping a reference.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[tuple[int, tuple[int, ...]], ...] = ()):
        self.rows = rows  # (pivot column, row) pairs

    @property
    def rank(self) -> int:
        return len(self.rows)

    def extend(self, vec: Sequence[int]) -> Echelon | None:
        """The echelon with vec added, or None when vec is dependent."""
        grown = self.absorb((vec,))
        return grown if grown.rank > self.rank else None

    def absorb(self, vecs: Iterable[Sequence[int]]) -> Echelon:
        """The echelon of these rows and vecs; it stops reading vecs once
        the rank equals the row width, since no later row can raise it."""
        rows = list(self.rows)
        for vec in vecs:
            if len(rows) == len(vec):
                break
            v = vec
            for pivot, row in rows:
                f = v[pivot]
                if f:
                    p = row[pivot]
                    v = [p * a - f * b for a, b in zip(v, row)]
            for pivot, a in enumerate(v):
                if a:
                    g = gcd(*v)
                    rows.append((pivot, tuple(v) if g == 1
                                 else tuple([a // g for a in v])))
                    break
        return Echelon(tuple(rows))


def integer_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals of an integer matrix given as a list of rows."""
    if not rows:
        return 0
    if len(rows) > len(rows[0]):  # fewer, longer vectors: faster
        rows = list(zip(*rows))
    return Echelon().absorb(rows).rank
