"""Exact linear algebra over the integers.

All graded ranks in this package reduce to ranks of small integer
matrices.  Fraction-free (Bareiss) elimination keeps every intermediate
value an integer, so there is no floating point anywhere.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence


def integer_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals of an integer matrix given as a list of rows."""
    m = [list(r) for r in rows if any(r)]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(m)):
            if m[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        lead = m[rank]
        for i in range(rank + 1, len(m)):
            row = m[i]
            f = row[col]
            for j in range(col + 1, ncols):
                # Bareiss update: division by the previous pivot is exact
                row[j] = (lead[col] * row[j] - f * lead[j]) // prev
            row[col] = 0
        prev = lead[col]
        rank += 1
        if rank == len(m):
            break
    return rank


class Echelon:
    """Linearly independent integer rows in echelon form, grown one at a time.

    Each stored row is primitive (its entries have gcd 1) and is zero in
    the pivot column of every row stored before it, so a candidate row is
    reduced against all of them in one pass and is independent exactly
    when something survives.  The form is persistent: extend returns a new
    Echelon and leaves this one as it was, so a depth-first search
    backtracks by dropping a reference.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[tuple[int, tuple[int, ...]], ...] = ()):
        self.rows = rows  # (pivot column, row) pairs

    @property
    def rank(self) -> int:
        return len(self.rows)

    def extend(self, vec: Sequence[int]) -> Echelon | None:
        """The echelon with vec added, or None when vec is dependent."""
        v = list(vec)
        for pivot, row in self.rows:
            f = v[pivot]
            if f:
                p = row[pivot]
                v = [p * a - f * b for a, b in zip(v, row)]
        pivot = next((j for j, a in enumerate(v) if a), None)
        if pivot is None:
            return None
        g = gcd(*v)
        return Echelon(self.rows + ((pivot, tuple(a // g for a in v)),))

