"""Exact linear algebra over the integers.

All graded ranks in this package are ranks of small integer matrices,
and one fraction-free elimination loop, _reduce, computes them all on a
plain list, for integer_rank and for the greedy basis of the least minor
degree, so there is no floating point anywhere.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Sequence


def _reduce(rows: list, vecs: Iterable[Sequence[int]]) -> None:
    """Reduce each of vecs against the (pivot column, row) pairs of rows
    and append what survives, made primitive, in place; stop reading vecs
    once the rank equals the row width, since no later row can raise it.
    A row that needs no reduction is stored as given, not copied."""
    for vec in vecs:
        if len(rows) == len(vec):
            return
        v = vec
        for pivot, row in rows:
            f = v[pivot]
            if f:
                p = row[pivot]
                v = [p * a - f * b for a, b in zip(v, row)]
        for pivot, a in enumerate(v):
            if a:
                g = gcd(*v)
                rows.append((pivot, v if g == 1 else [a // g for a in v]))
                break


def integer_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals of an integer matrix given as a list of rows."""
    if not rows:
        return 0
    if len(rows) > len(rows[0]):  # fewer, longer vectors: faster
        rows = list(zip(*rows))
    echelon: list = []
    _reduce(echelon, rows)
    return len(echelon)


def integer_determinant(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss elimination: step
    k leaves (k + 2)-minors of the input below and right of its pivot, so
    each division by the previous pivot is exact."""
    m = [list(row) for row in matrix]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        swap = next((i for i in range(k, n) if m[i][k]), None)
        if swap is None:
            return 0
        if swap > k:
            m[k], m[swap], sign = m[swap], m[k], -sign
        lead = m[k]
        for row in m[k + 1:]:
            row[k + 1:] = [(lead[k] * a - row[k] * b) // prev
                           for a, b in zip(row[k + 1:], lead[k + 1:])]
        prev = lead[k]
    return sign * m[-1][-1] if n else 1
