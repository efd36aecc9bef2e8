"""Independent reference computations used by the test suite.

Everything in this module is deliberately naive and shares no code with
the package, so agreement between the two is evidence of correctness
rather than a tautology.
"""

from __future__ import annotations

import contextlib
import io
from fractions import Fraction
from itertools import combinations


def fraction_rank(rows) -> int:
    """Rank of an integer matrix by plain Gaussian elimination over Fraction."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        lead = m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col] / lead[col]
                m[r] = [a - f * b for a, b in zip(m[r], lead)]
        rank += 1
        if rank == len(m):
            break
    return rank


def fraction_determinant(matrix) -> int:
    """Determinant of a square integer matrix over Fraction."""
    n = len(matrix)
    m = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        lead = m[col]
        for r in range(col + 1, n):
            if m[r][col]:
                f = m[r][col] / lead[col]
                m[r] = [a - f * b for a, b in zip(m[r], lead)]
    assert det.denominator == 1
    return int(det)


def bareiss_determinant(matrix) -> int:
    """Determinant of a square integer matrix by fraction-free elimination.

    A second reference beside fraction_determinant: every intermediate
    value stays an integer because each division by the previous pivot
    is exact (Bareiss 1968).
    """
    m = [list(r) for r in matrix]
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("determinant requires a square matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def bareiss_rank(rows) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination.

    A second reference beside fraction_rank, and no relative of the
    package's echelon: it eliminates column by column on the whole
    matrix, dividing each update exactly by the previous pivot.
    """
    m = [list(r) for r in rows if any(r)]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        lead = m[rank]
        for i in range(rank + 1, len(m)):
            row = m[i]
            f = row[col]
            for j in range(col + 1, ncols):
                row[j] = (lead[col] * row[j] - f * lead[j]) // prev
            row[col] = 0
        prev = lead[col]
        rank += 1
        if rank == len(m):
            break
    return rank


def naive_members(generators, bound: int) -> set[int]:
    """Members of the additive closure of the generators, up to bound."""
    reached = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for g in generators:
            w = v + g
            if w <= bound and w not in reached:
                reached.add(w)
                frontier.append(w)
    return reached


def count_gap_sets(genus: int) -> int:
    """Number of numerical semigroups of the given genus, by brute force.

    Every gap of a genus-g semigroup is at most 2g - 1, so it suffices to
    test every g-subset of {1, ..., 2g - 1} for an additively closed
    complement.
    """
    if genus == 0:
        return 1
    top = 2 * genus - 1
    count = 0
    for gaps in combinations(range(1, top + 1), genus):
        gap_set = set(gaps)
        closed = True
        for a in range(1, top):
            if a in gap_set:
                continue
            for b in range(a, top + 1 - a):
                if b not in gap_set and a + b in gap_set:
                    closed = False
                    break
            if not closed:
                break
        if closed:
            count += 1
    return count


def brute_force_minor_degrees(pres, limit: int) -> set[int]:
    """Degrees below limit of nonvanishing maximal derivative minors.

    Enumerates every subset of relation rows of the right size and tests
    the determinant over Fraction; only usable for small presentations.
    """
    skip = pres.gen_tuple.has_x
    n_vars = len(pres.gen_tuple.var_weights)
    col_sum = sum(pres.gen_tuple.var_weights)
    rows = [(rel.degree, rel.coefficients(skip_first=skip))
            for rel in pres.relations]
    out = set()
    for subset in combinations(rows, n_vars):
        degree = sum(d for d, _ in subset) - col_sum
        if degree >= limit:
            continue
        if fraction_determinant([list(c) for _, c in subset]) != 0:
            out.add(degree)
    return out


def naive_conductor(generators) -> int:
    """Least c such that every integer from c on is in the closure.

    Once min(generators) consecutive integers are members, every larger
    integer is one too.
    """
    step = min(generators)
    bound = step * max(generators)
    while True:
        members = naive_members(generators, bound)
        run = 0
        for v in range(bound + 1):
            run = run + 1 if v in members else 0
            if run == step:
                return v - step + 1
        bound *= 2


def reference_fitting_minor_degrees(pres) -> tuple[int, ...]:
    """The package's original pruned minor search, ranks over Fraction.

    A greedy least-degree basis, then a depth-first search over row
    subsets within one conductor of it that re-ranks the whole chosen set
    at every node.  Kept as the reference for the memoized, incremental
    search that replaced it.
    """
    n_vars = len(pres.gen_tuple.var_weights)
    skip = pres.gen_tuple.has_x
    col_sum = sum(pres.gen_tuple.var_weights)
    rows = sorted((rel.degree, list(rel.coefficients(skip_first=skip)))
                  for rel in pres.relations)
    degrees = [d for d, _ in rows]

    basis: list[list[int]] = []
    base_sum = 0
    for d, vec in rows:
        if len(basis) == n_vars:
            break
        if fraction_rank(basis + [vec]) > len(basis):
            basis.append(vec)
            base_sum += d
    if len(basis) < n_vars:
        raise ValueError("all maximal minors vanish")
    least = base_sum - col_sum

    conductor = naive_conductor(pres.gen_tuple.weights)
    if conductor == 0:
        return (least,)
    limit = base_sum + conductor
    found: set[int] = set()

    def search(start: int, chosen: list[list[int]], total: int,
               need: int) -> None:
        if need == 0:
            found.add(total - col_sum)
            return
        for i in range(start, len(rows) - need + 1):
            d = degrees[i]
            if total + d + sum(degrees[i + 1:i + need]) >= limit:
                break
            vec = rows[i][1]
            if fraction_rank(chosen + [vec]) > len(chosen):
                search(i + 1, chosen + [vec], total + d, need - 1)

    search(0, [], 0, n_vars)
    found.add(least)
    return tuple(sorted(found))


def run_cli(*argv: str) -> tuple[int, str, str]:
    """Invoke the command line entry point in process.

    Returns (exit code, stdout, stderr) exactly as a shell caller would
    see them.
    """
    from curvetorsion.cli import main

    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 0
    return code, out.getvalue(), err.getvalue()
