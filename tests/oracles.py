"""Independent reference computations used by the test suite.

Everything in this module is deliberately naive and shares no code with
the package, so agreement between the two is evidence of correctness
rather than a tautology.  The exceptions are the per-degree walks of the
graded oracles, which take their inputs from the package and keep only
the degree loops that the evaluation on degree classes replaced, the
pruned minor search that the Kaehler different's determinant replaced,
which grows the package's Echelon one row at a time, the check_
functions that compare the package with these references, and run_cli.
"""

from __future__ import annotations

import contextlib
import io
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import gcd


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


@lru_cache(maxsize=None)
def naive_factorizations(weights, degree: int) -> list[tuple[int, ...]]:
    """Exponent vectors of the given weighted degree, sorted: every vector
    with each exponent at most degree // weight, filtered by degree.
    Memoized, because the brute force dominates the reference checks;
    callers must not mutate the list."""
    ranges = [range(degree // w + 1) for w in weights]
    return sorted(e for e in product(*ranges)
                  if sum(x * w for x, w in zip(e, weights)) == degree)


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


def naive_present(items, generators, top: int) -> list[int]:
    """Per degree 0..top, the bitmask of the items whose shift by that
    degree is in the closure of the generators: item i is present in
    degree d when d - items[i] is a member."""
    members = naive_members(generators, top)
    return [sum(1 << i for i, w in enumerate(items) if d - w in members)
            for d in range(top + 1)]


def reference_relations_generate(pres, extra_degrees: int = 0) -> bool:
    """The relation-translate connectivity check, on exponent tuples.

    In every degree up to conductor + 2 * max(weight) + extra_degrees,
    join each cofactor plus a relation's lhs to the cofactor plus its
    rhs; the relations generate when every degree's graph is connected.
    """
    weights = pres.gen_tuple.weights
    top = naive_conductor(weights) + 2 * max(weights) + extra_degrees
    for d in range(1, top + 1):
        facs = naive_factorizations(weights, d)
        if len(facs) < 2:
            continue
        parent = {f: f for f in facs}

        def root(f):
            while parent[f] != f:
                parent[f] = f = parent[parent[f]]
            return f

        for rel in pres.relations:
            if rel.degree > d:
                continue
            for c in naive_factorizations(weights, d - rel.degree):
                a = tuple(x + y for x, y in zip(c, rel.lhs))
                b = tuple(x + y for x, y in zip(c, rel.rhs))
                parent[root(a)] = root(b)
        if len({root(f) for f in facs}) > 1:
            return False
    return True


def used_positions(weights, top: int) -> list[int]:
    """For each degree 0..top, the OR of the support masks of its
    brute-force factorizations: bit p when some factorization has a
    nonzero exponent at position p."""
    out = []
    for d in range(top + 1):
        used = 0
        for f in naive_factorizations(tuple(weights), d):
            used |= sum(1 << p for p, e in enumerate(f) if e)
        out.append(used)
    return out


def _factorization_table(weights, top: int):
    """Exponent vectors of each weighted degree 0..top, lexicographically,
    built bottom-up over the suffixes of the weights."""
    table = [((),)] + [()] * top
    for w in reversed(weights):
        table = [tuple([(e,) + rest for e in range(d // w + 1)
                        for rest in table[d - e * w]])
                 for d in range(top + 1)]
    return table


def _support_components(facs):
    """Connected components of the shared-support graph on factorizations,
    by union-find over the factorizations that use each variable."""
    parent = list(range(len(facs)))

    def root(i):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    for var in range(len(facs[0])):
        users = [idx for idx, f in enumerate(facs) if f[var]]
        for idx in users[1:]:
            parent[root(idx)] = root(users[0])
    groups: dict[int, list] = {}
    for idx, f in enumerate(facs):
        groups.setdefault(root(idx), []).append(f)
    return list(groups.values())


def reference_minimal_presentation(weights, reverse_tiebreak: bool = False
                                   ) -> tuple[tuple[tuple[int, ...],
                                                    tuple[int, ...], int], ...]:
    """The package's original minimal presentation, as (lhs, rhs, degree).

    Lists every factorization of every degree up to conductor + 2 *
    max(weight), splits each degree into shared-support components, and
    joins the lexicographically least factorization of each component to
    the least of all (the largest ones under reverse_tiebreak).  Kept as
    the reference for the membership-test construction that replaced it.
    """
    top = naive_conductor(weights) + 2 * max(weights)
    table = _factorization_table(tuple(weights), top)
    relations = []
    for d in range(1, top + 1):
        facs = table[d]
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
            relations.append((lhs, rhs, d))
    return tuple(relations)


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


def reference_span_values(generators, bound: int) -> set[int]:
    """Values a + m - 1 below bound, over members a and nonzero members m
    of the closure: ring multiples of derivatives, one set at a time."""
    members = sorted(naive_members(generators, bound + 1))
    out = set()
    for m in members:
        if m == 0:
            continue
        for a in members:
            v = a + m - 1
            if v < bound:
                out.add(v)
    return out


def reference_derivative_values(generators, bound: int) -> set[int]:
    """Values m - 1 below bound of the nonzero members m of the closure."""
    return {m - 1 for m in naive_members(generators, bound + 1)
            if m >= 1 and m - 1 < bound}


def _normalized(values, tail_start: int) -> tuple[tuple[int, ...], int]:
    """(members below the tail, tail start), the tail grown back over any
    run of members that ends right before it."""
    below = sorted({v for v in values if v < tail_start})
    while below and below[-1] == tail_start - 1:
        tail_start -= 1
        below.pop()
    return tuple(below), tail_start


def reference_complementary_module(generators) -> tuple[tuple[int, ...], int]:
    """The trace dual as (members, tail start), by the closed form
    v >= -w((-v) mod q) over the Apery set w, checked on the window
    [-window, window) against the defining condition: v + m >= 0 for
    every member m with q dividing v + m."""
    q = min(generators)
    conductor = naive_conductor(generators)
    window = q + conductor
    closure = naive_members(generators, window + q)
    apery = [min(m for m in closure if m % q == r) for r in range(q)]
    members = [v for v in range(-max(apery), 0) if v >= -apery[(-v) % q]]
    values = _normalized(members, 0)
    check_members = sorted(closure)
    for v in range(-window, window):
        direct = all(v + m >= 0 for m in check_members if (v + m) % q == 0)
        if direct != (v >= values[1] or v in values[0]):
            raise ValueError(f"complementary module self-check failed at {v}")
    return values


def reference_inverse(generators, value_set) -> tuple[tuple[int, ...], int]:
    """(members, tail start) of {m : m + V inside the ring}, for V given as
    (members, tail start): every candidate m tested against every finite
    member of V by closure membership."""
    members, tail_start = value_set
    conductor = naive_conductor(generators)
    closure = naive_members(generators, conductor)
    min_value = members[0] if members else tail_start
    tail = conductor - min_value
    lo = max(-min_value, conductor - tail_start)
    out = [m for m in range(lo, tail)
           if all(m + v in closure for v in members if m + v < conductor)]
    return _normalized(out, tail)


def large_conductor_generators() -> list[tuple[int, ...]]:
    """Generators of 259 curves of genus 15 to 59, whose conductors reach
    116: every <a,b> with 3 <= a <= 12 and a < b, ordered by a then b, then
    every <q,b,c> with 6 <= q <= 12 and q < b < c < 2q, ordered by q, b, c;
    each with gcd 1 and genus in 15..59.  Genus (a-1)(b-1)/2 <= 59 keeps
    b below 120."""
    out = [(a, b) for a in range(3, 13) for b in range(a + 1, 120)
           if gcd(a, b) == 1 and 15 <= (a - 1) * (b - 1) // 2 <= 59]
    for q in range(6, 13):
        for b, c in combinations(range(q + 1, 2 * q), 2):
            if gcd(gcd(q, b), c) == 1:
                conductor = naive_conductor((q, b, c))
                genus = conductor - len(naive_members((q, b, c),
                                                      conductor - 1))
                if 15 <= genus <= 59:
                    out.append((q, b, c))
    return out


def reference_fitting_minor_degrees(pres) -> tuple[int, ...]:
    """The package's original pruned minor search, ranks over Fraction.

    A greedy least-degree basis, then a depth-first search over row
    subsets within one conductor of it that re-ranks the whole chosen set
    at every node, listing every nonvanishing degree in that window.  Kept
    as the reference for least_minor_degree (its least entry) and for
    kaehler_different (the ideal its entries generate).
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


def echelon_extend(echelon, vec):
    """The Echelon with vec added, or None when vec is dependent; the
    Echelon is persistent, so a search backtracks by dropping one."""
    grown = echelon.absorb((vec,))
    return grown if grown.rank > echelon.rank else None


def search_kaehler_different(S, pres):
    """The Kaehler different by the package's former pruned minor search.

    A depth-first search over row subsets whose totals lie below limit,
    the greedy total plus the conductor; every total from there on lies
    in the tail.  covered is the ideal found so far, over row totals:
    each leaf ORs in S shifted by its total.  Each node extends an
    Echelon of the rows chosen by one row.  A level stops once even its
    lightest completion reaches the limit, and a row is skipped when
    every total its subtree can reach, reach[i + 1][need - 1] <<
    (t + d_i) with reach[i][k] the sums of k degrees of rows[i:], is
    already covered.  The skip is a `continue`, not a `break`: a later
    row has another degree, hence another shift, and may still reach an
    uncovered total.  Its cost is exponential in the embedding dimension.
    """
    from curvetorsion import make_value_set, value_set_of
    from curvetorsion.ideals import _greedy_basis
    from curvetorsion.linalg import Echelon

    if S.embdim == 1:
        return value_set_of(S)
    rows, base_sum = _greedy_basis(pres)
    degrees = [d for d, _ in rows]
    n_vars, n_rows = S.embdim - 1, len(rows)
    limit = base_sum + S.conductor
    window = (1 << limit) - 1
    reach = [[0] * (n_vars + 1) for _ in range(n_rows + 1)]
    reach[n_rows][0] = 1
    for i in range(n_rows - 1, -1, -1):
        here, after = reach[i], reach[i + 1]
        here[0] = 1
        for k in range(1, n_vars + 1):
            here[k] = (after[k] | after[k - 1] << degrees[i]) & window
    covered = S.members_mask(limit - 1 - base_sum) << base_sum

    def search(start: int, chosen, total: int, need: int) -> None:
        nonlocal covered
        if need == 0:
            covered |= S.members_mask(limit - 1 - total) << total
            return
        for i in range(start, n_rows - need + 1):
            d = degrees[i]
            if total + d + sum(degrees[i + 1:i + need]) >= limit:
                break
            if not (reach[i + 1][need - 1] << (total + d)) & window & ~covered:
                continue
            grown = echelon_extend(chosen, rows[i][1])
            if grown is not None:
                search(i + 1, grown, total + d, need - 1)

    search(0, Echelon(), 0, n_vars)
    col_sum = sum(S.min_generators[1:])
    values = [t - col_sum for t in range(base_sum, limit) if covered >> t & 1]
    return make_value_set(S, values, limit - col_sum)


def check_kaehler_different(curves, tiebreaks=(False, True)) -> int:
    """Assert that kaehler_different equals search_kaehler_different on
    the minimal presentation of every curve under each tie-break; returns
    the number of (curve, tie-break) pairs compared."""
    from curvetorsion import kaehler_different, presentation_of

    compared = 0
    for S in curves:
        for tiebreak in tiebreaks:
            pres = presentation_of(S, tiebreak)
            assert kaehler_different(S, pres) == \
                search_kaehler_different(S, pres), (S, tiebreak)
            compared += 1
    return compared


def reference_present(items, ring, top: int) -> list[int]:
    """The package's original degree masks: per degree 0..top, the bitmask
    of the items whose shift by that degree lands in the ring, walking
    every member up to top for every item."""
    masks = [0] * (top + 1)
    members = ring.members(top)
    for i, w in enumerate(items):
        bit = 1 << i
        for v in members:
            if v + w > top:
                break
            masks[v + w] |= bit
    return masks


# The three graded oracles as they were before they ranked each distinct
# degree key once: a loop over every degree up to cutoff + width, one rank
# call per mask and degree.  They take their inputs (presentations,
# cutoffs, the rank helper) from the package, looked up through the
# oracle module at call time, so a test that plants a fault there plants
# it in both; what they check is the evaluation on degree classes that
# replaced the loops.

def reference_relative_differential_dims(pres):
    from curvetorsion import oracle

    tup = pres.gen_tuple
    if not tup.var_weights:
        return oracle.GradedDimensionLedger((), 0, 0, (0, 0))
    ambient = oracle.from_generators(tup.weights)
    width = max(tup.weights)
    cutoff = width + ambient.conductor + oracle.least_minor_degree(pres)
    rows = oracle._MaskedRanks.of(pres.relations, tup.has_x)
    top = cutoff + width
    slots = reference_present(tup.var_weights, ambient, top)
    active = reference_present(rows.degrees, ambient, top)
    per_degree = []
    total = 0
    for d in range(top + 1):
        valid = slots[d]
        dim = valid.bit_count() - rows.rank(active[d], valid)
        if dim == 0:
            continue
        if d > cutoff:
            raise oracle.OracleError(
                f"cutoff violation: differential dimension {dim} at degree "
                f"{d} beyond {cutoff}")
        per_degree.append((d, dim))
        total += dim
    return oracle.GradedDimensionLedger(tuple(per_degree), total, cutoff,
                                        (cutoff, cutoff + width))


def reference_torsion_route_b(S, reverse_tiebreak: bool = False):
    from curvetorsion import oracle

    if S.embdim == 1:
        return oracle.TorsionResult(0, 0, 0, ())
    pres = oracle.presentation_of(S, reverse_tiebreak)
    ledger = oracle.relative_differential_dims(pres)
    route_a = ledger.total - (S.multiplicity - 1) - oracle.exactness_defect(S)

    weights = pres.gen_tuple.weights
    cutoff, width = ledger.cutoff, max(weights)
    rows = oracle._MaskedRanks.of(pres.relations, False)
    top = cutoff + width
    slots = reference_present(weights, S, top)
    active = reference_present(rows.degrees, S, top)
    contributions = []
    route_b = 0
    for d in range(top + 1):
        valid = slots[d]
        kernel_dim = valid.bit_count() - 1 if valid else 0
        contrib = kernel_dim - rows.rank(active[d], valid)
        if contrib == 0:
            continue
        if contrib < 0:
            raise oracle.OracleError(
                f"relation rows exceed the evaluation kernel at degree {d}")
        if d > cutoff:
            raise oracle.OracleError(
                f"cutoff violation: torsion contribution {contrib} at degree "
                f"{d} beyond {cutoff}")
        contributions.append((d, contrib))
        route_b += contrib
    if route_a != route_b:
        raise oracle.OracleError(
            f"oracle inconsistency: torsion {route_a} by dimension count "
            f"vs {route_b} by kernel count for {S}")
    return oracle.TorsionResult(route_a, route_a, route_b,
                                tuple(contributions))


def reference_relation_module_lengths(S, reverse_tiebreak: bool = False):
    from curvetorsion import oracle

    if S.embdim == 1:
        return oracle.RelationModuleLengths(0, 0, 0, 0)
    q = S.multiplicity
    n_vars = S.embdim - 1
    step = oracle.blowup(S)
    S1 = step.transformed
    bpres = oracle.blowup_presentation(S, reverse_tiebreak)
    opres = oracle.presentation_of(S, reverse_tiebreak)
    rescaled = oracle.rescaled_relation_generators(S, opres)
    col_weights = oracle.GeneratorTuple(step.generator_tuple).var_weights

    cutoff = 2 * q + oracle.least_minor_degree(opres) + S.conductor \
        + max(S.min_generators)
    width = max(q, max(col_weights))

    rows = oracle._MaskedRanks.of(bpres.relations + rescaled, True)
    n_blown = len(bpres.relations)
    blown = (1 << n_blown) - 1

    top = cutoff + width
    slots = reference_present(col_weights, S1, top)
    active = reference_present(rows.degrees, S1, top)
    resc = [m << n_blown
            for m in reference_present(rows.degrees[n_blown:], S, top)]
    totals = [0, 0, 0, 0]
    for d in range(top + 1):
        valid = slots[d]
        over_s1 = active[d]
        n1, lifted = over_s1 & blown, over_s1 & ~blown
        r_orig = rows.rank(resc[d - 2 * q] if d >= 2 * q else 0, valid)
        r_resc = rows.rank(resc[d], valid)
        r_lift = rows.rank(lifted, valid)
        r_n1 = rows.rank(n1, valid)
        r_joint = rows.rank(over_s1, valid)
        if r_joint != r_n1:
            raise oracle.OracleError(
                f"containment violation: lifted rescaled module escapes the "
                f"blowup relation module at degree {d} for {S}")
        if d > cutoff:
            if r_orig != valid.bit_count():
                raise oracle.OracleError(
                    f"cutoff violation: relation modules not full at degree "
                    f"{d} beyond {cutoff} for {S}")
            continue
        totals[0] += r_n1 - r_resc
        totals[1] += r_n1 - r_lift
        totals[2] += r_lift - r_resc
        totals[3] += r_resc - r_orig
    if totals[3] != 2 * n_vars * q:
        raise oracle.OracleError(
            f"rescaling length check failed: {totals[3]} != "
            f"{2 * n_vars * q} for {S}")
    return oracle.RelationModuleLengths(*totals)


def check_graded_oracles(curves) -> int:
    """Assert that the three graded oracles equal their per-degree
    references on every curve, on its minimal and blowup presentations and
    under both tie-breaks; returns the number of comparisons made."""
    from curvetorsion import (blowup_presentation, presentation_of,
                              relation_module_lengths,
                              relative_differential_dims, torsion_length)

    compared = 0
    for S in curves:
        for tiebreak in (False, True):
            for pres in (presentation_of(S, tiebreak),
                         blowup_presentation(S, tiebreak)):
                assert relative_differential_dims(pres) == \
                    reference_relative_differential_dims(pres), pres
            assert torsion_length(S, tiebreak) == \
                reference_torsion_route_b(S, tiebreak), (S, tiebreak)
            assert relation_module_lengths(S, tiebreak) == \
                reference_relation_module_lengths(S, tiebreak), (S, tiebreak)
            compared += 4
    return compared


def check_value_sets(curves) -> int:
    """Assert that the value-set layer equals the set references on every
    curve: the derivative spans and their colengths, the trace dual, and
    the inverses of the trace dual, of the Kaehler different and of the
    ring, and the double inverse of the trace dual; returns the number of
    curves compared."""
    from curvetorsion import (blowup, colength_via_derivative_spans,
                              complementary_module, exactness_defect,
                              genus_via_derivative_spans, inverse,
                              kaehler_different, presentation_of,
                              value_set_of)
    from curvetorsion.oracle import _derivative_values, _span_values

    def bits(mask):
        return {v for v in range(mask.bit_length()) if mask >> v & 1}

    compared = 0
    for S in curves:
        gens, c = S.min_generators, S.conductor
        S1 = blowup(S).transformed
        span = reference_span_values(gens, 2 * c + 2)
        plain = reference_derivative_values(gens, 2 * c + 2)
        assert bits(_span_values(S, 2 * c + 2)) == span, S
        assert bits(_derivative_values(S, 2 * c + 2)) == plain, S
        assert exactness_defect(S) == len(span - plain), S
        small = reference_span_values(gens, c + 1)
        big = reference_span_values(S1.min_generators, c + 1)
        assert genus_via_derivative_spans(S) == len(set(range(c + 1)) - small)
        assert colength_via_derivative_spans(S, S1) == len(big - small), S

        C = complementary_module(S)
        ref_c = reference_complementary_module(gens)
        assert (C.members, C.tail_start) == ref_c, S
        for V in (C, kaehler_different(S, presentation_of(S)),
                  value_set_of(S)):
            W = inverse(V)
            assert (W.members, W.tail_start) == \
                reference_inverse(gens, (V.members, V.tail_start)), (S, V)
        W = inverse(inverse(C))
        assert (W.members, W.tail_start) == \
            reference_inverse(gens, reference_inverse(gens, ref_c)), S
        compared += 1
    return compared


def check_relations_generate(curves, whole: bool = True, dropped: bool = True,
                             extras=(0,)) -> int:
    """Assert that relations_generate equals reference_relations_generate
    on the distinct minimal and blowup presentations of the curves under
    both tie-breaks, for each count of extra degrees: whole, where each
    must generate, and with each relation dropped, where none may; returns
    the number of comparisons made."""
    from curvetorsion import (Presentation, blowup_presentation,
                              presentation_of, relations_generate)

    presentations = set()
    for S in curves:
        for tiebreak in (False, True):
            presentations.add(presentation_of(S, tiebreak))
            presentations.add(blowup_presentation(S, tiebreak))
    compared = 0
    for pres in sorted(presentations, key=repr):
        variants = [pres] if whole else []
        if dropped:
            variants += [Presentation(pres.gen_tuple, pres.relations[:k]
                                      + pres.relations[k + 1:])
                         for k in range(pres.mu)]
        for variant in variants:
            for extra in extras:
                got = relations_generate(variant, extra)
                assert got == reference_relations_generate(variant, extra), \
                    (variant, extra)
                assert got == (variant is pres), (variant, extra)
                compared += 1
    return compared


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
