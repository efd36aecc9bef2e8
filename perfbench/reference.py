"""Reference computations and record checks for the benchmark.

Nothing here imports curvetorsion.  Every expected value is either computed
by brute force from the definitions or is a published fact about the
method (OEIS A007323, Sylvester's genus, Herzog's theorem, the torsion of a
complete intersection), so a record that passes is checked against
something other than the program's own code.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

# OEIS A007323: numerical semigroups of genus 0, 1, ..., 8.
A007323 = (1, 1, 2, 4, 7, 12, 23, 39, 67)

# The one identity the README documents as false: it fails exactly on the
# curves of deviation >= 2.
DOCUMENTED_VIOLATION = "kaehler_equals_dedekind"
CHECK_COUNT = 22

# <4,5,6,7> checked by hand: the least 3x3 derivative minor has degree
# 10 + 11 + 12 - 18 = 15, and the Apery set {0, 5, 6, 7} gives the trace
# different {11+}.
WITNESS = (4, 5, 6, 7)
WITNESS_FITTING = "{15+}"
WITNESS_TRACE = "{11+}"


@dataclass(frozen=True)
class Curve:
    """Invariants of a numerical semigroup, found by brute-force closure."""

    min_generators: tuple[int, ...]
    gaps: tuple[int, ...]

    @property
    def multiplicity(self) -> int:
        return self.min_generators[0]

    @property
    def embdim(self) -> int:
        return len(self.min_generators)

    @property
    def genus(self) -> int:
        return len(self.gaps)

    @property
    def frobenius(self) -> int:
        return self.gaps[-1] if self.gaps else -1

    @property
    def conductor(self) -> int:
        return self.frobenius + 1

    def contains(self, v: int) -> bool:
        return v >= 0 and v not in self.gaps

    @property
    def symmetric(self) -> bool:
        f = self.frobenius
        return all(self.contains(z) != self.contains(f - z)
                   for z in range(f + 1))


@lru_cache(maxsize=None)
def closure(generators: tuple[int, ...]) -> Curve:
    """Semigroup generated by the given integers, by sieving members.

    v is a member when it is a generator or v - n is a member for a smaller
    generator n, and a minimal generator when it is a generator and no such
    n exists.  Once min(generators) consecutive integers are members,
    every larger integer is one, so the sieve stops there.
    """
    gens = sorted(set(generators))
    g = 0
    for v in gens:
        g = gcd(g, v)
    if not gens or gens[0] < 1 or g != 1:
        raise ValueError(f"not a numerical semigroup: {generators}")
    q = gens[0]
    members = {0}
    minimal = []
    gaps = []
    run = 0
    v = 0
    while run < q:
        v += 1
        if any(v - n in members for n in gens if n < v):
            members.add(v)
            run += 1
        elif v in gens:
            members.add(v)
            minimal.append(v)
            run += 1
        else:
            gaps.append(v)
            run = 0
    return Curve(tuple(minimal), tuple(gaps))


def blowup_generators(curve: Curve) -> tuple[int, ...]:
    """Minimal generators of the first quadratic transform <q, n_i - q>."""
    q = curve.multiplicity
    if curve.embdim == 1:
        return curve.min_generators
    return closure((q,) + tuple(n - q for n in curve.min_generators[1:])
                   ).min_generators


def corpus_by_genus(max_genus: int) -> list[tuple[int, ...]]:
    """Minimal generators of every semigroup of genus <= max_genus.

    Depth-first over membership of 1, ..., 2 * max_genus - 1: every gap of
    a genus-g semigroup is below 2g, a value is forced to be a member when
    it is a sum of two members, and otherwise it may be a gap.
    """
    top = max(2 * max_genus - 1, 0)
    found = []

    def walk(v: int, gaps: list[int]) -> None:
        if v > top:
            gens = [x for x in range(1, 2 * top + 3) if x not in gaps]
            found.append(closure(tuple(gens)).min_generators)
            return
        forced = any(a not in gaps and v - a not in gaps
                     for a in range(1, v // 2 + 1))
        walk(v + 1, gaps)
        if not forced and len(gaps) < max_genus:
            walk(v + 1, gaps + [v])

    walk(1, [])
    return sorted(found, key=lambda g: (closure(g).genus, g))


def _factorizations(gens: tuple[int, ...], s: int) -> list[tuple[int, ...]]:
    if not gens:
        return [()] if s == 0 else []
    out = []
    for e in range(s // gens[0] + 1):
        out.extend((e,) + rest for rest in _factorizations(gens[1:],
                                                            s - e * gens[0]))
    return out


@lru_cache(maxsize=None)
def relation_count(generators: tuple[int, ...]) -> int:
    """Cardinality of a minimal presentation, by counting R-classes.

    mu = sum over s in S of (components of the graph on factorizations of
    s, joined when supports meet) - 1.  If s - n_i - n_j lies in S for
    all i, j, any two factorizations x, y are joined through one using
    both a generator of x and one of y, so only s < F + 1 + 2 max(n)
    can contribute.
    """
    curve = closure(generators)
    gens = curve.min_generators
    if len(gens) == 1:
        return 0
    mu = 0
    for s in range(1, curve.frobenius + 1 + 2 * max(gens)):
        if not curve.contains(s):
            continue
        facs = _factorizations(gens, s)
        parent = list(range(len(facs)))

        def find(i: int) -> int:
            while parent[i] != i:
                i = parent[i]
            return i

        for k in range(len(gens)):
            users = [i for i, f in enumerate(facs) if f[k]]
            for i in users[1:]:
                parent[find(i)] = find(users[0])
        mu += len({find(i) for i in range(len(facs))}) - 1
    return mu


def deviation(generators: tuple[int, ...]) -> int:
    """Minimal relation count minus (embedding dimension - 1)."""
    curve = closure(generators)
    if curve.embdim == 1:
        return 0
    if curve.embdim == 2:
        return 0
    if curve.embdim == 3:
        # Herzog (1970): a 3-generated semigroup is a complete
        # intersection exactly when it is symmetric, else it needs 3
        return 0 if curve.symmetric else 1
    return relation_count(generators) - (curve.embdim - 1)


def trace_different(curve: Curve) -> str:
    """Dedekind different {m : m + C inside S} of the trace dual C, as text.

    C holds t^v when Tr(t^(v+s)) lands in k[[t^q]] for every s in S: the
    trace kills exponents off qZ, so v is in C unless some member s with
    s = -v (mod q) gives v + s < 0.  C contains every v >= 0.
    """
    q = curve.multiplicity
    cond = curve.conductor
    low = -(cond + q)
    negatives = [v for v in range(low, 0)
                 if not any(curve.contains(s) for s in range(-v % q, -v, q))]
    c_min = min(negatives, default=0)
    tail = cond - c_min
    members = [m for m in range(cond, tail)
               if all(curve.contains(m + v) for v in negatives)]
    while members and members[-1] == tail - 1:
        tail = members.pop()
    return "{" + "".join(f"{m}, " for m in members) + f"{tail}+}}"


def _classification(dev: int, blowup_dev: int, embdim: int) -> str:
    if embdim == 1:
        return "regular"
    if dev == 0:
        return "stable CI" if blowup_dev == 0 else "CI-unstable"
    if dev == 1:
        return "nice ACI" if blowup_dev == 0 else "ACI-not-nice"
    return "other"


@dataclass(frozen=True)
class Expected:
    """What any correct report of one curve must say."""

    curve: Curve
    blowup: Curve
    deviation: int
    blowup_deviation: int

    @property
    def classification(self) -> str:
        return _classification(self.deviation, self.blowup_deviation,
                               self.curve.embdim)


@lru_cache(maxsize=None)
def expected(generators: tuple[int, ...]) -> Expected:
    curve = closure(generators)
    gens = curve.min_generators
    b = closure(blowup_generators(curve))
    return Expected(curve, b, deviation(gens), deviation(b.min_generators))


def check_record(rec: dict) -> list[str]:
    """Problems in one jsonl report record; empty when it is correct."""
    try:
        exp = expected(tuple(rec["generators"]))
    except (KeyError, TypeError, ValueError) as exc:
        return [f"unreadable record: {exc!r}"]
    c, b = exp.curve, exp.blowup
    want = {
        "generators": list(c.min_generators),
        "multiplicity": c.multiplicity,
        "embedding_dimension": c.embdim,
        "genus": c.genus,
        "frobenius": c.frobenius,
        "conductor": c.conductor,
        "symmetric": c.symmetric,
        "deviation": exp.deviation,
        "blowup_deviation": exp.blowup_deviation,
        "classification": exp.classification,
        "blowup_generators": list(b.min_generators),
        "blowup_genus": b.genus,
        "colength": c.genus - b.genus,
        "exactness_defect": 0,
        "blowup_exactness_defect": 0,
    }
    problems = [f"{k}: {rec.get(k)!r} != {v!r}" for k, v in want.items()
                if rec.get(k) != v]
    try:
        t, t1 = rec["torsion_length"], rec["blowup_torsion_length"]
        if rec["torsion_drop"] != t - t1:
            problems.append("torsion_drop != torsion - blowup torsion")
        problems += _torsion_problems(exp, t, t1)
        if c.embdim > 1 and rec["rescaled_over_original"] \
                != 2 * (c.embdim - 1) * c.multiplicity:
            problems.append("rescaled_over_original != 2 (e - 1) q")
        if exp.deviation == 0 and c.embdim > 1 and rec["differential_total"] \
                != 2 * c.genus + c.multiplicity - 1:
            problems.append("complete intersection: differential total "
                            "!= 2 g + q - 1")
        problems += _check_problems(exp, rec["checks"])
        if rec["all_pass"] != (exp.deviation < 2):
            problems.append("all_pass disagrees with the deviation")
    except (KeyError, TypeError) as exc:
        problems.append(f"missing field: {exc!r}")
    return problems


def _torsion_problems(exp: Expected, t, t1) -> list[str]:
    c, b = exp.curve, exp.blowup
    out = []
    if c.embdim == 1 and t != 0:
        out.append("regular curve with torsion")
    if c.embdim > 1 and not t > 0:
        out.append("singular curve without torsion")
    if exp.deviation == 0 and t != 2 * c.genus:
        out.append(f"complete intersection: torsion {t} != 2 g = "
                   f"{2 * c.genus}")
    if c.embdim == 2:
        a, n = c.min_generators
        if t != (a - 1) * (n - 1) or 2 * c.genus != (a - 1) * (n - 1):
            out.append("embedding dimension 2: Sylvester's (a-1)(b-1) fails")
    if exp.blowup_deviation == 0 and t1 != 2 * b.genus:
        out.append(f"transform is a complete intersection: torsion {t1} "
                   f"!= 2 g1 = {2 * b.genus}")
    return out


def _check_problems(exp: Expected, checks) -> list[str]:
    if len(checks) != CHECK_COUNT:
        return [f"{len(checks)} checks, not {CHECK_COUNT}"]
    failed = sorted(n for n, ok in checks.items() if ok is False)
    allowed = [DOCUMENTED_VIOLATION] if exp.deviation >= 2 else []
    if failed != allowed:
        return [f"violations {failed}, documented {allowed}"]
    return []


def check_sweep(records: list[dict], stderr: str, returncode: int,
                corpus: list[tuple[int, ...]]) -> tuple[int, list[str]]:
    """Failed operations and problems of one `verify --format jsonl` run.

    An operation is one corpus curve.  It fails when its record is missing,
    duplicated or wrong, or when the record of its blowup reports another
    torsion length than its own blowup_torsion_length.  A fault of the run
    as a whole (exit code, stderr summary, a record outside the corpus)
    fails every curve.
    """
    whole: list[str] = []
    problems: dict[tuple, list[str]] = {g: [] for g in corpus}
    by_gens: dict[tuple, dict] = {}
    for rec in records:
        gens = tuple(rec.get("generators", ()))
        if gens not in problems:
            whole.append(f"record outside the corpus: {gens}")
        elif gens in by_gens:
            problems[gens].append("duplicate record")
        else:
            by_gens[gens] = rec
            problems[gens] += check_record(rec)
    for gens in corpus:
        rec = by_gens.get(gens)
        if rec is None:
            problems[gens].append("no record")
            continue
        target = by_gens.get(tuple(rec.get("blowup_generators", ())))
        if target is None or target.get("torsion_length") \
                != rec.get("blowup_torsion_length"):
            problems[gens].append("blowup record disagrees on its torsion")
    genera = [closure(g).genus for g in corpus]
    counts = [genera.count(k) for k in range(max(genera, default=0) + 1)]
    if tuple(counts) != A007323[:len(counts)]:
        whole.append(f"corpus counts {counts} are not A007323")
    violators = sum(1 for g in corpus if expected(g).deviation >= 2)
    want_lines = [f"curves examined: {len(corpus)}",
                  f"identity violations: {violators}",
                  "oracle errors: 0"]
    lines = stderr.splitlines()
    if lines[:3] != want_lines:
        whole.append(f"summary {lines[:3]} != {want_lines}")
    if returncode != (2 if violators else 0):
        whole.append(f"exit code {returncode}")
    bad = [label(g) + f": {p}" for g, p in problems.items() if p]
    return (len(corpus) if whole else len(bad)), whole + bad


def check_reports(curves: list[tuple[int, ...]], records: list[dict]
                  ) -> tuple[int, list[str]]:
    """Failed operations and problems of full_report over `curves`, given
    the records in the same order; an operation is one curve."""
    problems = []
    for i, gens in enumerate(curves):
        rec = records[i] if i < len(records) else {}
        found = check_record(rec)
        if rec.get("generators") != list(gens):
            found.append(f"record for {rec.get('generators')}")
        if found:
            problems.append(label(gens) + f": {found}")
    if len(records) != len(curves):
        return len(curves), [f"{len(records)} records for {len(curves)} "
                             f"curves"] + problems
    return len(problems), problems


def label(generators) -> str:
    return "<" + ",".join(map(str, generators)) + ">"


_HUMAN = {
    "curve": re.compile(r"^curve <([\d,]+)>$"),
    "invariants": re.compile(r"^  multiplicity (\d+), embedding dimension "
                             r"(\d+), genus (\d+)$"),
    "frobenius": re.compile(r"^  frobenius (-?\d+), conductor (\d+), "
                            r"symmetric (yes|no)$"),
    "class": re.compile(r"^  classification: (.+) \(deviation (\d+) -> "
                        r"(\d+)\)$"),
    "transform": re.compile(r"^  transform <([\d,]+)>, colength (\d+)$"),
    "relations": re.compile(r"^  relations: (\d+) of degrees [\d ]+; "
                            r"transform tuple needs \d+$"),
    "different": re.compile(r"^  derivative different (\{[^}]*\}), inverse "
                            r"different gap \d+$"),
    "torsion": re.compile(r"^  torsion length (\d+), after transform (\d+), "
                          r"drop (-?\d+)$"),
    "check": re.compile(r"^    (pass|FAIL|n/a ) (\w+)$"),
    "result": re.compile(r"^result: (PASS|FAIL)$"),
}


def check_analyze(generators: tuple[int, ...], stdout: str,
                  returncode: int) -> list[str]:
    """Problems in the human-format output of `analyze <generators>`.

    The deviation is read from the printed relation count and compared with
    the independent one; the printed derivative (Fitting) different must
    equal the independently computed trace different exactly when the
    deviation is at most 1.
    """
    exp = expected(tuple(generators))
    c, b = exp.curve, exp.blowup
    found: dict[str, list] = {}
    checks: dict[str, str] = {}
    for line in stdout.splitlines():
        for key, pattern in _HUMAN.items():
            m = pattern.match(line)
            if m and key == "check":
                checks[m.group(2)] = m.group(1)
            elif m:
                found[key] = list(m.groups())
    problems = []

    def want(key: str, values: list) -> None:
        if found.get(key) != [str(v) for v in values]:
            problems.append(f"{key}: {found.get(key)} != {values}")

    want("curve", [",".join(map(str, c.min_generators))])
    want("invariants", [c.multiplicity, c.embdim, c.genus])
    want("frobenius", [c.frobenius, c.conductor,
                       "yes" if c.symmetric else "no"])
    want("class", [exp.classification, exp.deviation, exp.blowup_deviation])
    want("transform", [",".join(map(str, b.min_generators)),
                       c.genus - b.genus])
    if c.embdim > 1:
        want("relations", [exp.deviation + c.embdim - 1])
        different = found.get("different", [None])[0]
        trace = trace_different(c)
        if different is None:
            problems.append("no derivative different line")
        elif (different == trace) != (exp.deviation < 2):
            problems.append(f"derivative different {different} vs trace "
                            f"different {trace} at deviation "
                            f"{exp.deviation}")
        if c.min_generators == WITNESS and (
                different, trace) != (WITNESS_FITTING, WITNESS_TRACE):
            problems.append(f"witness differents {different}, {trace}")
    torsion = found.get("torsion")
    if torsion is None:
        problems.append("no torsion line")
    else:
        t, t1, drop = map(int, torsion)
        if drop != t - t1:
            problems.append("drop != torsion - blowup torsion")
        problems += _torsion_problems(exp, t, t1)
    problems += _check_problems(exp, {
        n: None if mark == "n/a " else mark == "pass"
        for n, mark in checks.items()})
    documented_pass = exp.deviation < 2
    want("result", ["PASS" if documented_pass else "FAIL"])
    if returncode != (0 if documented_pass else 2):
        problems.append(f"exit code {returncode}")
    return problems
