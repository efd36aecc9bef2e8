"""Planted mutants of the guards and fast paths, each with the tests that
must kill it.

Usage, from the repository root:

    python tests/mutants.py [NAME ...]

Standard library only; the tests run under pytest in a subprocess.  The
script copies src/ and tests/ to a temporary directory and first runs
every named test there unmutated, which must pass.  Then, for each mutant,
it replaces the mutant's old text, which must occur exactly once in its
file, runs the mutant's tests and restores the file.  A mutant is killed
when every one of its tests fails.  Each pytest run is capped at 1 GiB
of address space, so a mutant that sends a loop growing without end (a
broken closure never lets the sieve settle) dies of MemoryError in its
tests instead of exhausting the machine.  The exit status is 1 when an
old text is missing or repeated or a mutant survives, so a change that
rewrites a target must update its entry here.  Names restrict the run to
those mutants.
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


PRES = "src/curvetorsion/presentation.py"
IDEALS = "src/curvetorsion/ideals.py"
ORACLE = "src/curvetorsion/oracle.py"
SEMIGROUP = "src/curvetorsion/semigroup.py"
CLI = "src/curvetorsion/cli.py"
LINALG = "src/curvetorsion/linalg.py"

T_PRES = "tests/test_presentation.py::"
T_SEMI = "tests/test_semigroup.py::"
T_PROPS = "tests/test_properties.py::"
T_IDEALS = "tests/test_ideals.py::"
T_LINALG = "tests/test_linalg.py::"
T_ORACLE = "tests/test_oracle.py::"
T_VALUES = "tests/test_value_sets.py::test_value_sets_match_the_set_references"
T_CLI = "tests/test_cli.py::"
# the membership-test presentation against the factorization reference
T_MINIMAL = (
    T_PRES + "test_minimal_presentation_matches_the_factorization_reference",
    T_PROPS + "test_minimal_presentation_of_any_weight_tuple")
T_SPAN = T_PROPS + "test_span_values_of_any_semigroup_and_bound"

MUTANTS = [
    # the generation check on k-bit masks of used positions
    Mutant("knapsack with the positions outside", PRES,
           """    for d in range(1, top + 1):
        mask = 0
        for bit, w in bits:
            if w == d or w < d and used[d - w]:
                mask |= bit
        used[d] = mask
""",
           """    for bit, w in bits:
        for d in range(w, top + 1):
            if d == w or used[d - w]:
                used[d] |= bit
""",
           (T_PRES + "test_support_sets_match_brute_force",
            T_PROPS + "test_support_sets_of_any_weight_tuple")),
    Mutant("merge without the position itself", PRES,
           "_merge(comps, low | used[d - weights[low.bit_length() - 1]])",
           "_merge(comps, used[d - weights[low.bit_length() - 1]])",
           (T_PRES + "test_generation_check_matches_the_tuple_reference",)),
    # the Kaehler different read off one Cauchy-Binet determinant
    Mutant("read-out stops at the first zero digit", IDEALS,
           """            covered |= S.members_mask(limit - 1 - t) << t
""",
           """            covered |= S.members_mask(limit - 1 - t) << t
        else:
            break
""",
           (T_IDEALS + "test_fitting_degrees_match_reference_search_on_the_corpus",)),
    Mutant("nonzero digit does not cover its total", IDEALS,
           "            covered |= S.members_mask(limit - 1 - t) << t",
           "            pass",
           (T_IDEALS + "test_differents_pinned",
            T_IDEALS + "test_fitting_degrees_match_exhaustive_minor_search",
            T_IDEALS + "test_fitting_degrees_match_reference_search_on_the_corpus")),
    Mutant("Kaehler shift off by one", IDEALS,
           "covered |= S.members_mask(limit - 1 - t) << t",
           "covered |= S.members_mask(limit - 1 - t) << (t + 1)",
           (T_IDEALS + "test_fitting_degrees_match_exhaustive_minor_search",
            T_IDEALS + "test_fitting_degrees_match_reference_search_on_the_corpus")),
    Mutant("digit width one bit too narrow", IDEALS,
           "K = (comb(len(rows), n) * prod(norms[-n:])).bit_length()",
           "K = (comb(len(rows), n) * prod(norms[-n:])).bit_length() - 1",
           (T_IDEALS + "test_differents_pinned",
            T_IDEALS + "test_fitting_degrees_match_reference_search_on_the_corpus")),
    Mutant("read-out offset off by one", IDEALS,
           "if det >> K * (t - n * lo) & digit:",
           "if det >> K * (t - n * lo + 1) & digit:",
           (T_IDEALS + "test_differents_pinned",
            T_IDEALS + "test_fitting_degrees_match_exhaustive_minor_search",
            T_IDEALS + "test_fitting_degrees_match_reference_search_on_the_corpus")),
    Mutant("lowest-digit self-check disabled", IDEALS,
           "if ((det & -det).bit_length() - 1) // K != base_sum - n * lo:",
           "if False:",
           (T_IDEALS + "test_kaehler_self_check_fires_on_a_planted_greedy_total",)),
    Mutant("Bareiss divides by the current pivot", LINALG,
           "row[k + 1:] = [(lead[k] * a - row[k] * b) // prev",
           "row[k + 1:] = [(lead[k] * a - row[k] * b) // lead[k]",
           (T_LINALG + "test_determinant_matches_fraction_elimination",
            T_PROPS + "test_determinant_agrees_with_fraction_elimination",
            T_IDEALS + "test_fitting_degrees_match_reference_search_on_the_corpus")),
    Mutant("Bareiss skips the row swap", LINALG,
           "m[k], m[swap], sign = m[swap], m[k], -sign",
           "sign = -sign",
           (T_LINALG + "test_determinant_matches_fraction_elimination",
            T_PROPS + "test_determinant_agrees_with_fraction_elimination")),
    Mutant("render recomputes the Kaehler different", CLI,
           'yield (f"  derivative different {r.kaehler_different}, "',
           'yield (f"  derivative different {__import__('
           "'curvetorsion.ideals').ideals.kaehler_different("
           "from_generators(r.generators), __import__("
           "'curvetorsion.presentation').presentation.presentation_of("
           'from_generators(r.generators))}, "',
           (T_CLI + "test_human_rendering_reads_only_the_record",)),
    # the minimal presentation from membership tests on G_d
    Mutant("wrong neighbour set", PRES,
           "new = _positions(weights, mask, d - weights[i]) & rest & ~comp",
           "new = _positions(weights, mask, d) & rest & ~comp",
           T_MINIMAL),
    Mutant("skipped candidate degree", PRES,
           """    split = used & ~hubs & ((1 << (top + 1)) - 1)
""",
           """    split = used & ~hubs & ((1 << (top + 1)) - 1)
    split &= split - 1
""",
           T_MINIMAL),
    Mutant("wrong greedy step", PRES,
           "e += -1 if largest else 1",
           "e += -1 if largest else 2",
           T_MINIMAL),
    Mutant("wrong doubling step", SEMIGROUP,
           "w <<= 1",
           "w <<= 2",
           T_MINIMAL),
    Mutant("no reverse sort", PRES,
           "for c in comps), reverse=reverse_tiebreak)",
           "for c in comps))",
           T_MINIMAL),
    Mutant("hub test over later positions only", PRES,
           "            if j != i:",
           "            if j > i:",
           T_MINIMAL),
    Mutant("shifted hub mask", PRES,
           "hub &= ~uses[j] | mask << (w + v)",
           "hub &= ~uses[j] | mask << (w + v + 1)",
           T_MINIMAL),
    # the value sets on integer bitmasks, the span and the inverse driven
    # by generators
    Mutant("span shifted by g", ORACLE,
           "span |= ring << (g - 1)", "span |= ring << g",
           (T_VALUES, T_SPAN)),
    Mutant("span cut one bit high", ORACLE,
           "return span & ((1 << bound) - 1)",
           "return span & ((1 << (bound + 1)) - 1)",
           (T_VALUES, T_SPAN)),
    Mutant("plain derivative values one bit short", ORACLE,
           "return S.members_mask(bound) >> 1",
           "return S.members_mask(bound - 1) >> 1", (T_VALUES,)),
    Mutant("trace dual self-check bit off by one", IDEALS,
           "direct |= 1 << (window - u)",
           "direct |= 1 << (window - u + 1)",
           (T_VALUES, T_IDEALS + "test_complementary_module_pinned")),
    Mutant("inverse shift off by one", IDEALS,
           "fits &= ring >> (lo + lo_v + low.bit_length() - 1)",
           "fits &= ring >> (lo + lo_v + low.bit_length())",
           (T_VALUES, T_IDEALS + "test_inverse_of_ring_is_ring",
            T_PROPS + "test_inverse_of_any_stable_value_set")),
    Mutant("inverse ring mask cut at the conductor", IDEALS,
           "ring = S.members_mask(tail + V.tail_start)",
           "ring = S.members_mask(cond)",
           (T_VALUES, T_PROPS + "test_inverse_of_any_stable_value_set")),
    Mutant("stability mask too short", IDEALS,
           "present = vs.mask(lo, tail_start + gens[-1])",
           "present = vs.mask(lo, tail_start)",
           (T_IDEALS + "test_value_set_basics",
            T_IDEALS + "test_complementary_module_pinned")),
    Mutant("quotient length off by one", IDEALS,
           "return (outer_vals & ~inner_vals).bit_count()",
           "return (outer_vals & ~inner_vals).bit_count() + 1",
           (T_IDEALS + "test_quotient_length_pinned",
            T_IDEALS + "test_trace_dual_colength_identity")),
    # membership as one int: the sieve, the generator walk, the Apery
    # mask and the enumeration's children
    Mutant("sieve trusts its first bound", SEMIGROUP,
           "if member >> (bound + 1 - q) == (1 << q) - 1:",
           "if True:",
           (T_SEMI + "test_pinned_invariants",
            T_SEMI + "test_membership_matches_brute_force")),
    Mutant("generator walk stops at c + q", SEMIGROUP,
           "top = max(conductor + q, 2 * q) - 1",
           "top = conductor + q - 1",
           (T_SEMI + "test_minimalization_drops_redundant_generators",
            "tests/test_acceptance.py::test_criterion_1_worked_singletons")),
    Mutant("generator walk forgets earlier generators", SEMIGROUP,
           "reach = _closure(reach, m, top)",
           "reach = _closure(1, m, top)",
           (T_SEMI + "test_pinned_invariants",
            T_PROPS + "test_membership_matches_naive_closure")),
    Mutant("gaps read from unreversed digits", SEMIGROUP,
           "enumerate(bin(mask)[:1:-1])",
           "enumerate(bin(mask)[2:])",
           (T_SEMI + "test_pinned_invariants",
            T_PROPS + "test_membership_matches_naive_closure")),
    Mutant("Apery mask shifted by one", SEMIGROUP,
           "~(S._members << modulus)",
           "~(S._members << (modulus + 1))",
           (T_SEMI + "test_apery_sets", T_SEMI + "test_apery_set_properties",
            T_PROPS + "test_apery_identities",
            T_IDEALS + "test_complementary_module_pinned")),
    Mutant("child removes m + 1 instead of m", SEMIGROUP,
           "S._members & ~(1 << m)",
           "S._members & ~(1 << (m + 1))",
           (T_SEMI + "test_enumeration_counts",
            T_SEMI + "test_enumerated_children_match_the_sieve")),
    Mutant("members_mask drops the bound", SEMIGROUP,
           "& ((1 << max(bound + 1, 0)) - 1)",
           "& ((1 << max(bound, 0)) - 1)",
           (T_VALUES, T_IDEALS + "test_differents_pinned")),
    # the graded oracles on degree classes, one evaluation per class
    Mutant("no audit before a propagating guard", ORACLE,
           """        if fault and fault[0] < first:
            break
        value = evaluate(key, first)""",
           "        value = evaluate(key, first)",
           (T_ORACLE + "test_kernel_guard_fires_on_a_planted_row",)),
    Mutant("kernel guard names its class's last degree", ORACLE,
           """                f"relation rows exceed the evaluation kernel at degree "
                f"{first}")""",
           """                f"relation rows exceed the evaluation kernel at degree "
                f"{next(c.bit_length() - 1 for f, c, _ in classes if f == first)}")""",
           (T_ORACLE + "test_kernel_guard_fires_on_a_planted_row",)),
    Mutant("containment guard names its class's last degree", ORACLE,
           "blowup relation module at degree {first} for {S}",
           "blowup relation module at degree "
           "{next(c.bit_length() - 1 for f, c, _ in classes if f == first)} "
           "for {S}",
           (T_ORACLE + "test_relation_module_guards_fire_on_planted_faults",)),
    Mutant("audit unclamped", ORACLE,
           "below = (1 << max(cutoff + 1, 0)) - 1",
           "below = (1 << (cutoff + 1)) - 1",
           (T_ORACLE + "test_lowered_cutoffs_match_the_per_degree_references",)),
    Mutant("audit one degree late", ORACLE,
           "below = (1 << max(cutoff + 1, 0)) - 1",
           "below = (1 << max(cutoff + 2, 0)) - 1",
           (T_ORACLE + "test_lowered_cutoffs_match_the_per_degree_references",
            T_ORACLE + "test_relation_module_guards_fire_on_planted_faults")),
    Mutant("presence mask one degree short at the top", ORACLE,
           "present = ring.members_mask(top - w) << w",
           "present = ring.members_mask(top - w - 1) << w",
           (T_ORACLE + "test_degree_masks_match_the_naive_membership_test",)),
    Mutant("cut-off part keeps the old key", ORACLE,
           "keys.append(keys[k] | bits)",
           "keys.append(keys[k])",
           (T_ORACLE + "test_degree_masks_match_the_naive_membership_test",)),
    Mutant("class wholly inside gains no bits", ORACLE,
           """                if part == classes[k]:
                    keys[k] |= bits""",
           """                if part == classes[k]:
                    pass""",
           (T_ORACLE + "test_degree_masks_match_the_naive_membership_test",)),
    Mutant("original rows one degree off", ORACLE,
           "[(S, w + 2 * q) for w in resc_degrees]",
           "[(S, w + 2 * q - 1) for w in resc_degrees]",
           (T_ORACLE + "test_graded_oracles_match_the_per_degree_references",)),
]


MEMORY_CAP = 1 << 30  # bytes of address space per pytest run


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def _pytest(where: Path, tests) -> tuple[int, set[str], str]:
    """Exit code, failed node ids and output of pytest on the tests."""
    env = dict(os.environ, PYTHONPATH=str(where / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "--tb=no",
         "-p", "no:cacheprovider", *tests],
        cwd=where, env=env, capture_output=True, text=True,
        preexec_fn=_cap_memory)
    failed = {line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))}
    return proc.returncode, failed, proc.stdout + proc.stderr


def _killed_by(test: str, failed: set[str]) -> bool:
    return any(f == test or f.startswith(test + "[") for f in failed)


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 1
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        where = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, where / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", where)
        tests = sorted({t for m in chosen for t in m.tests})
        code, _, out = _pytest(where, tests)
        if code != 0:
            print(out)
            print("the named tests do not pass on the unmutated code")
            return 1
        print(f"baseline: {len(tests)} tests pass "
              f"({time.perf_counter() - start:.1f} s)")
        bad = 0
        for m in chosen:
            target = where / m.path
            original = target.read_text()
            found = original.count(m.old)
            if found != 1:
                print(f"MISSING   {m.name}: old text found {found} times "
                      f"in {m.path}")
                bad += 1
                continue
            began = time.perf_counter()
            target.write_text(original.replace(m.old, m.new))
            try:
                code, failed, out = _pytest(where, m.tests)
            finally:
                target.write_text(original)
            alive = [t for t in m.tests if not _killed_by(t, failed)]
            took = time.perf_counter() - began
            if code == 1 and not alive:
                print(f"killed    {m.name} ({took:.1f} s)")
            else:
                print(f"SURVIVED  {m.name} ({took:.1f} s, exit {code}): "
                      f"still passing {alive}")
                bad += 1
    print(f"{len(chosen) - bad} of {len(chosen)} mutants killed in "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
