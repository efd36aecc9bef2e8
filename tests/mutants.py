"""Planted mutants of the guards and fast paths, each with the tests that
must kill it.

Usage, from the repository root:

    python tests/mutants.py [NAME ...]

Standard library only; the tests run under pytest in a subprocess.  The
script copies src/ and tests/ to a temporary directory and first runs
every named test there unmutated, which must pass.  Then, for each mutant,
it replaces the mutant's old text, which must occur exactly once in its
file, runs the mutant's tests and restores the file.  A mutant is killed
when every one of its tests fails.  The exit status is 1 when an old text
is missing or repeated or a mutant survives, so a change that rewrites a
target must update its entry here.  Names restrict the run to those
mutants.
"""

from __future__ import annotations

import os
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

T_PRES = "tests/test_presentation.py::"
T_PROPS = "tests/test_properties.py::"
T_IDEALS = "tests/test_ideals.py::"
T_ORACLE = "tests/test_oracle.py::"
T_VALUES = "tests/test_value_sets.py::test_value_sets_match_the_set_references"
T_CLI = "tests/test_cli.py::"

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
    # the Kaehler different's search, pruned against the covered ideal
    Mutant("reach prune breaks instead of continuing", IDEALS,
           """                continue
            grown = chosen.extend(rows[i][1])""",
           """                break
            grown = chosen.extend(rows[i][1])""",
           (T_IDEALS + "test_fitting_degrees_match_reference_search_on_the_corpus",)),
    Mutant("leaf does not cover its total", IDEALS,
           """            covered |= S.members_mask(limit - 1 - total) << total
            return""",
           "            return",
           (T_IDEALS + "test_differents_pinned",
            T_IDEALS + "test_fitting_degrees_match_exhaustive_minor_search",
            T_IDEALS + "test_fitting_degrees_match_reference_search_on_the_corpus")),
    Mutant("Kaehler shift off by one", IDEALS,
           "covered |= S.members_mask(limit - 1 - total) << total",
           "covered |= S.members_mask(limit - 1 - total) << (total + 1)",
           (T_IDEALS + "test_fitting_degrees_match_exhaustive_minor_search",
            T_IDEALS + "test_fitting_degrees_match_reference_search_on_the_corpus")),
    Mutant("render recomputes the Kaehler different", CLI,
           'yield (f"  derivative different {r.kaehler_different}, "',
           'yield (f"  derivative different {__import__('
           "'curvetorsion.ideals').ideals.kaehler_different("
           "from_generators(r.generators), __import__("
           "'curvetorsion.presentation').presentation.presentation_of("
           'from_generators(r.generators))}, "',
           (T_CLI + "test_human_rendering_reads_only_the_record",)),
    # the value sets on integer bitmasks
    Mutant("span shifted by m", ORACLE,
           "span |= ring << (m - 1)", "span |= ring << m", (T_VALUES,)),
    Mutant("span cut one bit high", ORACLE,
           "return span & ((1 << bound) - 1)",
           "return span & ((1 << (bound + 1)) - 1)", (T_VALUES,)),
    Mutant("plain derivative values one bit short", ORACLE,
           "return S.members_mask(bound) >> 1",
           "return S.members_mask(bound - 1) >> 1", (T_VALUES,)),
    Mutant("trace dual self-check bit off by one", IDEALS,
           "direct |= 1 << (window - u)",
           "direct |= 1 << (window - u + 1)",
           (T_VALUES, T_IDEALS + "test_complementary_module_pinned")),
    Mutant("inverse shift off by one", IDEALS,
           "if not (finite_part << (m + V.min_value) & gaps)]",
           "if not (finite_part << (m + V.min_value + 1) & gaps)]",
           (T_VALUES, T_IDEALS + "test_inverse_of_ring_is_ring")),
    Mutant("gap mask one bit short", IDEALS,
           "gaps = ((1 << cond) - 1) & ~S.members_mask(cond)",
           "gaps = ((1 << (cond - 1)) - 1) & ~S.members_mask(cond)",
           (T_VALUES,)),
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
    Mutant("members_mask drops the bound", SEMIGROUP,
           "& ((1 << max(bound + 1, 0)) - 1)",
           "& ((1 << max(bound, 0)) - 1)",
           (T_VALUES, T_IDEALS + "test_differents_pinned")),
    # the graded oracles, one evaluation per distinct degree key
    Mutant("no audit before a propagating guard", ORACLE,
           """        audit([table[k] for k in keys[:keys.index(key)]])
        raise""",
           "        raise",
           (T_ORACLE + "test_kernel_guard_fires_on_a_planted_row",)),
    Mutant("kernel guard names its key's last degree", ORACLE,
           """                f"relation rows exceed the evaluation kernel at degree "
                f"{keys.index(key)}")""",
           """                f"relation rows exceed the evaluation kernel at degree "
                f"{len(keys) - 1 - keys[::-1].index(key)}")""",
           (T_ORACLE + "test_kernel_guard_fires_on_a_planted_row",)),
    Mutant("containment guard names its key's last degree", ORACLE,
           "blowup relation module at degree {keys.index(key)} for {S}",
           "blowup relation module at degree "
           "{len(keys) - 1 - keys[::-1].index(key)} for {S}",
           (T_ORACLE + "test_relation_module_guards_fire_on_planted_faults",)),
    Mutant("zero audit unclamped", ORACLE,
           """        for d in range(max(cutoff + 1, 0), len(values)):
            if values[d]:""",
           """        for d in range(cutoff + 1, len(values)):
            if values[d]:""",
           (T_ORACLE + "test_lowered_cutoffs_match_the_per_degree_references",)),
    Mutant("zero audit one degree late", ORACLE,
           """        for d in range(max(cutoff + 1, 0), len(values)):
            if values[d]:""",
           """        for d in range(max(cutoff + 2, 0), len(values)):
            if values[d]:""",
           (T_ORACLE + "test_lowered_cutoffs_match_the_per_degree_references",)),
    Mutant("fullness audit unclamped", ORACLE,
           """        for d in range(max(cutoff + 1, 0), len(values)):
            if not values[d][4]:""",
           """        for d in range(cutoff + 1, len(values)):
            if not values[d][4]:""",
           (T_ORACLE + "test_lowered_cutoffs_match_the_per_degree_references",)),
    Mutant("fullness audit one degree late", ORACLE,
           """        for d in range(max(cutoff + 1, 0), len(values)):
            if not values[d][4]:""",
           """        for d in range(max(cutoff + 2, 0), len(values)):
            if not values[d][4]:""",
           (T_ORACLE + "test_relation_module_guards_fire_on_planted_faults",)),
    Mutant("slice fill one degree early", ORACLE,
           "masks[tail:] = [(1 << len(items)) - 1] * (top + 1 - tail)",
           "masks[tail - 1:] = [(1 << len(items)) - 1] * (top + 2 - tail)",
           (T_ORACLE + "test_degree_masks_match_the_naive_membership_test",)),
    Mutant("middle fill one degree late", ORACLE,
           "for d in range(c + w, stop):",
           "for d in range(c + w + 1, stop):",
           (T_ORACLE + "test_degree_masks_match_the_naive_membership_test",)),
    Mutant("original rows one degree off", ORACLE,
           "orig = ([0] * (2 * q) + resc)[:len(resc)]",
           "orig = ([0] * (2 * q - 1) + resc)[:len(resc)]",
           (T_ORACLE + "test_graded_oracles_match_the_per_degree_references",)),
]


def _pytest(where: Path, tests) -> tuple[int, set[str], str]:
    """Exit code, failed node ids and output of pytest on the tests."""
    env = dict(os.environ, PYTHONPATH=str(where / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "--tb=no",
         "-p", "no:cacheprovider", *tests],
        cwd=where, env=env, capture_output=True, text=True)
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
