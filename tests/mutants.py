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
CAMPAIGN = "src/curvetorsion/campaign.py"
FORMULAS = "src/curvetorsion/formulas.py"
LINALG = "src/curvetorsion/linalg.py"

T_PRES = "tests/test_presentation.py::"
T_SEMI = "tests/test_semigroup.py::"
T_PROPS = "tests/test_properties.py::"
T_IDEALS = "tests/test_ideals.py::"
T_LINALG = "tests/test_linalg.py::"
T_ORACLE = "tests/test_oracle.py::"
T_VALUES = "tests/test_value_sets.py::test_value_sets_match_the_set_references"
T_CLI = "tests/test_cli.py::"
T_CAMPAIGN = "tests/test_campaign.py::"
T_FORMULAS = "tests/test_formulas.py::"
# the membership-test presentation against the factorization reference
T_MINIMAL = (
    T_PRES + "test_minimal_presentation_matches_the_factorization_reference",
    T_PROPS + "test_minimal_presentation_of_any_weight_tuple")
T_SPAN = T_PROPS + "test_span_values_of_any_semigroup_and_bound"

MUTANTS = [
    # the generation check on bit-sliced masks over every degree at once
    Mutant("weight sums start at their fixpoint", PRES,
           "    sums = 1\n", "    sums = 0\n",
           (T_PRES + "test_support_sets_match_brute_force",
            T_PROPS + "test_support_sets_of_any_weight_tuple")),
    Mutant("used positions left as the doubled-weight edge", PRES,
           """    for p, w in enumerate(weights):
        joined[p][p] = sums << w & full
""", "",
           (T_PRES + "test_generation_check_matches_the_tuple_reference",)),
    Mutant("transitive step through the last position dropped", PRES,
           "    for m, via in enumerate(joined):",
           "    for m, via in enumerate(joined[:-1]):",
           (T_PRES + "test_support_sets_match_brute_force",
            T_PROPS + "test_support_sets_of_any_weight_tuple",
            T_PRES + "test_generation_check_matches_the_tuple_reference")),
    # the relations' joins folded into the same closure
    Mutant("relation join placed one degree high", PRES,
           "joined[p][r] |= 1 << d & full",
           "joined[p][r] |= 1 << (d + 1) & full",
           (T_PRES + "test_presentations_generate",
            T_PRES + "test_generation_check_matches_the_tuple_reference")),
    Mutant("final check skips the last position", PRES,
           "for r in range(p + 1, len(row)))",
           "for r in range(p + 1, len(row) - 1))",
           (T_PRES + "test_dropping_a_minimal_relation_breaks_generation",
            T_PRES + "test_generation_check_matches_the_tuple_reference")),
    Mutant("join leaves out its lowest support position", PRES,
           "if positions >> p & 1]",
           "if positions >> p & 1][1:]",
           (T_PRES + "test_presentations_generate",
            T_PRES + "test_generation_check_matches_the_tuple_reference")),
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
    Mutant("greedy basis adds d for a dependent row", IDEALS,
           "total += d * (len(basis) - rank)",
           "total += d * (len(basis) - rank or len(basis) < len(vec))",
           (T_IDEALS + "test_differents_pinned",
            T_IDEALS + "test_fitting_degrees_match_exhaustive_minor_search",
            T_IDEALS + "test_fitting_degrees_match_reference_search_on_the_corpus")),
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
    # the argparse front end and what a command loads
    Mutant("usage errors exit 2", CLI,
           'print(f"error: {message}", file=sys.stderr)\n        sys.exit(1)',
           'print(f"error: {message}", file=sys.stderr)\n        sys.exit(2)',
           (T_CLI + "test_usage_errors_exit_one",)),
    Mutant("json imported at start-up", CLI,
           "import argparse\nimport os\nimport sys\n",
           "import argparse\nimport json\nimport os\nimport sys\n",
           (T_CLI + "test_human_commands_load_only_what_they_use",)),
    Mutant("abbreviations allowed", CLI,
           "description=run.__doc__, allow_abbrev=False)",
           "description=run.__doc__, allow_abbrev=True)",
           (T_CLI + "test_usage_errors_exit_one",)),
    Mutant("pool not capped at the corpus size", CAMPAIGN,
           "ProcessPoolExecutor(max_workers=workers)",
           "ProcessPoolExecutor(max_workers=jobs)",
           (T_CAMPAIGN + "test_campaign_pool_is_capped_at_the_corpus_size",)),
    # the sweep streamed: each outcome written as it arrives, and counted
    # by the tally on its way
    Mutant("fail-fast stop before the violator's yield", CAMPAIGN,
           """            yield generators, outcome
            if fail_fast and (isinstance(outcome, str) or outcome.failed):
                return
""",
           """            if fail_fast and (isinstance(outcome, str) or outcome.failed):
                return
            yield generators, outcome
""",
           (T_CAMPAIGN + "test_campaign_fail_fast_stops_at_first_violation",)),
    Mutant("errors left out of the curves examined", CAMPAIGN,
           """            self.curves_examined += 1
            if isinstance(r, str):
                self.oracle_errors.append((generators, r))
                continue
""",
           """            if isinstance(r, str):
                self.oracle_errors.append((generators, r))
                continue
            self.curves_examined += 1
""",
           (T_CAMPAIGN + "test_campaign_fail_fast_stops_at_first_violation",
            T_CAMPAIGN + "test_campaign_records_a_domain_error_and_goes_on")),
    Mutant("sweep collected before writing", CLI,
           "    _emit(args.fmt, lines=chained(map(_verify_line, reports),",
           "    reports = list(reports)\n"
           "    _emit(args.fmt, lines=chained(map(_verify_line, reports),",
           (T_CLI + "test_interrupted_sweep_keeps_the_records_already_written",)),
    Mutant("closed stdout left to a traceback", CLI,
           "(KeyboardInterrupt, EOFError, BrokenPipeError)",
           "(KeyboardInterrupt, EOFError)",
           (T_CLI + "test_closed_stdout_ends_a_sweep",)),
    Mutant("pool left running when the stream is closed", CAMPAIGN,
           "executor.shutdown(cancel_futures=True)",
           "executor.shutdown(wait=False, cancel_futures=True)",
           (T_CAMPAIGN + "test_closing_a_pooled_campaign_leaves_no_worker",)),
    Mutant("an error class outside DomainError", IDEALS,
           "class IdealError(DomainError, ValueError):",
           "class IdealError(ValueError):",
           (T_CAMPAIGN + "test_every_package_exception_is_a_domain_error",
            T_CAMPAIGN + "test_campaign_records_a_domain_error_and_goes_on")),
    Mutant("GeneratorTuple validation dropped", PRES,
           "if not weights or any(w < 1 for w in weights):",
           "if False:",
           (T_PRES + "test_generator_tuple_validation",)),
    # the checks table: one literal in report order, None where a check
    # does not apply
    Mutant("two adjacent checks swapped", FORMULAS,
           """        "exactness_defect_zero": defect == 0,
        "blowup_exactness_defect_zero": defect1 == 0 if singular else None,
""",
           """        "blowup_exactness_defect_zero": defect1 == 0 if singular else None,
        "exactness_defect_zero": defect == 0,
""",
           (T_CLI + "test_golden_transcripts",)),
    Mutant("a CI check applied to every curve", FORMULAS,
           '"ci_different_gap_zero": gap == 0 if ci else None,',
           '"ci_different_gap_zero": gap == 0,',
           (T_FORMULAS + "test_full_report_on_the_regular_curve",
            T_CLI + "test_golden_transcripts")),
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
           'int(f"{free:0{window + 1}b}"[::-1], 2)',
           'int(f"{free:0{window + 2}b}"[::-1], 2)',
           (T_VALUES, T_IDEALS + "test_complementary_module_pinned")),
    Mutant("residue progression one short", IDEALS,
           "n = -(-w // q)", "n = -(-w // q) - 1",
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
    Mutant("stability shift off by one", IDEALS,
           "(bad := vs.bits & ~(vs.bits >> gen))",
           "(bad := vs.bits & ~(vs.bits >> (gen - 1)))",
           (T_IDEALS + "test_value_set_basics",
            T_IDEALS + "test_complementary_module_pinned")),
    # a value set as one int in normal form: least value at bit 0, every
    # bit from the tail on set
    Mutant("normalization keeps leading zeros", IDEALS,
           "    low = (bits & -bits).bit_length() - 1\n",
           "    low = 0\n",
           (T_VALUES, T_IDEALS + "test_value_set_tail_normalization",
            T_PROPS + "test_value_set_roundtrips")),
    Mutant("tail bits not set", IDEALS,
           "    bits |= -(1 << (tail_start - lo))\n", "",
           (T_VALUES, T_IDEALS + "test_value_set_basics",
            T_IDEALS + "test_value_set_tail_normalization")),
    Mutant("members read past the tail", IDEALS,
           "_set_bits(self.mask(lo, self.tail_start))",
           "_set_bits(self.mask(lo, self.tail_start + 1))",
           (T_VALUES, T_IDEALS + "test_value_set_basics",
            T_IDEALS + "test_complementary_module_pinned")),
    Mutant("quotient length off by one", IDEALS,
           "return (outer_vals & ~inner_vals).bit_count()",
           "return (outer_vals & ~inner_vals).bit_count() + 1",
           (T_IDEALS + "test_quotient_length_pinned",
            T_IDEALS + "test_trace_dual_colength_identity")),
    # membership as one int: the sieve, the generator walk, the Apery
    # mask and the enumeration's children
    Mutant("sieve tops out two short of Schur's bound", SEMIGROUP,
           "top = (values[0] - 1) * (last - 1)",
           "top = (values[0] - 1) * (last - 1) - 2",
           (T_SEMI + "test_pinned_invariants",
            T_SEMI + "test_membership_matches_brute_force")),
    Mutant("Schur's bound read off the first two values", SEMIGROUP,
           "top = (values[0] - 1) * (last - 1)",
           "top = (values[0] - 1) * (values[1 % len(values)] - 1)",
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
    Mutant("symmetric at conductor 2g + 1", SEMIGROUP,
           "return self.conductor == 2 * self.genus",
           "return self.conductor == 2 * self.genus + 1",
           (T_SEMI + "test_symmetry_matches_the_defining_loop",)),
    Mutant("integrality guard disabled", SEMIGROUP,
           " or any(int(v) != v for v in values)", "",
           (T_SEMI + "test_invalid_generators_raise",)),
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
    # each value's degrees merged into one int, zero values dropped
    Mutant("equal values left unmerged", ORACLE,
           """            merged[value] = merged.get(value, 0) | degrees & below
    if fault:
        raise OracleError(fault[1])
    return tuple(sorted((value, degrees)
                        for value, degrees in merged.items() if value))""",
           """            merged[value, first] = degrees & below
    if fault:
        raise OracleError(fault[1])
    return tuple(sorted((value, degrees)
                        for (value, _), degrees in merged.items() if value))""",
           (T_ORACLE + "test_differential_dimensions_pinned",
            T_ORACLE + "test_torsion_pinned",
            T_ORACLE + "test_graded_oracles_match_the_per_degree_references")),
    Mutant("zero values kept", ORACLE,
           "for value, degrees in merged.items() if value))",
           "for value, degrees in merged.items()))",
           (T_ORACLE + "test_differential_dimensions_pinned",
            T_ORACLE + "test_torsion_pinned",
            T_ORACLE + "test_graded_oracles_match_the_per_degree_references")),
    Mutant("dimension reads bit d + 1", ORACLE,
           "if degree >= 0 and degrees >> degree & 1), 0)",
           "if degree >= 0 and degrees >> (degree + 1) & 1), 0)",
           (T_ORACLE + "test_ledger_dimension_accessor",
            T_ORACLE + "test_torsion_sits_inside_the_differential_module")),
    # the rank helper against Bareiss elimination of the rows the test
    # picks from the mask itself
    Mutant("picked rows read one bit high", ORACLE,
           "picked.append(self.vectors[i])",
           "picked.append(self.vectors[i + 1])",
           (T_ORACLE + "test_masked_ranks_match_bareiss_through_genus_9",
            T_PROPS + "test_masked_ranks_against_bareiss_on_any_rows")),
    Mutant("one row's support left out of the union", ORACLE,
           "support |= self._supports[i]",
           "support |= self._supports[i] if rest != mask else 0",
           (T_PROPS + "test_masked_ranks_against_bareiss_on_any_rows",)),
    Mutant("one-row shortcut counts a zero-support row", ORACLE,
           "rank = 1 if support else 0",
           "rank = 1 if mask else 0",
           (T_ORACLE + "test_masked_ranks_decide_one_row_or_one_column_"
            "from_the_supports",)),
    Mutant("original module's mask left unchecked", ORACLE,
           "rows.rank(mask, valid)\n",
           "rows.rank(mask, -1 if mask == orig else valid)\n",
           (T_ORACLE + "test_relation_module_slot_check_covers_every_mask",)),
    Mutant("original rows one degree off", ORACLE,
           "[(S, w + 2 * q) for w in resc_degrees]",
           "[(S, w + 2 * q - 1) for w in resc_degrees]",
           (T_ORACLE + "test_graded_oracles_match_the_per_degree_references",)),
    # the derivative matrix read off Presentation.derivatives, the
    # references building their rows from the relations
    Mutant("relative dims keep the distinguished column", ORACLE,
           "rows = _MaskedRanks([vec[1:] for vec in pres.derivatives])",
           "rows = _MaskedRanks(list(pres.derivatives))",
           (T_ORACLE + "test_differential_dimensions_pinned",
            T_ORACLE + "test_graded_oracles_match_the_per_degree_references")),
    Mutant("route b drops the distinguished column", ORACLE,
           "rows = _MaskedRanks(pres.derivatives)",
           "rows = _MaskedRanks([vec[1:] for vec in pres.derivatives])",
           # by the Euler relation column 0 is a rational combination of
           # the others, so the pinned ranks hold; the slot guard fires
           (T_PROPS + "test_cutoff_audits_never_fire_on_the_corpus",
            T_ORACLE + "test_graded_oracles_match_the_per_degree_references")),
    Mutant("relation-module rows read the blowup presentation twice", ORACLE,
           "bpres.derivatives + rescaled.derivatives",
           "bpres.derivatives + bpres.derivatives",
           (T_ORACLE + "test_relation_module_lengths_pinned",
            T_ORACLE + "test_graded_oracles_match_the_per_degree_references")),
]


MEMORY_CAP = 1 << 30  # bytes of address space per pytest run


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def _pytest(where: Path, tests) -> tuple[int, set[str], str]:
    """Exit code, failed node ids and output of pytest on the tests."""
    env = dict(os.environ, PYTHONPATH=str(where / "src"))
    # no hypothesis plugin: on a failing example it imports libcst to
    # print a patch, and near the memory cap that import raised
    # MemoryError inside pytest, which exited 3 with the tests failed
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "--tb=no",
         "-p", "no:cacheprovider", "-p", "no:hypothesispytest", *tests],
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
