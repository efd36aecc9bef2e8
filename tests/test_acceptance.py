"""Acceptance gate: the library's headline guarantees, end to end.

Five criteria, one test and one printed verdict line each (run with -s to
see the lines for passing criteria; pytest shows them for failures).  All
quantities are exact integers, so every comparison is equality, never a
tolerance.  Criterion 2 pins the documented outcome of the genus <= 8
sweep: the Fitting different equals the trace different on every curve
of deviation at most one, and kaehler_equals_dedekind fails on exactly
the 105 curves of deviation >= 2, smallest <4,5,6,7> with differents
{15+} and {11+}.  The criterion fails on any other identity failure, on
a missing or extra violator, or on a changed witness.  A further gate
repeats it on the 274 curves of genus <= 9, where the violators are the
206 curves of deviation >= 2.  Deviation >= 2 does not force a violation
in general: <9,10,11,12,15>, of genus 12, has deviation 2 and both
differents {44+}, and a separate test pins it passing every check.
"""

import subprocess
import sys
import time
from pathlib import Path

import pytest

from curvetorsion import (
    CampaignConfig,
    blowup,
    build_chain,
    ci_drop_lower_bound,
    classify_transform,
    complete_intersection_torsion,
    dedekind_different,
    different_inverse_gap,
    enumerate_by_genus,
    from_generators,
    full_report,
    general_drop,
    genus_via_derivative_spans,
    kaehler_different,
    presentation_of,
    relation_module_lengths,
    relative_differential_dims,
    run_campaign,
    stable_ci_drop,
    torsion_length,
)

from oracles import count_gap_sets, run_cli

GENUS_LIMIT = 8
TIME_LIMIT_SECONDS = 120.0
KNOWN_COUNTS = (1, 1, 2, 4, 7, 12, 23, 39, 67)


class Checker:
    """Collects named equality failures for a single criterion."""

    def __init__(self):
        self.failures = []

    def equal(self, label, actual, expected):
        if actual != expected:
            self.failures.append(
                f"{label}: got {actual!r}, expected {expected!r}")

    def holds(self, label, condition):
        if not condition:
            self.failures.append(label)

    def finish(self, criterion, detail_when_passing):
        ok = not self.failures
        detail = detail_when_passing if ok else "; ".join(self.failures)
        print(f"ACCEPTANCE criterion {criterion}: "
              f"{'PASS' if ok else 'FAIL'} - {detail}")
        assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def campaign():
    """The exhaustive genus <= 8 sweep, run once and shared."""
    start = time.perf_counter()
    summary, reports = run_campaign(CampaignConfig(max_genus=GENUS_LIMIT))
    elapsed = time.perf_counter() - start
    return summary, reports, elapsed


def test_criterion_1_worked_singletons():
    check = Checker()
    timings = {}

    def timed(label, block):
        start = time.perf_counter()
        block(check)
        timings[label] = time.perf_counter() - start
        check.holds(f"{label} finished under one second "
                    f"(took {timings[label]:.3f}s)",
                    timings[label] < 1.0)

    def singleton_2_3(check):
        S = from_generators([2, 3])
        torsion = torsion_length(S)
        check.equal("<2,3> torsion by oracle", torsion.length, 2)
        check.equal("<2,3> torsion equals twice the genus",
                    torsion.length, 2 * S.genus)
        check.equal("<2,3> torsion by complete-intersection formula",
                    complete_intersection_torsion(S), 2)
        transform = blowup(S).transformed
        check.equal("<2,3> drop to the transform",
                    torsion.length - torsion_length(transform).length, 2)
        check.equal("<2,3> classification",
                    classify_transform(S), "stable CI")

    def singleton_3_4_5(check):
        S = from_generators([3, 4, 5])
        pres = presentation_of(S)
        check.equal("<3,4,5> deviation",
                    pres.mu - (S.embdim - 1), 1)
        check.equal("<3,4,5> classification",
                    classify_transform(S), "nice ACI")
        torsion = torsion_length(S)
        check.equal("<3,4,5> torsion by oracle", torsion.length, 5)
        gap = different_inverse_gap(S, pres)
        check.equal("<3,4,5> different-inverse gap", gap, 1)
        check.equal("<3,4,5> torsion decomposition 5 = 2 + 2 + 1",
                    genus_via_derivative_spans(S) + S.genus + gap,
                    torsion.length)
        fitting = kaehler_different(S, pres)
        trace = dedekind_different(S)
        check.equal("<3,4,5> Fitting different as a value set",
                    (fitting.members, fitting.tail_start), ((), 8))
        check.equal("<3,4,5> trace different as a value set",
                    (trace.members, trace.tail_start), ((), 8))

    def singleton_4_6_7(check):
        S = from_generators([4, 6, 7])
        pres = presentation_of(S)
        check.equal("<4,6,7> number of defining relations", pres.mu, 2)
        torsion = torsion_length(S)
        transform = blowup(S)
        torsion_after = torsion_length(transform.transformed)
        check.equal("<4,6,7> torsion by oracle", torsion.length, 10)
        check.equal("<4,6,7> transform torsion", torsion_after.length, 2)
        drop = torsion.length - torsion_after.length
        check.equal("<4,6,7> drop equals twice the transform colength",
                    drop, 2 * transform.colength)
        check.equal("<4,6,7> transform colength", transform.colength, 4)
        lengths = relation_module_lengths(S)
        check.equal("<4,6,7> blowup module over the lifted module",
                    lengths.blowup_over_lifted, 0)
        check.equal("<4,6,7> drop lower bound (embdim-1)*multiplicity",
                    ci_drop_lower_bound(S), 8)
        check.holds("<4,6,7> drop meets the lower bound 8 >= 8",
                    drop >= ci_drop_lower_bound(S))
        chain = build_chain(S)
        check.equal("<4,6,7> chain drops",
                    tuple(step.formula_drop for step in chain.steps), (8, 2))
        check.equal("<4,6,7> chain telescopes to the starting torsion",
                    chain.telescoped_total, chain.start_torsion)
        check.equal("<4,6,7> chain total", chain.telescoped_total, 10)

    def singleton_4_5(check):
        S = from_generators([4, 5])
        dims = relative_differential_dims(presentation_of(S))
        check.equal("<4,5> differential module dimension over the line",
                    dims.total, 15)
        lengths = relation_module_lengths(S)
        check.equal("<4,5> blowup module over the rescaled module",
                    lengths.blowup_over_rescaled, 14)
        check.equal("<4,5> blowup module over the lifted module",
                    lengths.blowup_over_lifted, 8)
        check.equal("<4,5> rescaled module over the original",
                    lengths.rescaled_over_original, 8)
        check.equal("<4,5> rescaled colength is 2*(embdim-1)*multiplicity",
                    lengths.rescaled_over_original,
                    2 * (S.embdim - 1) * S.multiplicity)
        drop_by_class_formula = stable_ci_drop(S)
        drop_by_module_formula = general_drop(S)
        drop_by_oracle = (torsion_length(S).length
                          - torsion_length(blowup(S).transformed).length)
        check.equal("<4,5> drop by the stable-CI formula",
                    drop_by_class_formula, 12)
        check.equal("<4,5> drop by the module-length formula",
                    drop_by_module_formula, 12)
        check.equal("<4,5> drop by the raw oracle", drop_by_oracle, 12)

    timed("<2,3>", singleton_2_3)
    timed("<3,4,5>", singleton_3_4_5)
    timed("<4,6,7>", singleton_4_6_7)
    timed("<4,5>", singleton_4_5)
    slowest = max(timings.values())
    check.finish(1, "4 worked examples, formula and oracle agree everywhere, "
                    f"slowest {slowest * 1000.0:.0f} ms")


def test_criterion_2_exhaustive_identity_campaign(campaign):
    summary, reports, elapsed = campaign
    check = Checker()
    check.holds(f"campaign under {TIME_LIMIT_SECONDS:.0f}s "
                f"(took {elapsed:.1f}s)", elapsed < TIME_LIMIT_SECONDS)
    check.equal("curves examined", summary.curves_examined, 156)
    check.equal("oracle errors", summary.oracle_errors, ())

    by_generators = {report.generators: report for report in reports}
    offenders = dict(summary.violations)
    for generators, failed in offenders.items():
        check.equal(f"checks failed by {generators}",
                    failed, ("kaehler_equals_dedekind",))
    high_deviation = {report.generators for report in reports
                      if report.deviation >= 2}
    check.equal("violators are exactly the deviation >= 2 curves",
                set(offenders), high_deviation)
    for report in reports:
        if report.deviation <= 1:
            check.holds(f"deviation <= 1 curve {report.generators} "
                        "passes every identity", report.all_pass)

    # Through genus 8 the different-equality identity fails on every
    # curve past deviation one, so this criterion pins the documented
    # violation set: its size is
    # counted from the presentations (deviation >= 2), not from the
    # differents.  Any other failing identity, a missing or extra violator,
    # or a changed witness turns the criterion red.
    check.equal("identity checks per curve",
                {len(report.checks) for report in reports}, {22})
    check.equal("number of violations equals the deviation >= 2 count",
                len(summary.violations), len(high_deviation))
    check.equal("deviation >= 2 curves through genus 8",
                len(high_deviation), 105)
    check.equal("first violation in enumeration order",
                summary.violations[0][0] if summary.violations else None,
                (4, 5, 6, 7))

    witness = by_generators.get((4, 5, 6, 7))
    check.holds("smallest counterexample <4,5,6,7> present",
                witness is not None)
    if witness is not None:
        S = from_generators([4, 5, 6, 7])
        fitting = kaehler_different(S, presentation_of(S))
        trace = dedekind_different(S)
        check.equal("<4,5,6,7> Fitting different as a value set",
                    (fitting.members, fitting.tail_start), ((), 15))
        check.equal("<4,5,6,7> trace different as a value set",
                    (trace.members, trace.tail_start), ((), 11))
        print("counterexample <4,5,6,7>: Fitting different "
              f"{{{fitting.tail_start}+}}, trace different "
              f"{{{trace.tail_start}+}}, torsion {witness.torsion_length}, "
              f"drop {witness.torsion_drop}")

    check.finish(2, f"156 curves in {elapsed:.1f}s; 21 of 22 identities "
                    "hold on all 156 curves; kaehler_equals_dedekind fails "
                    "on exactly the 105 deviation >= 2 curves")


def test_genus_9_exhaustive_identity_campaign(campaign):
    # Criterion 2 one genus further: the same documented outcome on all
    # 274 curves of genus <= 9.  Requesting the genus <= 8 fixture first
    # lets this sweep reuse its caches.
    start = time.perf_counter()
    summary, reports = run_campaign(CampaignConfig(max_genus=9))
    elapsed = time.perf_counter() - start
    check = Checker()
    check.equal("curves examined", summary.curves_examined, 274)
    check.equal("genus 9 curves (OEIS A007323)",
                dict(summary.counts_by_genus).get(9), 118)
    check.equal("oracle errors", summary.oracle_errors, ())
    offenders = dict(summary.violations)
    for generators, failed in offenders.items():
        check.equal(f"checks failed by {generators}",
                    failed, ("kaehler_equals_dedekind",))
    high_deviation = {report.generators for report in reports
                      if report.deviation >= 2}
    check.equal("violators are exactly the deviation >= 2 curves",
                set(offenders), high_deviation)
    check.equal("deviation >= 2 curves through genus 9",
                len(high_deviation), 206)
    check.equal("first violation in enumeration order",
                summary.violations[0][0] if summary.violations else None,
                (4, 5, 6, 7))
    check.finish("2 at genus 9",
                 f"274 curves in {elapsed:.1f}s; kaehler_equals_dedekind "
                 "fails on exactly the 206 deviation >= 2 curves, nothing "
                 "else fails")


def test_deviation_two_curve_whose_differents_agree():
    # Deviation >= 2 does not force kaehler_equals_dedekind to fail: on
    # <9,10,11,12,15> (genus 12) the Fitting and trace differents are
    # both {44+}, so every applicable check holds, under either tie-break.
    S = from_generators((9, 10, 11, 12, 15))
    for reverse_tiebreak in (False, True):
        report = full_report(S, reverse_tiebreak)
        assert (report.genus, report.deviation) == (12, 2)
        assert len(report.checks) == 22
        assert report.checks["kaehler_equals_dedekind"] is True
        assert report.all_pass
        assert report.kaehler_different == "{44+}"
    trace = dedekind_different(S)
    assert (trace.members, trace.tail_start) == ((), 44)
    code, out, _ = run_cli("analyze", "9", "10", "11", "12", "15",
                           "--format", "jsonl")
    assert code == 0 and '"all_pass": true' in out


def test_criterion_3_enumeration_counts():
    check = Checker()
    counts = [0] * (GENUS_LIMIT + 1)
    for S in enumerate_by_genus(GENUS_LIMIT):
        counts[S.genus] += 1
    check.equal("counts by genus 0..8", tuple(counts), KNOWN_COUNTS)
    for genus in range(7):
        check.equal(f"brute-force gap-set count at genus {genus}",
                    count_gap_sets(genus), KNOWN_COUNTS[genus])
    check.finish(3, "counts by genus 1,1,2,4,7,12,23,39,67; brute force "
                    "agrees through genus 6")


def test_criterion_4_positivity_sweep_and_exit_code(campaign):
    summary, reports, _ = campaign
    check = Checker()
    singular = [report for report in reports
                if report.classification != "regular"]
    check.equal("singular curves swept", len(singular), 155)
    for report in singular:
        check.holds(f"torsion positive on {report.generators}",
                    report.torsion_length > 0)
    check.equal("least singular torsion", summary.min_singular_torsion, 2)
    for report in singular:
        if report.deviation == 0:
            bound = ((report.embedding_dimension - 1)
                     * report.multiplicity)
            check.holds(f"CI curve {report.generators} drop "
                        f"{report.torsion_drop} >= {bound} > 0",
                        report.torsion_drop >= bound > 0)
    check.equal("least CI drop excess over the bound",
                summary.min_ci_drop_excess, 0)

    code, out, _ = run_cli("verify", "--max-genus", "3")
    check.equal("violation exit code", code, 2)
    check.holds("counterexample record printed",
                "violated by <4,5,6,7>: kaehler_equals_dedekind"
                in out.splitlines())
    check.finish(4, "torsion > 0 on all 155 singular curves, CI drops meet "
                    "the bound, violations exit with code 2 and a record")


def test_criterion_5_oracle_self_consistency(campaign):
    summary, _, _ = campaign
    check = Checker()
    check.equal("cutoff-window violations on the full corpus",
                summary.oracle_errors, ())

    plain_summary, plain_reports = run_campaign(CampaignConfig(max_genus=6))
    reversed_summary, reversed_reports = run_campaign(
        CampaignConfig(max_genus=6, reverse_tiebreak=True))
    check.equal("tie-break reversal: reports",
                [report.to_dict() for report in reversed_reports],
                [report.to_dict() for report in plain_reports])
    check.equal("tie-break reversal: summary",
                reversed_summary, plain_summary)
    for S in enumerate_by_genus(6):
        if S.embdim < 2:
            continue
        plain = presentation_of(S)
        flipped = presentation_of(S, reverse_tiebreak=True)
        check.equal(f"tie-break reversal keeps mu for {S.min_generators}",
                    flipped.mu, plain.mu)
        check.equal("tie-break reversal keeps relation degrees for "
                    f"{S.min_generators}",
                    flipped.betti_degrees, plain.betti_degrees)

    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "tests/test_properties.py",
         "-q", "-p", "no:cacheprovider"],
        cwd=root, capture_output=True, text=True)
    check.equal("standalone property suite exit code "
                f"(tail: {proc.stdout.strip().splitlines()[-1:]!r})",
                proc.returncode, 0)
    check.finish(5, "no cutoff violations, tie-break invariance through "
                    "genus 6, property suite passes standalone")
