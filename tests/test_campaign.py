"""Corpus campaigns and transform chains."""

from __future__ import annotations

import concurrent.futures
import contextlib
import importlib
import inspect
import io
import multiprocessing
import pkgutil
import re
from pathlib import Path

import curvetorsion
import curvetorsion.campaign
from curvetorsion import (CurveReport, DomainError, IdealError, Tally,
                          build_chain, from_generators, run_campaign)
from oracles import collect_campaign, run_cli


def test_chain_pinned():
    result = build_chain(from_generators((4, 6, 7)))
    assert [(s.generators, s.classification, s.formula_name, s.formula_drop)
            for s in result.steps] == [
        ((4, 6, 7), "stable CI", "stable_ci_drop", 8),
        ((2, 3), "stable CI", "stable_ci_drop", 2),
    ]
    assert result.start_torsion == 10
    assert result.telescoped_total == 10
    assert result.telescopes


def test_chain_through_mixed_classes():
    result = build_chain(from_generators((3, 7, 8)))
    assert [(s.classification, s.formula_name, s.formula_drop)
            for s in result.steps] == [
        ("ACI-not-nice", "general_drop", 5),
        ("nice ACI", "nice_aci_drop", 5),
    ]
    assert result.start_torsion == 10 and result.telescopes


def test_chain_of_regular_curve_is_empty():
    result = build_chain(from_generators((1,)))
    assert result.steps == ()
    assert result.start_torsion == 0 and result.telescopes


def test_campaign_genus_four_pinned():
    tally, reports = collect_campaign(max_genus=4)
    assert isinstance(tally, Tally)
    assert tally.curves_examined == 15 and len(reports) == 15
    assert tally.counts_by_genus == {0: 1, 1: 1, 2: 2, 3: 4, 4: 7}
    assert tally.counts_by_classification == {
        "ACI-not-nice": 1, "nice ACI": 3, "other": 3, "regular": 1,
        "stable CI": 7}
    assert tally.oracle_errors == []
    assert [gens for gens, _ in tally.violations] == [
        (4, 5, 6, 7), (4, 6, 7, 9), (5, 6, 7, 8, 9)]
    assert all(names == ("kaehler_equals_dedekind",)
               for _, names in tally.violations)
    assert tally.min_singular_torsion == 2
    assert tally.min_ci_drop_excess == 0
    assert tally.violations or tally.oracle_errors


def test_campaign_reports_follow_enumeration_order():
    _, reports = collect_campaign(max_genus=3)
    assert [r.generators for r in reports] == [
        (1,), (2, 3), (2, 5), (3, 4, 5), (2, 7), (3, 4), (3, 5, 7),
        (4, 5, 6, 7)]


def test_campaign_all_pass_below_the_counterexamples():
    tally, _ = collect_campaign(max_genus=2)
    assert tally.violations == [] and tally.oracle_errors == []


def test_campaign_multiplicity_filter():
    tally, reports = collect_campaign(max_genus=4, max_multiplicity=3)
    assert tally.curves_examined == 10
    assert all(r.multiplicity <= 3 for r in reports)
    assert tally.violations == [] and tally.oracle_errors == []


def _inject_ideal_error(monkeypatch):
    """Makes the campaign's full_report raise an IdealError on <3,5,7>."""
    real_full_report = curvetorsion.campaign.full_report

    def failing_full_report(S, reverse_tiebreak=False):
        if S.min_generators == (3, 5, 7):
            raise IdealError("injected")
        return real_full_report(S, reverse_tiebreak)

    monkeypatch.setattr(curvetorsion.campaign, "full_report",
                        failing_full_report)


def test_campaign_fail_fast_stops_at_first_violation(monkeypatch):
    tally, reports = collect_campaign(max_genus=4, fail_fast=True)
    assert len(tally.violations) == 1
    assert tally.violations[0][0] == (4, 5, 6, 7)
    assert tally.curves_examined == 8  # enumeration position of the violator
    assert reports[-1].generators == (4, 5, 6, 7)

    # an oracle error stops the stream the same way, at its own position
    _inject_ideal_error(monkeypatch)
    tally, reports = collect_campaign(max_genus=4, fail_fast=True)
    assert tally.oracle_errors == [((3, 5, 7), "IdealError: injected")]
    assert tally.violations == []
    assert tally.curves_examined == 7 and len(reports) == 6
    code, out, _ = run_cli("verify", "--max-genus", "4", "--fail-fast")
    assert code == 1
    assert "curves examined: 7" in out.splitlines()


def test_campaign_parallel_matches_serial():
    serial_tally, serial_reports = collect_campaign(max_genus=3)
    parallel_tally, parallel_reports = collect_campaign(max_genus=3, jobs=2)
    assert vars(parallel_tally) == vars(serial_tally)
    assert [r.to_dict() for r in parallel_reports] == \
        [r.to_dict() for r in serial_reports]


def test_campaign_pool_is_capped_at_the_corpus_size(monkeypatch):
    """--jobs 64 on two curves forks two workers, and one curve none."""
    started = []

    class RecordingPool:
        """Records max_workers and runs in process; forks nothing."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    serial_tally, serial_reports = collect_campaign(max_genus=1)
    pooled_tally, pooled_reports = collect_campaign(max_genus=1, jobs=64)
    assert vars(pooled_tally) == vars(serial_tally)
    assert pooled_reports == serial_reports
    assert started == [2]
    collect_campaign(max_genus=0, jobs=64)
    assert started == [2]
    collect_campaign(max_genus=3, jobs=3)
    assert started == [2, 3]


def test_campaign_reverse_tiebreak_changes_no_length():
    plain_tally, plain_reports = collect_campaign(max_genus=3)
    flipped_tally, flipped_reports = collect_campaign(max_genus=3,
                                                      reverse_tiebreak=True)
    assert vars(flipped_tally) == vars(plain_tally)
    assert [r.to_dict() for r in flipped_reports] == \
        [r.to_dict() for r in plain_reports]


def test_campaign_records_a_domain_error_and_goes_on(monkeypatch):
    _inject_ideal_error(monkeypatch)
    tally, reports = collect_campaign(max_genus=3)
    assert tally.curves_examined == 8
    assert len(reports) == 7
    assert (3, 5, 7) not in [r.generators for r in reports]
    assert tally.oracle_errors == [((3, 5, 7), "IdealError: injected")]

    code, out, _ = run_cli("verify", "--max-genus", "3")
    assert code == 1
    assert "oracle error on <3,5,7>: IdealError: injected" in out.splitlines()


def test_closing_a_pooled_campaign_leaves_no_worker():
    outcomes = run_campaign(max_genus=4, jobs=2)
    generators, report = next(outcomes)
    assert generators == (1,) and isinstance(report, CurveReport)
    outcomes.close()
    assert multiprocessing.active_children() == []


def test_every_package_exception_is_a_domain_error():
    # a sweep records a DomainError on its curve; an exception class
    # outside it would crash the sweep instead
    defined = set()
    for info in pkgutil.iter_modules(curvetorsion.__path__):
        module = importlib.import_module(f"curvetorsion.{info.name}")
        defined |= {cls for _, cls in inspect.getmembers(module,
                                                         inspect.isclass)
                    if issubclass(cls, BaseException)
                    and cls.__module__ == module.__name__}
    assert {IdealError, DomainError} <= defined
    for cls in defined - {DomainError}:
        assert issubclass(cls, DomainError), cls
        assert issubclass(cls, (ValueError, RuntimeError)), cls


def test_readme_library_examples_run():
    # the README's python blocks run in order in one namespace, and print
    # what their comments state
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    assert len(blocks) == 2
    namespace, printed = {}, []
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(block, namespace)
        printed.append(out.getvalue().splitlines())
    assert printed[0][:3] == ["10", "((1, 11070464), (2, 131072))", "<2,3>"]
    assert len(printed[1]) == 51 and printed[1][-1] == "50"
