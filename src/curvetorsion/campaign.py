"""Corpus verification campaigns.

A campaign enumerates every numerical semigroup up to a genus bound,
builds the full report for each, and tallies identity violations and
oracle failures separately: a violated identity is a mathematical
counterexample, a failed oracle is a broken computation, and the two must
never be conflated.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .errors import FormulaNotApplicable, OracleError
from .formulas import CurveReport, full_report
from .ideals import IdealError
from .presentation import PresentationError
from .semigroup import NumericalSemigroup, SemigroupError, \
    enumerate_by_genus, from_generators

# Failures of the computation rather than of an identity: a sweep records
# them per curve, and the command line exits 1 on them.
_DOMAIN_ERRORS = (SemigroupError, PresentationError, IdealError, OracleError,
                  FormulaNotApplicable)


def corpus(max_genus: int, max_multiplicity: int | None = None
           ) -> Iterator[NumericalSemigroup]:
    """The curves of genus <= max_genus, in enumeration order, without
    those of multiplicity above max_multiplicity when it is given."""
    for S in enumerate_by_genus(max_genus):
        if max_multiplicity is None or S.multiplicity <= max_multiplicity:
            yield S


class CampaignConfig(NamedTuple):
    max_genus: int
    max_multiplicity: int | None = None
    jobs: int = 1
    fail_fast: bool = False
    reverse_tiebreak: bool = False


class CampaignSummary(NamedTuple):
    """Aggregate outcome of one verification campaign."""

    curves_examined: int
    counts_by_genus: tuple[tuple[int, int], ...]
    counts_by_classification: tuple[tuple[str, int], ...]
    violations: tuple[tuple[tuple[int, ...], tuple[str, ...]], ...]
    oracle_errors: tuple[tuple[tuple[int, ...], str], ...]
    min_singular_torsion: int | None
    min_ci_drop_excess: int | None

    @property
    def all_pass(self) -> bool:
        return not self.violations and not self.oracle_errors


def _examine(args: tuple[tuple[int, ...], bool]):
    """Worker: build one report, trapping domain errors as data."""
    generators, reverse_tiebreak = args
    S = from_generators(generators)
    try:
        return "ok", full_report(S, reverse_tiebreak)
    except _DOMAIN_ERRORS as exc:
        return "error", generators, f"{type(exc).__name__}: {exc}"


def run_campaign(config: CampaignConfig
                 ) -> tuple[CampaignSummary, list[CurveReport]]:
    """Verify every curve in the configured corpus.

    Returns the summary and the per-curve reports in enumeration order;
    order and content are deterministic for a given configuration.
    """
    jobs = [(S.min_generators, config.reverse_tiebreak)
            for S in corpus(config.max_genus, config.max_multiplicity)]

    reports: list[CurveReport] = []
    by_genus: dict[int, int] = {}
    by_class: dict[str, int] = {}
    violations = []
    oracle_errors = []
    min_singular_torsion = None
    min_ci_excess = None

    # a worker without a curve would be forked for nothing
    workers = min(config.jobs, len(jobs))
    if workers > 1:
        # imported here so that serial runs never load the pool stack
        # (multiprocessing, socket, pickle, subprocess, logging)
        from concurrent.futures import ProcessPoolExecutor
        executor = ProcessPoolExecutor(max_workers=workers)
        results = executor.map(_examine, jobs, chunksize=4)
    else:
        executor = None
        results = map(_examine, jobs)
    try:
        for outcome in results:
            if outcome[0] == "error":
                _, generators, message = outcome
                oracle_errors.append((generators, message))
                if config.fail_fast:
                    break
                continue
            report = outcome[1]
            reports.append(report)
            by_genus[report.genus] = by_genus.get(report.genus, 0) + 1
            by_class[report.classification] = \
                by_class.get(report.classification, 0) + 1
            if report.failed:
                violations.append((report.generators, report.failed))
                if config.fail_fast:
                    break
            if report.classification != "regular":
                t = report.torsion_length
                if min_singular_torsion is None or t < min_singular_torsion:
                    min_singular_torsion = t
                if report.deviation == 0:
                    excess = report.torsion_drop \
                        - (report.embedding_dimension - 1) * report.multiplicity
                    if min_ci_excess is None or excess < min_ci_excess:
                        min_ci_excess = excess
    finally:
        if executor is not None:
            executor.shutdown(cancel_futures=True)

    summary = CampaignSummary(
        curves_examined=len(reports) + len(oracle_errors),
        counts_by_genus=tuple(sorted(by_genus.items())),
        counts_by_classification=tuple(sorted(by_class.items())),
        violations=tuple(violations),
        oracle_errors=tuple(oracle_errors),
        min_singular_torsion=min_singular_torsion,
        min_ci_drop_excess=min_ci_excess,
    )
    return summary, reports
