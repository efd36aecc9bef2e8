"""Corpus verification campaigns and transform chains.

A campaign enumerates every numerical semigroup up to a genus bound,
builds the full report for each, and tallies identity violations and
oracle failures separately: a violated identity is a mathematical
counterexample, a failed oracle is a broken computation, and the two must
never be conflated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import FormulaNotApplicable, OracleError
from .formulas import CurveReport, _chain_drops, full_report
from .ideals import IdealError
from .oracle import torsion_length
from .presentation import PresentationError, classify_transform
from .semigroup import NumericalSemigroup, SemigroupError, \
    enumerate_by_genus, from_generators

# Failures of the computation rather than of an identity: a sweep records
# them per curve, and the command line exits 1 on them.
_DOMAIN_ERRORS = (SemigroupError, PresentationError, IdealError, OracleError,
                  FormulaNotApplicable)


@dataclass(frozen=True)
class ChainStep:
    """One transform step with the formula-side drop prediction."""

    generators: tuple[int, ...]
    classification: str
    formula_name: str
    formula_drop: int


@dataclass(frozen=True)
class ChainResult:
    """A full transform chain down to a regular curve.

    The formula drops are summed without consulting the torsion oracle on
    any intermediate curve; telescoping against the starting torsion is
    therefore a real test, not bookkeeping.
    """

    steps: tuple[ChainStep, ...]
    start_torsion: int
    telescoped_total: int

    @property
    def telescopes(self) -> bool:
        return self.start_torsion == self.telescoped_total


def build_chain(S: NumericalSemigroup,
                reverse_tiebreak: bool = False) -> ChainResult:
    """Transform repeatedly until regular, collecting formula drops."""
    steps = tuple(ChainStep(T.min_generators, classify_transform(T), name,
                            drop)
                  for T, name, drop in _chain_drops(S, reverse_tiebreak))
    return ChainResult(steps, torsion_length(S, reverse_tiebreak).length,
                       sum(s.formula_drop for s in steps))


def corpus(max_genus: int, max_multiplicity: int | None = None
           ) -> Iterator[NumericalSemigroup]:
    """The curves of genus <= max_genus, in enumeration order, without
    those of multiplicity above max_multiplicity when it is given."""
    for S in enumerate_by_genus(max_genus):
        if max_multiplicity is None or S.multiplicity <= max_multiplicity:
            yield S


@dataclass(frozen=True)
class CampaignConfig:
    max_genus: int
    max_multiplicity: int | None = None
    jobs: int = 1
    fail_fast: bool = False
    reverse_tiebreak: bool = False


@dataclass(frozen=True)
class CampaignSummary:
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

    if config.jobs > 1:
        # imported here so that serial runs never load the pool stack
        # (multiprocessing, socket, pickle, subprocess, logging)
        from concurrent.futures import ProcessPoolExecutor
        executor = ProcessPoolExecutor(max_workers=config.jobs)
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
            failed = tuple(name for name, ok in report.checks.items()
                           if ok is False)
            if failed:
                violations.append((report.generators, failed))
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
