"""Corpus verification campaigns.

A campaign enumerates every numerical semigroup up to a genus bound,
builds the full report for each, and streams the outcomes in enumeration
order as they are done.  A Tally counts identity violations and oracle
failures separately as they pass: a violated identity is a mathematical
counterexample, a failed oracle is a broken computation, and the two must
never be conflated.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from .errors import DomainError
from .formulas import CurveReport, full_report
from .semigroup import NumericalSemigroup, enumerate_by_genus, from_generators


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


class Tally:
    """Counts a campaign's outcomes as they stream past."""

    def __init__(self) -> None:
        self.by_genus: dict[int, int] = {}
        self.by_class: dict[str, int] = {}
        self.violations, self.oracle_errors = [], []
        self.least_torsion = self.least_excess = None

    def reports(self, outcomes: Iterable) -> Iterator[CurveReport]:
        """The reports among a campaign's (generators, outcome) pairs, each
        pair counted as it passes."""
        for generators, r in outcomes:
            if isinstance(r, str):
                self.oracle_errors.append((generators, r))
                continue
            self.by_genus[r.genus] = self.by_genus.get(r.genus, 0) + 1
            self.by_class[r.classification] = \
                self.by_class.get(r.classification, 0) + 1
            if r.failed:
                self.violations.append((r.generators, r.failed))
            if r.classification != "regular":
                t = r.torsion_length
                if self.least_torsion is None or t < self.least_torsion:
                    self.least_torsion = t
                if r.deviation == 0:
                    excess = r.torsion_drop \
                        - (r.embedding_dimension - 1) * r.multiplicity
                    if self.least_excess is None or excess < self.least_excess:
                        self.least_excess = excess
            yield r

    def summary(self) -> CampaignSummary:
        """The summary of the outcomes counted so far."""
        return CampaignSummary(
            sum(self.by_genus.values()) + len(self.oracle_errors),
            tuple(sorted(self.by_genus.items())),
            tuple(sorted(self.by_class.items())), tuple(self.violations),
            tuple(self.oracle_errors), self.least_torsion, self.least_excess)


def _examine(args: tuple[tuple[int, ...], bool]):
    """Worker: one curve's generators and report, or domain error message."""
    generators, reverse_tiebreak = args
    try:
        return generators, full_report(from_generators(generators),
                                       reverse_tiebreak)
    except DomainError as exc:
        return generators, f"{type(exc).__name__}: {exc}"


def run_campaign(config: CampaignConfig
                 ) -> Iterator[tuple[tuple[int, ...], CurveReport | str]]:
    """Verify every curve in the configured corpus.

    Yields (generators, outcome) in enumeration order as each curve is
    done: its CurveReport, or the message of the domain error that stopped
    it.  With fail_fast the stream ends right after the first violation or
    error.  Order and content are deterministic for a given configuration.
    """
    jobs = [(S.min_generators, config.reverse_tiebreak)
            for S in corpus(config.max_genus, config.max_multiplicity)]
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
        for generators, outcome in results:
            yield generators, outcome
            if config.fail_fast and (isinstance(outcome, str)
                                     or outcome.failed):
                return
    finally:
        if executor is not None:
            executor.shutdown(cancel_futures=True)
