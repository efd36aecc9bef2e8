"""Corpus verification campaigns.

A campaign enumerates every numerical semigroup up to a genus bound,
builds the full report for each, and streams the outcomes in enumeration
order as they are done.  A Tally counts identity violations and oracle
failures separately as they pass: a violated identity is a mathematical
counterexample, a failed oracle is a broken computation, and the two must
never be conflated.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator

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


class Tally:
    """Counts a campaign's outcomes as they stream past: the curves
    examined, reports by genus and by classification, violations and oracle
    errors in order, the least singular torsion and CI drop excess."""

    def __init__(self) -> None:
        self.curves_examined = 0
        self.counts_by_genus: Counter[int] = Counter()
        self.counts_by_classification: Counter[str] = Counter()
        self.violations: list[tuple[tuple[int, ...], tuple[str, ...]]] = []
        self.oracle_errors: list[tuple[tuple[int, ...], str]] = []
        self.min_singular_torsion = self.min_ci_drop_excess = None

    def reports(self, outcomes: Iterable) -> Iterator[CurveReport]:
        """The reports among a campaign's (generators, outcome) pairs, each
        pair counted as it passes."""
        for generators, r in outcomes:
            self.curves_examined += 1
            if isinstance(r, str):
                self.oracle_errors.append((generators, r))
                continue
            self.counts_by_genus[r.genus] += 1
            self.counts_by_classification[r.classification] += 1
            if r.failed:
                self.violations.append((r.generators, r.failed))
            if r.classification != "regular":
                t = r.torsion_length
                if self.min_singular_torsion is None \
                        or t < self.min_singular_torsion:
                    self.min_singular_torsion = t
                if r.deviation == 0:
                    excess = r.torsion_drop \
                        - (r.embedding_dimension - 1) * r.multiplicity
                    if self.min_ci_drop_excess is None \
                            or excess < self.min_ci_drop_excess:
                        self.min_ci_drop_excess = excess
            yield r


def _examine(args: tuple[tuple[int, ...], bool]):
    """Worker: one curve's generators and report, or domain error message."""
    generators, reverse_tiebreak = args
    try:
        return generators, full_report(from_generators(generators),
                                       reverse_tiebreak)
    except DomainError as exc:
        return generators, f"{type(exc).__name__}: {exc}"


def run_campaign(max_genus: int, max_multiplicity: int | None = None,
                 jobs: int = 1, fail_fast: bool = False,
                 reverse_tiebreak: bool = False
                 ) -> Iterator[tuple[tuple[int, ...], CurveReport | str]]:
    """Verify every curve of corpus(max_genus, max_multiplicity).

    Yields (generators, outcome) in enumeration order as each curve is
    done: its CurveReport, or the message of the domain error that stopped
    it.  With fail_fast the stream ends right after the first violation or
    error.  Order and content are deterministic for given settings.
    """
    curves = [(S.min_generators, reverse_tiebreak)
              for S in corpus(max_genus, max_multiplicity)]
    # a worker without a curve would be forked for nothing
    workers = min(jobs, len(curves))
    if workers > 1:
        # imported here so that serial runs never load the pool stack
        # (multiprocessing, socket, pickle, subprocess, logging)
        from concurrent.futures import ProcessPoolExecutor
        executor = ProcessPoolExecutor(max_workers=workers)
        results = executor.map(_examine, curves, chunksize=4)
    else:
        executor = None
        results = map(_examine, curves)
    try:
        for generators, outcome in results:
            yield generators, outcome
            if fail_fast and (isinstance(outcome, str) or outcome.failed):
                return
    finally:
        if executor is not None:
            executor.shutdown(cancel_futures=True)
