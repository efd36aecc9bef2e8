"""Command line verifier for monomial curve torsion identities.

Exit codes separate the three failure channels: 0 means every checked
identity held, 2 means at least one identity was violated (a
counterexample), and 1 means the tool could not complete the check
(usage error, invalid input, or an oracle that caught itself computing
nonsense).  Output for a fixed command line is byte-identical across
runs; machine formats keep stdout pure and push summaries to stderr.
"""

from __future__ import annotations

import csv
import json
import sys
from itertools import chain as chained

import click

from .campaign import (_DOMAIN_ERRORS, CampaignConfig, ChainResult,
                       build_chain, run_campaign)
from .formulas import CurveReport, full_report
from .semigroup import enumerate_by_genus, from_generators

_FORMAT_OPTION = click.option(
    "--format", "fmt", type=click.Choice(["human", "jsonl", "csv"]),
    default="human", show_default=True,
    help="Human-readable report, one JSON record per line, or CSV rows.")

_TIEBREAK_OPTION = click.option(
    "--reverse-tiebreak", is_flag=True,
    help="Pick relation representatives from the opposite end of each "
         "tie; all reported lengths must be unchanged.")


@click.group()
def cli() -> None:
    """Verify torsion and length identities for monomial curves.

    Curves are given by the minimal generators of their value semigroup,
    for example: analyze 4 6 7.
    """


def _check_mark(value: bool | None) -> str:
    if value is None:
        return "n/a "
    return "pass" if value else "FAIL"


def _curve_label(generators) -> str:
    return "<" + ",".join(str(g) for g in generators) + ">"


def _csv_label(generators) -> str:
    return " ".join(str(g) for g in generators)


def _human_lines(r: CurveReport):
    yield f"curve {_curve_label(r.generators)}"
    yield (f"  multiplicity {r.multiplicity}, embedding dimension "
           f"{r.embedding_dimension}, genus {r.genus}")
    yield (f"  frobenius {r.frobenius}, conductor {r.conductor}, "
           f"symmetric {'yes' if r.symmetric else 'no'}")
    yield (f"  classification: {r.classification} "
           f"(deviation {r.deviation} -> {r.blowup_deviation})")
    yield (f"  transform {_curve_label(r.blowup_generators)}, "
           f"colength {r.colength}")
    if r.embedding_dimension > 1:
        yield (f"  relations: {len(r.relation_degrees)} of degrees "
               f"{' '.join(str(d) for d in r.relation_degrees)}; "
               f"transform tuple needs {r.blowup_relation_count}")
        yield (f"  derivative different {r.kaehler_different}, "
               f"inverse different gap {r.different_inverse_gap}")
    yield (f"  torsion length {r.torsion_length}, after transform "
           f"{r.blowup_torsion_length}, drop {r.torsion_drop}")
    yield (f"  differential dims over parameter line: {r.differential_total} "
           f"here, {r.blowup_differential_total} after transform")
    if r.blowup_over_rescaled is not None:
        yield (f"  module lengths: blowup/rescaled {r.blowup_over_rescaled}, "
               f"blowup/lifted {r.blowup_over_lifted}, lifted/rescaled "
               f"{r.lifted_over_rescaled}, rescaled/original "
               f"{r.rescaled_over_original}")
    yield "  checks:"
    for name, value in r.checks.items():
        yield f"    {_check_mark(value)} {name}"
    yield f"result: {'PASS' if r.all_pass else 'FAIL'}"


def _verify_line(r: CurveReport) -> str:
    line = (f"{'PASS' if r.all_pass else 'FAIL'} "
            f"{_curve_label(r.generators)} genus {r.genus} "
            f"{r.classification} torsion {r.torsion_length} "
            f"drop {r.torsion_drop}")
    failed = [n for n, ok in r.checks.items() if ok is False]
    if failed:
        line += " [" + " ".join(failed) + "]"
    return line


_CSV_HEADER = ("generators", "classification", "check", "result")


def _csv_rows(reports):
    for r in reports:
        gens = _csv_label(r.generators)
        for name, value in r.checks.items():
            result = "na" if value is None else ("pass" if value else "fail")
            yield gens, r.classification, name, result


def _emit(fmt: str, lines, records, header, rows, notes=()) -> None:
    """Write one command's output in the chosen format.

    lines, records and rows are lazy iterables of the human lines, the
    JSON records and the CSV rows under header; only the chosen format's
    is consumed.  Human lines carry their own closing summary.  Machine
    formats keep stdout pure, so their closing notes go to stderr.
    """
    if fmt == "human":
        for line in lines:
            click.echo(line)
        return
    if fmt == "jsonl":
        for record in records:
            click.echo(json.dumps(record, separators=(", ", ": ")))
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    for line in notes:
        click.echo(line, err=True)


def _summary_lines(summary) -> list[str]:
    lines = [
        f"curves examined: {summary.curves_examined}",
        f"identity violations: {len(summary.violations)}",
        f"oracle errors: {len(summary.oracle_errors)}",
    ]
    for genus, count in summary.counts_by_genus:
        lines.append(f"genus {genus}: {count} curves")
    for label, count in summary.counts_by_classification:
        lines.append(f"class {label}: {count} curves")
    if summary.min_singular_torsion is not None:
        lines.append(f"least torsion among singular curves: "
                     f"{summary.min_singular_torsion}")
    if summary.min_ci_drop_excess is not None:
        lines.append(f"least complete-intersection drop excess: "
                     f"{summary.min_ci_drop_excess}")
    for generators, failed in summary.violations:
        lines.append(f"violated by {_curve_label(generators)}: "
                     + " ".join(failed))
    for generators, message in summary.oracle_errors:
        lines.append(f"oracle error on {_curve_label(generators)}: {message}")
    return lines


@cli.command()
@click.argument("generators", nargs=-1, type=click.IntRange(min=1),
                required=True)
@_FORMAT_OPTION
@_TIEBREAK_OPTION
@click.pass_context
def analyze(ctx, generators: tuple[int, ...], fmt: str,
            reverse_tiebreak: bool) -> None:
    """Verify every applicable identity for one curve."""
    report = full_report(from_generators(generators), reverse_tiebreak)
    _emit(fmt, lines=_human_lines(report),
          records=map(CurveReport.to_dict, [report]),
          header=_CSV_HEADER, rows=_csv_rows([report]))
    if not report.all_pass:
        ctx.exit(2)


@cli.command()
@click.option("--max-genus", type=click.IntRange(min=0), required=True,
              help="Verify every curve with at most this many gaps.")
@click.option("--max-multiplicity", type=click.IntRange(min=1), default=None,
              help="Skip curves of larger multiplicity.")
@click.option("--jobs", type=click.IntRange(min=1), default=1,
              show_default=True, help="Worker processes.")
@click.option("--fail-fast", is_flag=True,
              help="Stop at the first violation or oracle error.")
@_FORMAT_OPTION
@_TIEBREAK_OPTION
@click.pass_context
def verify(ctx, max_genus: int, max_multiplicity: int | None, jobs: int,
           fail_fast: bool, fmt: str, reverse_tiebreak: bool) -> None:
    """Verify the whole corpus up to a genus bound."""
    config = CampaignConfig(max_genus=max_genus,
                            max_multiplicity=max_multiplicity,
                            jobs=jobs, fail_fast=fail_fast,
                            reverse_tiebreak=reverse_tiebreak)
    summary, reports = run_campaign(config)
    notes = _summary_lines(summary)
    _emit(fmt, lines=chained(map(_verify_line, reports), notes),
          records=map(CurveReport.to_dict, reports),
          header=_CSV_HEADER, rows=_csv_rows(reports), notes=notes)
    if summary.oracle_errors:
        ctx.exit(1)
    if summary.violations:
        ctx.exit(2)


@cli.command("enumerate")
@click.option("--max-genus", type=click.IntRange(min=0), required=True,
              help="List every curve with at most this many gaps.")
@click.option("--max-multiplicity", type=click.IntRange(min=1), default=None,
              help="Skip curves of larger multiplicity.")
@_FORMAT_OPTION
def enumerate_cmd(max_genus: int, max_multiplicity: int | None,
                  fmt: str) -> None:
    """List the corpus of curves up to a genus bound."""
    counts: dict[int, int] = {}

    def corpus():
        for S in enumerate_by_genus(max_genus):
            if max_multiplicity is None or S.multiplicity <= max_multiplicity:
                counts[S.genus] = counts.get(S.genus, 0) + 1
                yield S

    def totals():
        for g, c in sorted(counts.items()):
            yield f"genus {g}: {c} curves"
        yield f"total: {sum(counts.values())} curves"

    _emit(fmt,
          lines=chained((f"{_curve_label(S.min_generators)} genus {S.genus} "
                         f"multiplicity {S.multiplicity} embdim {S.embdim}"
                         + (" symmetric" if S.is_symmetric else "")
                         for S in corpus()), totals()),
          records=({"generators": list(S.min_generators),
                    "genus": S.genus,
                    "multiplicity": S.multiplicity,
                    "embedding_dimension": S.embdim,
                    "symmetric": S.is_symmetric} for S in corpus()),
          header=("generators", "genus", "multiplicity",
                  "embedding_dimension", "symmetric"),
          rows=((_csv_label(S.min_generators), S.genus, S.multiplicity,
                 S.embdim, "yes" if S.is_symmetric else "no")
                for S in corpus()),
          notes=totals())


@cli.command()
@click.argument("generators", nargs=-1, type=click.IntRange(min=1),
                required=True)
@_FORMAT_OPTION
@_TIEBREAK_OPTION
@click.pass_context
def chain(ctx, generators: tuple[int, ...], fmt: str,
          reverse_tiebreak: bool) -> None:
    """Transform down to a regular curve, telescoping the formula drops."""
    S = from_generators(generators)
    result: ChainResult = build_chain(S, reverse_tiebreak)
    notes = [f"telescoped drops: {result.telescoped_total}",
             f"torsion length at start: {result.start_torsion}"]
    steps = result.steps
    _emit(fmt,
          lines=chained((f"{_curve_label(s.generators)} {s.classification}: "
                         f"{s.formula_name} predicts drop {s.formula_drop}"
                         for s in steps), notes,
                        ["telescopes: "
                         + ("yes" if result.telescopes else "NO")]),
          records=({"generators": list(s.generators),
                    "classification": s.classification,
                    "formula": s.formula_name,
                    "drop": s.formula_drop} for s in steps),
          header=("generators", "classification", "formula", "drop"),
          rows=((_csv_label(s.generators), s.classification, s.formula_name,
                 s.formula_drop) for s in steps),
          notes=notes)
    if not result.telescopes:
        ctx.exit(2)


def main(argv=None) -> None:
    """Entry point mapping every failure to the documented exit codes.

    Violations exit 2; anything that keeps the tool from finishing the
    check (bad usage, invalid curve, oracle failure) exits 1.  Click's
    own usage handling would exit 2, so it is remapped here.
    """
    try:
        code = cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Abort:
        click.echo("error: aborted", err=True)
        sys.exit(1)
    except click.ClickException as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        sys.exit(1)
    except _DOMAIN_ERRORS as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    sys.exit(code if isinstance(code, int) else 0)
