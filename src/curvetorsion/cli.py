"""Command line verifier for monomial curve torsion identities.

Exit codes separate the three failure channels: 0 means every checked
identity held, 2 means at least one identity was violated (a
counterexample), and 1 means the tool could not complete the check
(usage error, invalid input, or an oracle that caught itself computing
nonsense).  Output for a fixed command line is byte-identical across
runs; machine formats keep stdout pure and push summaries to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import chain as chained

from .campaign import Tally, corpus, run_campaign
from .errors import DomainError
from .formulas import ChainResult, CurveReport, build_chain, full_report
from .semigroup import from_generators


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1 with one line."""

    def error(self, message: str):
        print(f"error: {message}", file=sys.stderr)
        sys.exit(1)


def _at_least(low: int):
    """Argument type: an integer no smaller than low."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{text!r} is not a valid integer") from None
        if value < low:
            raise argparse.ArgumentTypeError(
                f"{value} is not in the range x>={low}")
        return value
    return parse


# (flags, keyword arguments) of argparse options shared by the commands
_GENERATORS = (("generators",), dict(
    nargs="+", type=_at_least(1), metavar="GENERATORS",
    help="Minimal generators of the value semigroup."))
_FORMAT = (("--format",), dict(
    dest="fmt", choices=("human", "jsonl", "csv"), default="human",
    help="Human-readable report, one JSON record per line, or CSV rows "
         "(default: human)."))
_TIEBREAK = (("--reverse-tiebreak",), dict(
    action="store_true",
    help="Pick relation representatives from the opposite end of each "
         "tie; all reported lengths must be unchanged."))
_MAX_MULTIPLICITY = (("--max-multiplicity",), dict(
    type=_at_least(1), default=None,
    help="Skip curves of larger multiplicity."))


def _max_genus(verb: str):
    return (("--max-genus",), dict(
        type=_at_least(0), required=True,
        help=f"{verb} every curve with at most this many gaps."))


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
    if r.failed:
        line += " [" + " ".join(r.failed) + "]"
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
            print(line)
        return
    if fmt == "jsonl":
        import json
        for record in records:
            print(json.dumps(record, separators=(", ", ": ")))
    else:
        import csv
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    # the records stay ahead of the notes when both streams share a file
    sys.stdout.flush()
    for line in notes:
        print(line, file=sys.stderr)


def _summary_lines(tally: Tally):
    """A sweep's closing notes, read once its stream has ended."""
    yield f"curves examined: {tally.curves_examined}"
    yield f"identity violations: {len(tally.violations)}"
    yield f"oracle errors: {len(tally.oracle_errors)}"
    for genus, count in sorted(tally.counts_by_genus.items()):
        yield f"genus {genus}: {count} curves"
    for label, count in sorted(tally.counts_by_classification.items()):
        yield f"class {label}: {count} curves"
    if tally.min_singular_torsion is not None:
        yield (f"least torsion among singular curves: "
               f"{tally.min_singular_torsion}")
    if tally.min_ci_drop_excess is not None:
        yield (f"least complete-intersection drop excess: "
               f"{tally.min_ci_drop_excess}")
    for generators, failed in tally.violations:
        yield f"violated by {_curve_label(generators)}: " + " ".join(failed)
    for generators, message in tally.oracle_errors:
        yield f"oracle error on {_curve_label(generators)}: {message}"


def analyze(args: argparse.Namespace) -> int:
    """Verify every applicable identity for one curve."""
    report = full_report(from_generators(args.generators),
                         args.reverse_tiebreak)
    _emit(args.fmt, lines=_human_lines(report),
          records=map(CurveReport.to_dict, [report]),
          header=_CSV_HEADER, rows=_csv_rows([report]))
    return 0 if report.all_pass else 2


def verify(args: argparse.Namespace) -> int:
    """Verify the whole corpus up to a genus bound."""
    tally = Tally()
    reports = tally.reports(run_campaign(
        args.max_genus, args.max_multiplicity, args.jobs, args.fail_fast,
        args.reverse_tiebreak))
    _emit(args.fmt, lines=chained(map(_verify_line, reports),
                                  _summary_lines(tally)),
          records=map(CurveReport.to_dict, reports),
          header=_CSV_HEADER, rows=_csv_rows(reports),
          notes=_summary_lines(tally))
    return 1 if tally.oracle_errors else 2 if tally.violations else 0


def enumerate_cmd(args: argparse.Namespace) -> int:
    """List the corpus of curves up to a genus bound."""
    counts: dict[int, int] = {}

    def counted():
        for S in corpus(args.max_genus, args.max_multiplicity):
            counts[S.genus] = counts.get(S.genus, 0) + 1
            yield S

    def totals():
        for g, c in sorted(counts.items()):
            yield f"genus {g}: {c} curves"
        yield f"total: {sum(counts.values())} curves"

    _emit(args.fmt,
          lines=chained((f"{_curve_label(S.min_generators)} genus {S.genus} "
                         f"multiplicity {S.multiplicity} embdim {S.embdim}"
                         + (" symmetric" if S.is_symmetric else "")
                         for S in counted()), totals()),
          records=({"generators": list(S.min_generators),
                    "genus": S.genus,
                    "multiplicity": S.multiplicity,
                    "embedding_dimension": S.embdim,
                    "symmetric": S.is_symmetric} for S in counted()),
          header=("generators", "genus", "multiplicity",
                  "embedding_dimension", "symmetric"),
          rows=((_csv_label(S.min_generators), S.genus, S.multiplicity,
                 S.embdim, "yes" if S.is_symmetric else "no")
                for S in counted()),
          notes=totals())
    return 0


def chain(args: argparse.Namespace) -> int:
    """Transform down to a regular curve, telescoping the formula drops."""
    S = from_generators(args.generators)
    result: ChainResult = build_chain(S, args.reverse_tiebreak)
    notes = [f"telescoped drops: {result.telescoped_total}",
             f"torsion length at start: {result.start_torsion}"]
    steps = result.steps
    _emit(args.fmt,
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
    return 0 if result.telescopes else 2


# command name -> (function, its options)
_COMMANDS = {
    "analyze": (analyze, (_GENERATORS, _FORMAT, _TIEBREAK)),
    "verify": (verify, (
        _max_genus("Verify"), _MAX_MULTIPLICITY,
        (("--jobs",), dict(type=_at_least(1), default=1,
                           help="Worker processes (default: 1).")),
        (("--fail-fast",), dict(
            action="store_true",
            help="Stop at the first violation or oracle error.")),
        _FORMAT, _TIEBREAK)),
    "enumerate": (enumerate_cmd, (_max_genus("List"), _MAX_MULTIPLICITY,
                                  _FORMAT)),
    "chain": (chain, (_GENERATORS, _FORMAT, _TIEBREAK)),
}


def _parse(argv) -> tuple:
    """The command function and its parsed arguments.

    The top-level parser only picks the command; the command's own parser
    then reads the rest, options and generators in any order.
    """
    top = _Parser(
        prog="curvetorsion", allow_abbrev=False,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Verify torsion and length identities for monomial "
                    "curves.\n\nCurves are given by the minimal generators "
                    "of their value semigroup,\nfor example: analyze 4 6 7."
                    "\n\ncommands:\n" + "\n".join(
                        f"  {name:<10} {run.__doc__.splitlines()[0]}"
                        for name, (run, _) in _COMMANDS.items()))
    top.add_argument("command", choices=_COMMANDS, metavar="COMMAND",
                     help="One of: " + ", ".join(_COMMANDS) + ".")
    top.add_argument("args", nargs=argparse.REMAINDER, metavar="ARGS",
                     help="The command's arguments; see COMMAND --help.")
    picked = top.parse_args(argv)
    run, options = _COMMANDS[picked.command]
    parser = _Parser(prog=f"curvetorsion {picked.command}",
                     description=run.__doc__, allow_abbrev=False)
    for flags, kwargs in options:
        parser.add_argument(*flags, **kwargs)
    return run, parser.parse_intermixed_args(picked.args)


def main(argv=None) -> None:
    """Entry point mapping every failure to the documented exit codes.

    Violations exit 2; anything that keeps the tool from finishing the
    check (bad usage, invalid curve, oracle failure, an interrupt, a
    closed stdout) exits 1.
    """
    try:
        run, args = _parse(argv)
        code = run(args)
    except (KeyboardInterrupt, EOFError, BrokenPipeError) as exc:
        if isinstance(exc, BrokenPipeError):
            # the output nobody reads would fail again at the exit flush
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: aborted", file=sys.stderr)
        sys.exit(1)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
    sys.exit(code)
