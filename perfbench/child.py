"""One benchmark repetition, in a process of its own.

    child.py [--trace FILE] cli ARGS...       curvetorsion.cli.main(ARGS)
    child.py [--trace FILE] deep IN OUT       full_report on IN's curves

`cli` writes the command's stdout and stderr where this process's go and
exits with its code.  `deep` reads a JSON list of generator lists, times
`full_report` over them and writes {"loop_s", "times", "records"} to OUT,
`times` holding the seconds of each call.  With --trace the package is
wrapped by spans.Tracer first, and the spans and per-layer metrics are
written to FILE at the end.
"""

from __future__ import annotations

import json
import sys
import time

import curvetorsion.cli
from curvetorsion import formulas, semigroup

from spans import Tracer


def deep(src: str, dst: str) -> None:
    with open(src) as fh:
        curves = json.load(fh)
    full_report = formulas.full_report
    from_generators = semigroup.from_generators
    clock = time.perf_counter
    reports, times = [], []
    start = clock()
    for gens in curves:
        t = clock()
        reports.append(full_report(from_generators(gens)))
        times.append(clock() - t)
    loop_s = clock() - start
    with open(dst, "w") as fh:
        json.dump({"loop_s": loop_s, "times": times,
                   "records": [r.to_dict() for r in reports]}, fh)


def main(argv: list[str]) -> int:
    tracer = None
    if argv[0] == "--trace":
        trace_path, argv = argv[1], argv[2:]
        tracer = Tracer()
        tracer.install()
    mode, rest = argv[0], argv[1:]
    code = 0
    try:
        if mode == "cli":
            try:
                curvetorsion.cli.main(rest)
            except SystemExit as exc:
                code = exc.code
        elif mode == "deep":
            deep(*rest)
        else:
            raise SystemExit(f"unknown mode {mode!r}")
    finally:
        sys.stdout.flush()
        if tracer is not None:
            tracer.dump(trace_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
