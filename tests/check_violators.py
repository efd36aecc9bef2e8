"""The violator rule of a verify sweep's JSON records.

Usage, from the repository root:

    PYTHONPATH=perfbench python tests/check_violators.py RECORDS COUNT VIOLATORS

RECORDS is the output of `verify --format jsonl`; COUNT and VIOLATORS are
the expected numbers of records and of records that do not all pass.
Every violator fails kaehler_equals_dedekind and nothing else; the
violators are exactly the curves whose Kaehler different differs from
the trace dual's Dedekind different, computed by the reference; and every
curve of deviation <= 1 passes.  Standard library and perfbench's
reference only.
"""

from __future__ import annotations

import json
import sys

from reference import closure, trace_different


def main(path: str, count: int, violating: int) -> None:
    with open(path) as lines:
        records = [json.loads(line) for line in lines]
    assert len(records) == count, len(records)
    violators = [r for r in records if not r["all_pass"]]
    assert len(violators) == violating, len(violators)
    for r in violators:
        failed = [k for k, v in r["checks"].items() if v is False]
        assert failed == ["kaehler_equals_dedekind"], (r["generators"], failed)
    expected = {tuple(r["generators"]) for r in records
                if r["kaehler_different"]
                != trace_different(closure(tuple(r["generators"])))}
    assert {tuple(r["generators"]) for r in violators} == expected
    assert all(r["all_pass"] for r in records if r["deviation"] <= 1)
    print(f"{len(records)} records, {len(violators)} violators, as the "
          f"reference computes them")


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]))
