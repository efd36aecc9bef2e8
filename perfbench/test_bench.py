"""Tests of the benchmark's own checks and tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench

They show that the reference checks accept the program's real output and
that a corrupted record raises the failed count.
"""

from __future__ import annotations

import copy
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import reference
import run
from spans import LAYER_METRICS

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
SMALL_GENUS = 4


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=ENV, cwd=ROOT, timeout=120)


@pytest.fixture(scope="module")
def sweep():
    """A genus <= 4 sweep: records, stderr, exit code and corpus."""
    proc = _run("-m", "curvetorsion", "verify", "--max-genus",
                str(SMALL_GENUS), "--format", "jsonl")
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    return records, proc.stderr, proc.returncode, \
        reference.corpus_by_genus(SMALL_GENUS)


def _failed(sweep, records=None, stderr=None, code=None) -> int:
    recs, err, rc, corpus = sweep
    return reference.check_sweep(
        recs if records is None else records,
        err if stderr is None else stderr,
        rc if code is None else code, corpus)[0]


def test_corpus_follows_a007323():
    corpus = reference.corpus_by_genus(8)
    counts = [sum(1 for g in corpus if reference.closure(g).genus == k)
              for k in range(9)]
    assert tuple(counts) == reference.A007323
    assert len(set(corpus)) == 156


def test_independent_invariants():
    assert reference.trace_different(reference.closure((4, 5, 6, 7))) \
        == reference.WITNESS_TRACE
    assert reference.deviation((4, 5, 6, 7)) == 3
    assert reference.deviation((6, 7, 8, 9, 10, 11)) == 10
    curve = reference.closure((5, 7))
    assert curve.genus == (5 - 1) * (7 - 1) // 2
    assert reference.closure((3, 5, 7)).symmetric is False
    assert reference.relation_count((3, 5, 7)) == 3


def test_real_sweep_passes(sweep):
    assert _failed(sweep) == 0


def test_torsion_off_by_one_fails_the_curve_and_its_transform_source(sweep):
    records = copy.deepcopy(sweep[0])
    target = next(r for r in records if r["generators"] == [2, 3])
    target["torsion_length"] += 1
    # <2,3> fails, and so does every curve whose transform is <2,3>
    sources = sum(1 for r in records if r["blowup_generators"] == [2, 3])
    assert _failed(sweep, records) == 1 + sources


def test_missing_curve_fails(sweep):
    records = [r for r in sweep[0] if r["generators"] != [3, 4, 5]]
    assert _failed(sweep, records) >= 1


def test_extra_violation_fails(sweep):
    records = copy.deepcopy(sweep[0])
    rec = next(r for r in records if r["generators"] == [3, 5, 7])
    rec["checks"]["chain_telescopes"] = False
    rec["all_pass"] = False
    assert _failed(sweep, records) == 1


def test_missing_documented_violation_fails(sweep):
    records = copy.deepcopy(sweep[0])
    rec = next(r for r in records if r["generators"] == [4, 5, 6, 7])
    rec["checks"]["kaehler_equals_dedekind"] = True
    assert _failed(sweep, records) == 1


def test_wrong_exit_code_fails_every_curve(sweep):
    assert _failed(sweep, code=0) == len(sweep[3])


def test_deep_record_checks(tmp_path):
    curves = inputs.deep_sample(1)[:4] + inputs.deep_sample(1)[-4:]
    src, dst = tmp_path / "in.json", tmp_path / "out.json"
    src.write_text(json.dumps(curves))
    proc = _run(str(ROOT / "perfbench" / "child.py"), "deep", str(src),
                str(dst))
    assert proc.returncode == 0, proc.stderr
    records = json.loads(dst.read_text())["records"]
    assert reference.check_reports(curves, records) == (0, [])
    bad = copy.deepcopy(records)
    bad[0]["torsion_length"] += 1
    bad[-1]["blowup_torsion_length"] -= 1
    assert reference.check_reports(curves, bad)[0] == 2
    assert reference.check_reports(curves, records[:-1])[0] == len(curves)


@pytest.mark.parametrize("gens", [(4, 5, 6, 7), (4, 6, 7), (3, 5, 7), (1,)])
def test_analyze_checks(gens):
    proc = _run("-m", "curvetorsion", "analyze", *map(str, gens))
    assert reference.check_analyze(gens, proc.stdout, proc.returncode) == []
    # each of these transforms is a complete intersection, whose torsion
    # is twice its genus
    lines = proc.stdout.splitlines()
    i = next(i for i, line in enumerate(lines)
             if line.startswith("  torsion length"))
    t, t1, drop = map(int, re.findall(r"\d+", lines[i]))
    lines[i] = f"  torsion length {t}, after transform {t1 + 1}, " \
               f"drop {drop - 1}"
    assert reference.check_analyze(gens, "\n".join(lines), proc.returncode)
    other_code = 2 if proc.returncode == 0 else 0
    assert reference.check_analyze(gens, proc.stdout, other_code)


def test_witness_differents_are_checked():
    proc = _run("-m", "curvetorsion", "analyze", "4", "5", "6", "7")
    moved = proc.stdout.replace("derivative different {15+}",
                                "derivative different {16+}")
    assert moved != proc.stdout
    assert reference.check_analyze((4, 5, 6, 7), moved, proc.returncode)


def test_trace_counts_repeat(tmp_path):
    counts = []
    for i in range(2):
        path = tmp_path / f"trace{i}.json"
        proc = _run(str(ROOT / "perfbench" / "child.py"), "--trace",
                    str(path), "cli", "verify", "--max-genus", "5",
                    "--format", "jsonl")
        assert proc.returncode == 2, proc.stderr
        trace = json.loads(path.read_text())
        metrics = trace["metrics"]
        counts.append({k: v for k, v in metrics.items()
                       if not k.endswith((".s", "_s"))})
        assert metrics["linalg.integer_rank.calls"] > 0
        assert metrics["ideals.fitting_minor_degrees.distinct"] \
            <= metrics["ideals.fitting_minor_degrees.calls"]
        spans = trace["spans"]
        for name, start, end, parent, own in spans:
            assert start <= end and -1 <= parent < len(spans)
            assert own <= end - start + 1e-9
    assert counts[0] == counts[1]


def test_benchmark_json_matches_the_runner():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} \
        == LAYER_METRICS
