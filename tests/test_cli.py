"""Command line behavior: formats, exit codes, determinism."""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import curvetorsion
from curvetorsion import (different_inverse_gap, from_generators, full_report,
                          kaehler_different)
from oracles import run_cli

GOLDEN = json.loads(
    (Path(__file__).resolve().parent / "golden_cli.json").read_text())


def test_analyze_human_output():
    code, out, err = run_cli("analyze", "2", "3")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "curve <2,3>"
    assert "  multiplicity 2, embedding dimension 2, genus 1" in lines
    assert "  classification: stable CI (deviation 0 -> 0)" in lines
    assert "  transform <1>, colength 1" in lines
    assert "  relations: 1 of degrees 6; transform tuple needs 1" in lines
    assert "  derivative different {3, 5+}, inverse different gap 0" in lines
    assert "  torsion length 2, after transform 0, drop 2" in lines
    assert ("  module lengths: blowup/rescaled 1, blowup/lifted 0, "
            "lifted/rescaled 1, rescaled/original 4") in lines
    assert "    pass torsion_routes_match" in lines
    assert "    n/a  aci_torsion_formula" in lines
    assert lines[-1] == "result: PASS"


def test_analyze_jsonl_output():
    code, out, err = run_cli("analyze", "3", "4", "5", "--format", "jsonl")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["generators"] == [3, 4, 5]
    assert record["classification"] == "nice ACI"
    assert record["torsion_length"] == 5
    assert record["torsion_drop"] == 5
    assert record["different_inverse_gap"] == 1
    assert record["checks"]["nice_aci_drop_formula"] is True
    assert record["checks"]["ci_torsion_formula"] is None
    assert record["all_pass"] is True
    assert record["relation_degrees"] == [8, 9, 10]
    assert record["blowup_relation_count"] == 2
    assert record["kaehler_different"] == "{8+}"


def test_analyze_csv_output():
    code, out, err = run_cli("analyze", "2", "3", "--format", "csv")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "generators,classification,check,result"
    assert lines[1] == "2 3,stable CI,torsion_routes_match,pass"
    assert len(lines) == 1 + 22
    assert "2 3,stable CI,aci_torsion_formula,na" in lines


def test_analyze_violation_exits_two():
    code, out, _ = run_cli("analyze", "4", "5", "6", "7", "--format", "jsonl")
    assert code == 2
    record = json.loads(out)
    assert record["all_pass"] is False
    assert record["checks"]["kaehler_equals_dedekind"] is False


@pytest.mark.parametrize("entry", GOLDEN, ids=lambda e: " ".join(e["argv"]))
def test_golden_transcripts(entry):
    assert run_cli(*entry["argv"]) == \
        (entry["exit_code"], entry["stdout"], entry["stderr"])


def test_human_rendering_reads_only_the_record(monkeypatch):
    report = full_report(from_generators((3, 4, 5)))
    # full_report filled the memos in front of the minor search; empty them
    # so that a recomputation at render time reaches the tripwire below
    kaehler_different.cache_clear()
    different_inverse_gap.cache_clear()

    def no_minor_search(pres):
        raise AssertionError("minor search at render time")

    monkeypatch.setattr("curvetorsion.cli.full_report",
                        lambda S, reverse_tiebreak=False: report)
    monkeypatch.setattr("curvetorsion.ideals.fitting_minor_degrees",
                        no_minor_search)
    argv = ["analyze", "3", "4", "5", "--format", "human"]
    expected = next(e for e in GOLDEN if e["argv"] == argv)
    code, out, err = run_cli(*argv)
    assert (code, out, err) == (0, expected["stdout"], "")
    assert "  relations: 3 of degrees 8 9 10; transform tuple needs 2" \
        in out.splitlines()
    assert "  derivative different {8+}, inverse different gap 1" \
        in out.splitlines()


def test_analyze_rejects_non_semigroup():
    code, out, err = run_cli("analyze", "2", "4")
    assert code == 1 and out == ""
    assert "error: not a numerical semigroup: gcd 2 != 1" in err


def test_usage_errors_exit_one():
    for argv in [("analyze", "0", "3"), ("analyze",), ("bogus",),
                 ("verify",), ("verify", "--max-genus", "-1"), ()]:
        code, _, err = run_cli(*argv)
        assert code == 1, argv
        assert err.startswith("error:"), argv


def test_help_exits_zero():
    code, out, _ = run_cli("--help")
    assert code == 0
    assert "analyze" in out and "verify" in out
    code, out, _ = run_cli("verify", "--help")
    assert code == 0
    assert "--max-genus" in out


def test_verify_all_pass():
    code, out, err = run_cli("verify", "--max-genus", "2")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "PASS <1> genus 0 regular torsion 0 drop 0"
    assert "PASS <3,4,5> genus 2 nice ACI torsion 5 drop 5" in lines
    assert "curves examined: 4" in lines
    assert "identity violations: 0" in lines
    assert "oracle errors: 0" in lines
    assert "least torsion among singular curves: 2" in lines
    assert "least complete-intersection drop excess: 0" in lines


def test_verify_reports_counterexamples_and_exits_two():
    code, out, _ = run_cli("verify", "--max-genus", "3")
    assert code == 2
    lines = out.splitlines()
    assert ("FAIL <4,5,6,7> genus 3 other torsion 9 drop 9 "
            "[kaehler_equals_dedekind]") in lines
    assert "identity violations: 1" in lines
    assert "violated by <4,5,6,7>: kaehler_equals_dedekind" in lines


def test_verify_jsonl_keeps_stdout_machine_clean():
    code, out, err = run_cli("verify", "--max-genus", "2", "--format", "jsonl")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["generators"] for r in records] == [[1], [2, 3], [2, 5],
                                                  [3, 4, 5]]
    assert "curves examined: 4" in err


def test_verify_csv_row_per_curve_per_identity():
    code, out, err = run_cli("verify", "--max-genus", "3", "--format", "csv")
    assert code == 2
    lines = out.splitlines()
    assert lines[0] == "generators,classification,check,result"
    assert len(lines) == 1 + 8 * 22
    assert "4 5 6 7,other,kaehler_equals_dedekind,fail" in lines
    assert "identity violations: 1" in err


def test_verify_parallel_output_is_identical():
    serial = run_cli("verify", "--max-genus", "3", "--format", "jsonl")
    parallel = run_cli("verify", "--max-genus", "3", "--format", "jsonl",
                       "--jobs", "2")
    assert serial == parallel


def test_output_is_deterministic_across_runs():
    for argv in [("analyze", "4", "6", "7", "--format", "jsonl"),
                 ("verify", "--max-genus", "3", "--format", "csv"),
                 ("enumerate", "--max-genus", "4", "--format", "jsonl")]:
        assert run_cli(*argv) == run_cli(*argv)


def test_reverse_tiebreak_leaves_reports_unchanged():
    plain = run_cli("analyze", "3", "4", "5", "--format", "jsonl")
    flipped = run_cli("analyze", "3", "4", "5", "--format", "jsonl",
                      "--reverse-tiebreak")
    assert plain == flipped
    assert run_cli("verify", "--max-genus", "2") == \
        run_cli("verify", "--max-genus", "2", "--reverse-tiebreak")


def test_enumerate_human():
    code, out, err = run_cli("enumerate", "--max-genus", "3")
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "<1> genus 0 multiplicity 1 embdim 1 symmetric",
        "<2,3> genus 1 multiplicity 2 embdim 2 symmetric",
        "<2,5> genus 2 multiplicity 2 embdim 2 symmetric",
        "<3,4,5> genus 2 multiplicity 3 embdim 3",
        "<2,7> genus 3 multiplicity 2 embdim 2 symmetric",
        "<3,4> genus 3 multiplicity 3 embdim 2 symmetric",
        "<3,5,7> genus 3 multiplicity 3 embdim 3",
        "<4,5,6,7> genus 3 multiplicity 4 embdim 4",
        "genus 0: 1 curves",
        "genus 1: 1 curves",
        "genus 2: 2 curves",
        "genus 3: 4 curves",
        "total: 8 curves",
    ]


def test_enumerate_full_corpus_count():
    code, out, _ = run_cli("enumerate", "--max-genus", "8")
    assert code == 0
    assert "total: 156 curves" in out.splitlines()


def test_enumerate_jsonl_summary_goes_to_stderr():
    code, out, err = run_cli("enumerate", "--max-genus", "3", "--format",
                             "jsonl")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 8
    assert records[0] == {"generators": [1], "genus": 0, "multiplicity": 1,
                          "embedding_dimension": 1, "symmetric": True}
    assert "total: 8 curves" in err


def test_enumerate_multiplicity_filter():
    code, out, _ = run_cli("enumerate", "--max-genus", "4",
                           "--max-multiplicity", "2")
    assert code == 0
    curves = [line for line in out.splitlines() if line.startswith("<")]
    assert curves == [
        "<1> genus 0 multiplicity 1 embdim 1 symmetric",
        "<2,3> genus 1 multiplicity 2 embdim 2 symmetric",
        "<2,5> genus 2 multiplicity 2 embdim 2 symmetric",
        "<2,7> genus 3 multiplicity 2 embdim 2 symmetric",
        "<2,9> genus 4 multiplicity 2 embdim 2 symmetric",
    ]


def test_chain_human():
    code, out, err = run_cli("chain", "4", "6", "7")
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "<4,6,7> stable CI: stable_ci_drop predicts drop 8",
        "<2,3> stable CI: stable_ci_drop predicts drop 2",
        "telescoped drops: 10",
        "torsion length at start: 10",
        "telescopes: yes",
    ]


def test_chain_of_regular_curve():
    code, out, _ = run_cli("chain", "1")
    assert code == 0
    assert out.splitlines() == [
        "telescoped drops: 0",
        "torsion length at start: 0",
        "telescopes: yes",
    ]


def test_chain_csv():
    code, out, err = run_cli("chain", "3", "5", "7", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "generators,classification,formula,drop",
        "3 5 7,nice ACI,nice_aci_drop,5",
        "2 3,stable CI,stable_ci_drop,2",
    ]
    assert "telescoped drops: 7" in err
    assert "torsion length at start: 7" in err


def test_chain_jsonl():
    code, out, err = run_cli("chain", "4", "6", "7", "--format", "jsonl")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert records == [
        {"generators": [4, 6, 7], "classification": "stable CI",
         "formula": "stable_ci_drop", "drop": 8},
        {"generators": [2, 3], "classification": "stable CI",
         "formula": "stable_ci_drop", "drop": 2},
    ]
    assert "telescoped drops: 10" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "curvetorsion", "analyze", "2", "3"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "result: PASS" in proc.stdout


_POOL_PROBE = """
import sys
from curvetorsion.cli import main
codes = []
for argv in (["analyze", "3", "5", "7"], ["verify", "--max-genus", "3"]):
    try:
        main(argv)
    except SystemExit as exc:
        codes.append(exc.code)
pool = [m for m in ("multiprocessing", "concurrent.futures")
        if m in sys.modules]
print(codes, pool, file=sys.stderr)
"""


def test_serial_commands_never_load_the_process_pool():
    """Only --jobs > 1 imports the process pool; a serial analyze or
    verify must not pay for multiprocessing and concurrent.futures."""
    src = str(Path(curvetorsion.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else src + os.pathsep + path)
    proc = subprocess.run([sys.executable, "-c", _POOL_PROBE],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    # analyze exits 0; verify exits 2 on the violation of <4,5,6,7>
    assert proc.stderr.splitlines()[-1] == "[0, 2] []"


@pytest.mark.skipif(shutil.which("curvetorsion") is None,
                    reason="no curvetorsion executable on PATH "
                           "(package not installed)")
def test_console_script_is_installed():
    exe = shutil.which("curvetorsion")
    assert exe is not None
    proc = subprocess.run([exe, "chain", "2", "3"], capture_output=True,
                          text=True)
    assert proc.returncode == 0
    assert "telescopes: yes" in proc.stdout


def test_console_script_target_runs(capsys):
    """The declared [project.scripts] target works without an install."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"curvetorsion": "curvetorsion.cli:main"}
    module_name, _, attribute = scripts["curvetorsion"].partition(":")
    entry = getattr(importlib.import_module(module_name), attribute)
    with pytest.raises(SystemExit) as exit_info:
        entry(["chain", "2", "3"])
    assert exit_info.value.code == 0
    assert "telescopes: yes" in capsys.readouterr().out
