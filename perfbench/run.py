"""Benchmark of the curvetorsion verifier.

    python3 perfbench/run.py --workload deep-lowembdim --seed 1 \
        --seconds 25 --trace 0

Run from a checkout of the repository; the program is imported from its
`src/`.  Every repetition runs in a fresh child process, because each
layer caches in process-global lru_caches.  Rounds are repeated while the
next one, taking as long as the last, still ends within --seconds; the
first round always runs.  Every output is checked by reference.py, and
the last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics.  --trace 1 runs the workload once
with spans.Tracer installed and once without, reports the per-layer
metrics and the tracing overhead, and writes every span to
perfbench/out/trace-<workload>-seed<seed>.json.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import inputs
import reference
from spans import LAYER_METRICS, combine

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CHILD = str(HERE / "child.py")
PROGRAM = [sys.executable, "-m", "curvetorsion"]
SWEEP = ["verify", "--max-genus", str(inputs.SWEEP_GENUS), "--format",
         "jsonl"]
WORKLOADS = ("sweep-g8", "sweep-g8-jobs2", "deep-lowembdim", "analyze-cli")
SETUP_SPAWNS = 11
# The whole run, set-up and checks included, has to end within 180 s.
DEADLINE_S = 170.0

END_TO_END = {"curves_per_s": "1/s", "latency_median_s": "s", "cpu_s": "s",
              "peak_rss_mib": "MiB", "setup_s": "s"}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


@dataclass
class Round:
    """One repetition: operations attempted and failed, and its figures.

    latencies and cpus hold one entry per call into the program: one
    `verify` for a sweep, one `full_report` for the deep set (cpus then
    holds the child's CPU once), one `analyze` process for analyze-cli.
    rss is the largest peak RSS of the round's processes, in MiB.
    """

    attempted: int
    failed: int
    wall: float
    latencies: list[float]
    cpus: list[float]
    rss: float
    trace: dict | None = None
    problems: list[str] = field(default_factory=list)


class Runner:
    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + DEADLINE_S
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (
            os.pathsep + path if path else ""))
        # the program's bytecode is cached, as for any user, whatever the
        # caller's environment says
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.tag = f"{workload}-seed{seed}"

    def spawn(self, argv: list[str], name: str
              ) -> tuple[int, float, float, float]:
        """Run argv to its end: exit code, wall seconds, and the CPU seconds
        and peak RSS in MiB of the child and the descendants it waited for.
        Output goes to out/<name>.out and .err.

        The child is reaped with a blocking wait4: Popen.wait(timeout)
        polls with sleeps of up to 50 ms, which would round every time.
        """
        with open(OUT / f"{name}.out", "w") as out, \
                open(OUT / f"{name}.err", "w") as err:
            start = time.perf_counter()
            # a session of its own, so that a late child is killed together
            # with its pool workers
            proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT,
                                    start_new_session=True)
            late = threading.Event()

            def stop() -> None:
                late.set()
                os.killpg(proc.pid, signal.SIGKILL)

            timer = threading.Timer(max(self.deadline - time.monotonic(),
                                        1.0), stop)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        if late.is_set():
            raise BenchError(f"{' '.join(argv)} ran past the deadline")
        return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024)

    def output(self, name: str, stream: str = "out") -> str:
        return (OUT / f"{name}.{stream}").read_text()

    # -- set-up --------------------------------------------------------------

    def check_program(self) -> None:
        if not (SRC / "curvetorsion" / "__init__.py").is_file():
            raise BenchError(f"no curvetorsion package under {SRC}")
        probe = "import curvetorsion.cli, curvetorsion; " \
                "print(curvetorsion.__file__)"
        code = self.spawn([sys.executable, "-c", probe], "probe")[0]
        where = Path(self.output("probe").strip() or ".").resolve()
        if code != 0 or SRC not in where.parents:
            raise BenchError(f"curvetorsion does not import from {SRC}: "
                             f"{self.output('probe', 'err')[-300:]}")

    def setup_s(self) -> float:
        """Median wall time of a fresh interpreter importing the CLI."""
        times = []
        for _ in range(SETUP_SPAWNS):
            code, wall, _, _ = self.spawn(
                [sys.executable, "-c", "import curvetorsion.cli"], "setup")
            if code != 0:
                raise BenchError("importing curvetorsion.cli failed")
            times.append(wall)
        return statistics.median(times)

    # -- rounds --------------------------------------------------------------

    @functools.cached_property
    def corpus(self) -> list[tuple[int, ...]]:
        return reference.corpus_by_genus(inputs.SWEEP_GENUS)

    @functools.cached_property
    def deep_curves(self) -> list[tuple[int, ...]]:
        return inputs.deep_sample(self.seed)

    @functools.cached_property
    def analyze_curves(self) -> list[tuple[int, ...]]:
        return inputs.analyze_sample(self.seed)

    def sweep_round(self, jobs: int = 1, traced: bool = False) -> Round:
        corpus = self.corpus
        name = f"{self.tag}-sweep{jobs}" + ("-traced" if traced else "")
        if traced:
            argv = [sys.executable, CHILD, "--trace", str(OUT / name),
                    "cli", *SWEEP]
        else:
            argv = PROGRAM + SWEEP + (["--jobs", str(jobs)] if jobs > 1
                                      else [])
        code, wall, cpu, rss = self.spawn(argv, name)
        records, whole = [], []
        for line in self.output(name).splitlines():
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                whole.append(f"not a JSON record: {line[:80]!r}")
        failed, problems = reference.check_sweep(
            records, self.output(name, "err"), code, corpus)
        if whole:
            failed, problems = len(corpus), whole + problems
        return Round(len(corpus), failed, wall, [wall], [cpu],
                     rss, self.load_trace(name) if traced else None,
                     problems)

    def deep_round(self, traced: bool = False) -> Round:
        curves = self.deep_curves
        name = f"{self.tag}-deep" + ("-traced" if traced else "")
        src, dst = OUT / f"{name}.in.json", OUT / f"{name}.json"
        src.write_text(json.dumps(curves))
        argv = [sys.executable, CHILD] + (
            ["--trace", str(OUT / name)] if traced else []) + [
            "deep", str(src), str(dst)]
        code, wall, cpu, rss = self.spawn(argv, name)
        if code != 0:
            tail = self.output(name, "err")[-300:]
            return Round(len(curves), len(curves), wall, [wall], [cpu], rss,
                         None,
                         [f"exit code {code}: {tail}"])
        result = json.loads(dst.read_text())
        failed, problems = reference.check_reports(curves, result["records"])
        return Round(len(curves), failed, result["loop_s"],
                     result["times"], [cpu], rss,
                     self.load_trace(name) if traced else None, problems)

    def analyze_round(self, traced: bool = False) -> Round:
        curves = self.analyze_curves
        latencies, cpus, rss, traces, problems = [], [], [], [], []
        failed = 0
        for i, gens in enumerate(curves):
            name = f"{self.tag}-analyze{i}" + ("-traced" if traced else "")
            args = ["analyze", *map(str, gens)]
            argv = ([sys.executable, CHILD, "--trace", str(OUT / name),
                     "cli"] if traced else PROGRAM) + args
            code, wall, cpu, peak = self.spawn(argv, name)
            latencies.append(wall)
            cpus.append(cpu)
            rss.append(peak)
            if traced:
                traces.append(self.load_trace(name))
            found = reference.check_analyze(gens, self.output(name), code)
            if found:
                failed += 1
                problems.append(f"{reference.label(gens)}: {found}")
        trace = None
        if traced:
            trace = {"metrics": combine([t["metrics"] for t in traces]),
                     "processes": traces}
        return Round(len(curves), failed, sum(latencies), latencies, cpus,
                     max(rss), trace, problems)

    def load_trace(self, name: str) -> dict:
        path = OUT / name
        trace = json.loads(path.read_text())
        path.unlink()
        return trace

    def workload_curves(self) -> list[tuple[int, ...]]:
        """The workload's curves, made before any round is timed."""
        if self.workload == "deep-lowembdim":
            return self.deep_curves
        if self.workload == "analyze-cli":
            return self.analyze_curves
        return self.corpus

    def one_round(self, traced: bool = False) -> Round:
        if self.workload == "sweep-g8":
            return self.sweep_round(1, traced)
        if self.workload == "sweep-g8-jobs2":
            return self.sweep_round(1 if traced else 2, traced)
        if self.workload == "deep-lowembdim":
            return self.deep_round(traced)
        return self.analyze_round(traced)

    def rounds(self) -> list[Round]:
        """Whole rounds while the next one is expected to fit in the run."""
        self.workload_curves()
        done = []
        start = time.monotonic()
        while True:
            began = time.monotonic()
            done.append(self.one_round())
            r = done[-1]
            print(f"round {len(done)}: {r.attempted} operations in "
                  f"{r.wall:.3f} s, {sum(r.cpus):.3f} CPU s", file=sys.stderr)
            now = time.monotonic()
            if now - start + (now - began) > self.seconds:
                return done

    # -- the two kinds of run ------------------------------------------------

    def end_to_end(self) -> tuple[list[Round], dict[str, float]]:
        setup = self.setup_s()
        done = self.rounds()
        latencies = [x for r in done for x in r.latencies]
        cpus = [x for r in done for x in r.cpus]
        return done, {
            "curves_per_s": sum(r.attempted for r in done)
            / sum(r.wall for r in done),
            "latency_median_s": statistics.median(latencies),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mib": max(r.rss for r in done),
            "setup_s": setup,
        }

    def per_layer(self) -> tuple[list[Round], dict[str, float]]:
        pooled = self.workload == "sweep-g8-jobs2"
        traced = self.one_round(traced=True)
        # the traced run is serial, so its overhead is taken against a
        # serial sweep here too
        plain = self.sweep_round(1) if pooled else self.one_round()
        done = [traced, plain]
        metrics = dict(traced.trace["metrics"])
        metrics["campaign.worker_cpu_excess_s"] = 0.0
        if pooled:
            done.append(self.sweep_round(2))
            metrics["campaign.worker_cpu_excess_s"] = \
                done[-1].cpus[0] - plain.cpus[0]
        metrics["trace.overhead_s"] = traced.wall - plain.wall
        metrics["trace.overhead_pct"] = 100 * (traced.wall - plain.wall) \
            / plain.wall
        path = OUT / f"trace-{self.tag}.json"
        path.write_text(json.dumps({
            "workload": self.workload, "seed": self.seed,
            "traced_wall_s": traced.wall, "untraced_wall_s": plain.wall,
            "metrics": metrics, "trace": traced.trace}))
        print(f"spans written to {path.relative_to(ROOT)}", file=sys.stderr)
        return done, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description="curvetorsion benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    runner = Runner(args.workload, args.seed, args.seconds)
    try:
        OUT.mkdir(exist_ok=True)
        runner.check_program()
        if args.trace:
            done, values = runner.per_layer()
            units = LAYER_METRICS
        else:
            done, values = runner.end_to_end()
            units = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r.attempted for r in done)
    failed = sum(r.failed for r in done)
    for r in done:
        for problem in r.problems[:20]:
            print(f"check failed: {problem}", file=sys.stderr)
    print(f"{args.workload}: {len(done)} rounds, {attempted} operations, "
          f"{failed} failed", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
