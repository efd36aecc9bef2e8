"""Spans and counters around the public functions of curvetorsion.

The tracer wraps every public module-level function of the package from
outside and rebinds each wrapper in every package module that holds the
original, so calls made through `from .x import y` names are seen too.
An lru_cache'd function is wrapped outside its cache; its hits come from
cache_info().  The functions called most often are aggregated as counters
instead of spans.  Spans stay in memory until `dump` writes them.

A span is (name, start, end, parent index, self seconds); self time is the
span's duration minus the time spent in traced callees, counters included.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

# The two calls made tens of thousands of times or more per sweep (647k
# integer_rank, 89k recursive factorizations) are counted, not recorded
# one by one; the next most frequent makes about 2400 calls.
COUNTED = frozenset({"linalg.integer_rank", "presentation.factorizations"})
DERIVATIVE_SPANS = ("oracle.exactness_defect",
                    "oracle.genus_via_derivative_spans",
                    "oracle.colength_via_derivative_spans")

# Every per-layer metric, in BENCHMARK.json order.  `trace.*` and
# `campaign.worker_cpu_excess_s` are filled in by the runner, which also
# times the untraced runs.
LAYER_METRICS = {
    "semigroup.enumerate_by_genus.s": "s",
    "semigroup.blowup.calls": "count",
    "semigroup.blowup.hits": "count",
    "presentation.presentation_of.s": "s",
    "presentation.presentation_of.calls": "count",
    "presentation.presentation_of.hits": "count",
    "presentation.blowup_presentation.s": "s",
    "presentation.relations_generate.s": "s",
    "ideals.fitting_minor_degrees.s": "s",
    "ideals.fitting_minor_degrees.calls": "count",
    "ideals.fitting_minor_degrees.distinct": "count",
    "ideals.kaehler_different.calls": "count",
    "ideals.kaehler_different.s": "s",
    "ideals.dedekind_different.s": "s",
    "oracle.torsion_length.s": "s",
    "oracle.torsion_length.calls": "count",
    "oracle.torsion_length.hits": "count",
    "oracle.relative_differential_dims.s": "s",
    "oracle.relation_module_lengths.s": "s",
    "oracle.derivative_spans.s": "s",
    "linalg.integer_rank.calls": "count",
    "linalg.integer_rank.s": "s",
    "linalg.integer_rank.cells": "count",
    "linalg.integer_rank.max_rows": "count",
    "linalg.integer_rank.max_cols": "count",
    "formulas.full_report.self_s": "s",
    "formulas.full_report.max_s": "s",
    "campaign.run_campaign.s": "s",
    "campaign.worker_cpu_excess_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
}


class Tracer:
    """Wraps the package's public functions and records where time goes."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._covered: list[float] = [0.0]
        self.calls: dict[str, int] = {}
        self.seconds: dict[str, float] = {}
        self._depth: dict[str, int] = {}
        self.cached: dict[str, object] = {}
        self.distinct_presentations: set = set()
        self.rank = {"cells": 0, "max_rows": 0, "max_cols": 0}

    def install(self, package: str = "curvetorsion") -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        wrappers = {}
        for module in modules:
            layer = module.__name__.rpartition(".")[2]
            for attr, fn in vars(module).items():
                if attr.startswith("_") or isinstance(fn, type) \
                        or not callable(fn) \
                        or getattr(fn, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if hasattr(fn, "cache_info"):
                    self.cached[name] = fn
                wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        counted = name in COUNTED
        note = {"linalg.integer_rank": self._note_rank,
                "ideals.fitting_minor_degrees":
                    self.distinct_presentations.add}.get(name)
        calls, seconds, depth = self.calls, self.seconds, self._depth
        calls[name], seconds[name], depth[name] = 0, 0.0, 0
        stack, covered, spans = self._stack, self._covered, self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if note is not None:
                note(args[0])
            outer = depth[name] == 0
            depth[name] += 1
            if not counted:
                index = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(index)
            covered.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                depth[name] -= 1
                took = end - start
                inner = covered.pop()
                if not counted:
                    stack.pop()
                    spans[index] = (name, start, end, parent, took - inner)
                if outer:
                    seconds[name] += took
                covered[-1] += took

        return wrapper

    def _wrap_generator(self, name: str, fn):
        """Counts the time spent inside the generator's own steps."""
        self.calls[name], self.seconds[name] = 0, 0.0
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            inner = fn(*args, **kwargs)
            covered = self._covered
            while True:
                covered.append(0.0)
                start = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    took = clock() - start
                    covered.pop()
                    self.seconds[name] += took
                    covered[-1] += took
                yield item

        return wrapper

    def _note_rank(self, rows) -> None:
        n_rows = len(rows)
        n_cols = len(rows[0]) if n_rows else 0
        r = self.rank
        r["cells"] += n_rows * n_cols
        r["max_rows"] = max(r["max_rows"], n_rows)
        r["max_cols"] = max(r["max_cols"], n_cols)

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics this process can measure by itself."""
        inclusive = self.seconds
        self_s: dict[str, float] = {}
        longest: dict[str, float] = {}
        for name, start, end, _, own in self.spans:
            self_s[name] = self_s.get(name, 0.0) + own
            longest[name] = max(longest.get(name, 0.0), end - start)
        out = {}
        for metric in LAYER_METRICS:
            layer, _, field = metric.rpartition(".")
            if field == "calls":
                out[metric] = self.calls.get(layer, 0)
            elif field == "hits":
                fn = self.cached.get(layer)
                out[metric] = fn.cache_info().hits if fn else 0
            elif field == "s":
                out[metric] = inclusive.get(layer, 0.0)
            elif field == "self_s":
                out[metric] = self_s.get(layer, 0.0)
            elif field == "max_s":
                out[metric] = longest.get(layer, 0.0)
            elif layer == "linalg.integer_rank":
                out[metric] = self.rank[field]
        out["oracle.derivative_spans.s"] = sum(
            inclusive.get(n, 0.0) for n in DERIVATIVE_SPANS)
        out["ideals.fitting_minor_degrees.distinct"] = len(
            self.distinct_presentations)
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "calls": self.calls,
                       "seconds": self.seconds,
                       "metrics": self.layer_metrics()}, fh)


def combine(metrics: list[dict[str, float]]) -> dict[str, float]:
    """Per-layer metrics of several traced processes run one after another:
    maxima stay maxima, everything else adds up."""
    out: dict[str, float] = {}
    for m in metrics:
        for key, value in m.items():
            if key.endswith((".max_s", ".max_rows", ".max_cols")):
                out[key] = max(out.get(key, value), value)
            else:
                out[key] = out.get(key, 0) + value
    return out
