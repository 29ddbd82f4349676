"""Per-layer trace of the CLI pipeline, recorded from outside the package.

Each traced pipeline is one in-process ``binaryeval.cli.run`` call on the
workload's input, with its own trace id. While it runs, every binding of
each layer's functions inside the binaryeval modules is replaced by a
wrapper that records a span (name, start/end ns, parent, trace id); the
pair-count AUC, which the CLI does not call, is then replayed on the
parsed samples in a span of the same trace. Untraced pipelines alternate
with traced ones, so the trace's own cost is measured too. Spans and
counters stay in memory, are written to a JSON-lines side file at the
end, and every per-layer metric is derived from that file.
"""

from __future__ import annotations

import functools
import gc
import importlib
import io
import itertools
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

from binaryeval import cli, roc

from workloads import INPUT, JSON_AUC_TOLERANCE, CheckFailed, Dataset, Expected, OutputCheck, Workload, expected

# Span name -> the function it times. cli._read_input is private, but it
# is the CLI's whole read stage; when it is absent its time shows in cli.self_s.
LAYERS = {
    "cli.read": ("binaryeval.cli", "_read_input"),
    "ingest.parse_scores": ("binaryeval.ingest", "parse_scores"),
    "ingest.parse_hard_labels": ("binaryeval.ingest", "parse_hard_labels"),
    "counts.apply_threshold": ("binaryeval.counts", "apply_threshold"),
    "counts.from_predictions": ("binaryeval.counts", "from_predictions"),
    "metrics.all_metrics": ("binaryeval.metrics", "all_metrics"),
    "roc.roc_points": ("binaryeval.roc", "roc_points"),
    "report.render_json": ("binaryeval.report", "render_json"),
    "report.render_text": ("binaryeval.report", "render_text"),
    "report.render_svg": ("binaryeval.report", "render_svg"),
}
PAIR_COUNT = "roc.auc_pair_count"
RUN = "cli.run"
UNTRACED_RUN = "untraced.cli.run"
COUNTERS = {
    "ingest.rows_accepted": "count",
    "ingest.rows_rejected": "count",
    "roc.curve_points": "count",
    "roc.auc_route_diff": "auc",
    "report.output_bytes": "bytes",
}
MIN_PIPELINES = 2


class Tracer:
    """Spans and counters of every pipeline, kept in memory until written out."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self.results: dict[str, object] = {}
        self._ids = itertools.count(1)
        self._stack: list[int] = []
        self._trace = 0

    def start_trace(self) -> None:
        self._trace += 1
        self.results.clear()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        span_id = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.records.append({"trace": self._trace, "span": span_id, "parent": parent,
                                 "name": name, "start_ns": start, "end_ns": end})

    def count(self, name: str, value: float) -> None:
        self.records.append({"trace": self._trace, "counter": name, "value": value})

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                value = fn(*args, **kwargs)
            self.results[name] = value
            return value
        return traced


@contextmanager
def patched(tracer: Tracer) -> Iterator[None]:
    """Route every binaryeval binding of each LAYERS function through a span."""
    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "binaryeval"]
    restore = []
    for name, (module_name, attr) in LAYERS.items():
        fn = getattr(importlib.import_module(module_name), attr, None)
        if fn is None:
            continue
        wrapper = tracer.wrap(name, fn)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapper)
                    restore.append((module, key, fn))
    try:
        yield
    finally:
        for module, key, fn in restore:
            setattr(module, key, fn)


def layer_metrics(records: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer medians over the traced pipelines, from the side file's records."""
    spans = [r for r in records if "span" in r]
    seconds: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        seconds[s["trace"]][s["name"]] += (s["end_ns"] - s["start_ns"]) / 1e9
    traced = [by_name for by_name in seconds.values() if RUN in by_name]
    runs = [s for s in spans if s["name"] == RUN]
    self_s = []
    for run in runs:
        # One thread records the spans, so a span's direct children never overlap.
        children_ns = sum(s["end_ns"] - s["start_ns"] for s in spans if s["parent"] == run["span"])
        self_s.append((run["end_ns"] - run["start_ns"] - children_ns) / 1e9)

    def median(values: list[float]) -> float:
        return statistics.median(values) if values else 0.0

    metrics = {f"{name}_s": (median([t[name] for t in traced]), "s") for name in (*LAYERS, PAIR_COUNT, RUN)}
    metrics["cli.self_s"] = (median(self_s), "s")
    untraced = median([by_name[UNTRACED_RUN] for by_name in seconds.values() if UNTRACED_RUN in by_name])
    metrics["trace.overhead_s"] = (metrics["cli.run_s"][0] - untraced, "s")
    for name, unit in COUNTERS.items():
        values = {r["value"] for r in records if r.get("counter") == name}
        if len(values) > 1:
            raise CheckFailed(f"{name} differs between pipelines on one input: {sorted(values)}")
        metrics[name] = (values.pop() if values else 0, unit)
    return metrics


def measure_layers(workload: Workload, data: Dataset, cwd: Path, seconds: float,
                   trace_file: Path) -> tuple[int, list[str], dict[str, tuple[float, str]]]:
    """Alternate traced and untraced in-process pipelines for ``seconds``.

    Returns the pipelines attempted, the failures and the per-layer metrics.
    """
    argv = workload.command(INPUT)
    svg_name = workload.svg_name(INPUT)
    exp = expected(data, workload.subcommand)
    check = OutputCheck(exp)
    tracer = Tracer()

    def pipeline(traced: bool) -> None:
        tracer.start_trace()
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        home = os.getcwd()
        os.chdir(cwd)
        try:
            if traced:
                with patched(tracer), tracer.span(RUN):
                    code = cli.run(argv, stdout=out, stderr=err)
            else:
                with tracer.span(UNTRACED_RUN):
                    code = cli.run(argv, stdout=out, stderr=err)
        finally:
            os.chdir(home)
        if code != 0:
            raise CheckFailed(f"cli.run exited {code}: {err.getvalue()[-500:]}")
        stdout = out.getvalue().encode("utf-8")
        svg = None if svg_name is None else (cwd / svg_name).read_bytes()
        check(stdout, svg)
        if traced:
            _record_counters(tracer, exp, len(stdout) + len(svg or b""))
        tracer.results.clear()

    try:
        pipeline(traced=True)  # warm-up: lazily imported code, allocator arenas
    except CheckFailed as exc:
        return 1, [f"warm-up: {exc}"], {}
    except Exception as exc:  # a crash inside the program, as in the loop below
        return 1, [f"warm-up: cli.run raised {exc!r}"], {}
    tracer.records.clear()

    failures: list[str] = []
    pipelines = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or (pipelines < 2 * MIN_PIPELINES and not failures):
        # Alternate which side goes first so drift over the run hits both alike.
        for traced in (True, False) if pipelines % 4 == 0 else (False, True):
            pipelines += 1
            try:
                pipeline(traced)
            except CheckFailed as exc:
                failures.append(str(exc))
            except Exception as exc:  # a crash inside the program is a failed pipeline
                failures.append(f"cli.run raised {exc!r}")

    trace_file.write_text("".join(json.dumps(r) + "\n" for r in tracer.records), encoding="utf-8")
    records = [json.loads(line) for line in trace_file.read_text(encoding="utf-8").splitlines()]
    try:
        metrics = layer_metrics(records)
    except CheckFailed as exc:
        failures.append(str(exc))
        metrics = {}
    return pipelines, failures, metrics


def _record_counters(tracer: Tracer, exp: Expected, output_bytes: int) -> None:
    """Counts at the layer boundaries, and the pair-count AUC replayed on the parsed samples.

    The replayed AUC must match the curve's trapezoid AUC and the numpy
    Mann-Whitney reference within 1e-12.
    """
    parsed = tracer.results.get("ingest.parse_scores") or tracer.results.get("ingest.parse_hard_labels")
    report = parsed[1]
    tracer.count("ingest.rows_accepted", report.records_accepted)
    tracer.count("ingest.rows_rejected", len(report.failures))
    tracer.count("report.output_bytes", output_bytes)
    curve = tracer.results.get("roc.roc_points")
    if curve is not None:
        with tracer.span(PAIR_COUNT):
            pair_auc = roc.auc_pair_count(parsed[0])
        route_diff = abs(curve.auc - pair_auc)
        if route_diff > JSON_AUC_TOLERANCE or abs(pair_auc - exp.auc) > JSON_AUC_TOLERANCE:
            raise CheckFailed(f"pair-count AUC {pair_auc!r}, trapezoid AUC {curve.auc!r} and "
                              f"Mann-Whitney AUC {exp.auc!r} differ by more than {JSON_AUC_TOLERANCE}")
        tracer.count("roc.curve_points", len(curve.points))
        tracer.count("roc.auc_route_diff", route_diff)
