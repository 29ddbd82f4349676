"""End-to-end benchmark of the binaryeval CLI, with a traced per-layer run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload roc_distinct --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it runs ``python -m binaryeval ...`` as one child at a
time in a closed loop (the next invocation starts when the previous one
has exited) and reports the end-to-end metrics, with times scaled to a
reference host speed by the calibration job around each child (see
``REFERENCE_CALIBRATION_S``). With ``--trace 1`` it runs
``binaryeval.cli.run`` in this process with spans around each layer's
public functions and reports the per-layer metrics (see tracing.py).
Every output is checked against the numpy reference in workloads.py. The
last line of stdout is one JSON object: correct, attempted, failed and
metrics. See bench/README.md for what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import (INPUT, ROWS, TINY_INPUT, WORKLOADS, CheckFailed, Dataset, OutputCheck,
                       SelfTestFailed, Workload, expected, generate, tiny)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_INVOCATIONS = 3
MIN_SETUP_INVOCATIONS = 20
# Share of the timed loop spent on 2-row invocations, interleaved with the
# main ones so that both sample the same phases of the host.
SETUP_SHARE = 0.2
# 2-row invocations run in blocks of this many between two calibrations.
SETUP_BLOCK = 4
TIMEOUT_S = 60.0

# The speed of a shared host drifts by a third and more, in phases that
# last from seconds to minutes, so medians of raw times differ from run to
# run by more than any bound worth having. Every block of timed children
# is therefore bracketed by runs of calibrate.py, a fixed job that does not
# touch the program, and each child's wall and CPU time is scaled by
# REFERENCE_CALIBRATION_S over the mean of its two calibrations' wall (or
# CPU) times. Reported times are those of a host on which calibrate.py
# takes REFERENCE_CALIBRATION_S, so a change to the program moves them and
# a change in the host's speed mostly does not.
CALIBRATION = Path(__file__).with_name("calibrate.py")
CALIBRATION_CHECKSUM = b"13397\n"
REFERENCE_CALIBRATION_S = 0.3


@dataclass(frozen=True)
class ChildRun:
    ok: bool
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: bytes
    sha256: str
    error: str


class Launcher:
    """The small process that spawns, times and measures every CLI child (see launcher.py)."""

    def __init__(self) -> None:
        script = Path(__file__).with_name("launcher.py")
        self._proc = subprocess.Popen([sys.executable, "-I", str(script)],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        # binaryeval makes no BLAS call, but importing numpy starts OpenBLAS's
        # thread pool; its start-up cost varies with the host's load and
        # was the least steady part of setup_s. One BLAS thread starts no pool.
        self._env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")

    def run(self, argv: list[str], cwd: Path) -> ChildRun:
        stdout_path = cwd / "stdout.bin"
        request = {"argv": argv, "cwd": str(cwd), "env": self._env,
                   "stdout_path": str(stdout_path), "timeout": TIMEOUT_S}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"launcher exited with status {self._proc.wait()}")
        reply = json.loads(reply)
        stdout = stdout_path.read_bytes()
        error = ""
        if reply["timed_out"]:
            error = f"timed out after {TIMEOUT_S} s"
        elif reply["exit"] != 0:
            error = f"exit {reply['exit']}: {(cwd / 'stderr.txt').read_text(errors='replace')[-500:]}"
        return ChildRun(not error, reply["wall_s"], reply["cpu_s"], reply["peak_rss_mb"], stdout,
                        reply["sha256"], error)

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def rss_selftest(launcher: Launcher, cwd: Path) -> None:
    """A small child spawned after a large one must report its own, small, peak RSS.

    Fails if readings were a running maximum over children (RUSAGE_CHILDREN)
    or were floored by the spawner's peak, as when this numpy-laden process
    spawns the children itself.
    """
    large = launcher.run([sys.executable, "-c", "b = b'x' * (192 << 20)"], cwd)
    small = launcher.run([sys.executable, "-c", "pass"], cwd)
    if not (large.ok and small.ok and large.peak_rss_mb >= 192 and small.peak_rss_mb < 32):
        raise SelfTestFailed(f"per-child peak RSS: large child {large.peak_rss_mb:.0f} MB, "
                             f"small child after it {small.peak_rss_mb:.0f} MB")


class Invoker:
    """Runs one CLI command on one input and checks every output."""

    def __init__(self, launcher: Launcher, workload: Workload, cwd: Path, input_name: str,
                 data: Dataset) -> None:
        svg_name = workload.svg_name(input_name)
        self.launcher = launcher
        self.argv = [sys.executable, "-m", "binaryeval", *workload.command(input_name)]
        self.svg = None if svg_name is None else cwd / svg_name
        self.cwd = cwd
        self.check = OutputCheck(expected(data, workload.subcommand))

    def __call__(self) -> ChildRun | str:
        """The run if it succeeded and its output checked out, else the failure."""
        if self.svg is not None:
            self.svg.unlink(missing_ok=True)
        run = self.launcher.run(self.argv, self.cwd)
        if not run.ok:
            return run.error
        try:
            self.check(run.stdout, None if self.svg is None else self.svg.read_bytes(), run.sha256)
        except (CheckFailed, OSError) as exc:
            return f"output check: {exc}"
        return run


def result(attempted: int, failures: list[str], metrics: dict[str, tuple[float, str]]) -> dict:
    for failure in failures[:5]:
        print(f"failure: {failure}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def calibrate(launcher: Launcher, cwd: Path) -> ChildRun:
    """One run of the calibration job; raises if it did not run to the end."""
    run = launcher.run([sys.executable, "-I", str(CALIBRATION)], cwd)
    if not run.ok or run.stdout != CALIBRATION_CHECKSUM:
        raise RuntimeError(f"calibration job failed: {run.error or run.stdout!r}")
    return run


@dataclass(frozen=True)
class Sample:
    """One invocation's wall and CPU time, scaled to the reference host speed."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def measure_cli(launcher: Launcher, workload: Workload, data: Dataset, cwd: Path, seconds: float) -> dict:
    """Closed loop of untraced CLI invocations, interleaved with ones on the 2-row input."""
    main = Invoker(launcher, workload, cwd, INPUT, data)
    setup = Invoker(launcher, workload, cwd, TINY_INPUT, tiny(workload.kind))
    # Warm-up outside the timed loop: compiles .pyc files and reads the input
    # once; the first, full check of each command's output happens here.
    calibrate(launcher, cwd)
    for invoke in (setup, setup, main):
        warm = invoke()
        if isinstance(warm, str):
            return result(1, [f"warm-up: {warm}"], {})

    runs: list[Sample] = []
    setups: list[Sample] = []
    failures: list[str] = []
    before = calibrate(launcher, cwd)

    def block(invoke: Invoker, count: int, sink: list[Sample]) -> None:
        """``count`` invocations, then a calibration; scales them by the two around them."""
        nonlocal before
        outcomes = [invoke() for _ in range(count)]
        after = calibrate(launcher, cwd)
        wall_scale = 2 * REFERENCE_CALIBRATION_S / (before.wall_s + after.wall_s)
        cpu_scale = 2 * REFERENCE_CALIBRATION_S / (before.cpu_s + after.cpu_s)
        before = after
        for outcome in outcomes:
            if isinstance(outcome, str):
                failures.append(outcome)
            else:
                sink.append(Sample(outcome.wall_s * wall_scale, outcome.cpu_s * cpu_scale,
                                   outcome.peak_rss_mb))

    start = time.perf_counter()
    setup_spent = 0.0
    while time.perf_counter() < start + seconds or (len(runs) < MIN_INVOCATIONS and not failures):
        block(main, 1, runs)
        while setup_spent < SETUP_SHARE * (time.perf_counter() - start):
            begun = time.perf_counter()
            block(setup, SETUP_BLOCK, setups)
            setup_spent += time.perf_counter() - begun
    while len(setups) < MIN_SETUP_INVOCATIONS and not failures:
        block(setup, SETUP_BLOCK, setups)

    attempted = len(runs) + len(setups) + len(failures)
    wall = _median([run.wall_s for run in runs])
    return result(attempted, failures, {
        "wall_s": (wall, "s"),
        "cpu_s": (_median([run.cpu_s for run in runs]), "s"),
        "rows_per_s": (data.rows / wall if wall else 0.0, "rows/s"),
        "peak_rss_mb": (_median([run.peak_rss_mb for run in runs]), "MB"),
        "setup_s": (_median([run.wall_s for run in setups]), "s"),
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "binaryeval" / "__init__.py").is_file():
        print(f"error: no binaryeval sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    # On SIGTERM, unwind through the finally below: it stops the launcher
    # after its current child and removes the working directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workload = WORKLOADS[args.workload]
    cwd = WORK / f"run-{os.getpid()}"
    cwd.mkdir(parents=True, exist_ok=True)
    launcher = Launcher()
    try:
        data = generate(workload.kind, ROWS, args.seed)
        (cwd / INPUT).write_text(data.text, encoding="utf-8")
        (cwd / TINY_INPUT).write_text(tiny(workload.kind).text, encoding="utf-8")
        rss_selftest(launcher, cwd)
        if args.trace:
            sys.path.insert(0, str(SRC))
            from tracing import measure_layers

            trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
            outcome = result(*measure_layers(workload, data, cwd, args.seconds, trace_file))
        else:
            outcome = measure_cli(launcher, workload, data, cwd, args.seconds)
    except SelfTestFailed as exc:
        print(f"error: benchmark self-test failed: {exc}", file=sys.stderr)
        return 3
    finally:
        launcher.close()
        shutil.rmtree(cwd, ignore_errors=True)
    print(json.dumps(outcome))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
