"""The benchmark's workloads, their seeded inputs and a numpy reference for every output.

Nothing here imports binaryeval: the expected tallies, the Mann-Whitney
AUC and the distinct-score count come from the generated arrays alone,
so a wrong answer from the program cannot also be the reference.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# 2e5 rows keeps the slowest command (roc --format json, ~4 s on a 2-core
# VM) at several invocations per run, so a run's median is steady.
ROWS = 200_000
INPUT = "input.csv"
TINY_INPUT = "tiny.csv"


@dataclass(frozen=True)
class Workload:
    """One CLI command line; ``kind`` names the generated input it reads."""

    kind: str
    argv: tuple[str, ...]
    svg: bool = False

    @property
    def subcommand(self) -> str:
        return self.argv[0]

    def svg_name(self, input_name: str) -> str | None:
        return f"{Path(input_name).stem}.svg" if self.svg else None

    def command(self, input_name: str) -> list[str]:
        argv = [input_name if arg == INPUT else arg for arg in self.argv]
        svg = self.svg_name(input_name)
        return argv if svg is None else [*argv, "--svg", svg]


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "roc_distinct": Workload("distinct", ("roc", INPUT, "--format", "json"), svg=True),
    "roc_tied": Workload("tied", ("roc", INPUT)),
    "evaluate_scores": Workload(
        "distinct", ("evaluate", INPUT, "--mode", "scores", "--threshold", "0.5", "--format", "json")),
    "evaluate_labels": Workload("labels", ("evaluate", INPUT)),
}

POSITIVE_SHARE = 0.3
THRESHOLD = 0.5
# Text reports print metrics and AUC to 6 decimals, the SVG legend to 3.
TEXT_AUC_TOLERANCE = 5e-7 + 1e-12
SVG_AUC_TOLERANCE = 5e-4 + 1e-12
JSON_AUC_TOLERANCE = 1e-12


class CheckFailed(Exception):
    """The program's output disagrees with the reference."""


@dataclass(frozen=True)
class Dataset:
    """One generated input: the arrays and the exact file text the CLI reads."""

    actual: np.ndarray
    score: np.ndarray | None
    predicted: np.ndarray | None
    text: str

    @property
    def rows(self) -> int:
        return int(self.actual.size)


def _file_text(first: list, second: list, fmt: str) -> str:
    return "".join(fmt % pair for pair in zip(first, second))


def generate(kind: str, rows: int, seed: int) -> Dataset:
    """Make ``rows`` rows with 30% positives from ``seed``.

    ``kind`` is ``distinct`` (continuous scores), ``tied`` (the same scores
    rounded to 2 decimals) or ``labels`` (hard predictions: score >= 0.5).
    Scores are written with ``repr`` so the CLI parses back the exact
    floats the reference uses.
    """
    rng = np.random.default_rng(seed)
    actual = np.zeros(rows, dtype=bool)
    actual[rng.permutation(rows)[: round(POSITIVE_SHARE * rows)]] = True
    score = 1.0 / (1.0 + np.exp(-(rng.standard_normal(rows) + actual)))
    labels = actual.astype(np.int8).tolist()
    if kind == "labels":
        predicted = score >= THRESHOLD
        text = _file_text(labels, predicted.astype(np.int8).tolist(), "%d,%d\n")
        return Dataset(actual, None, predicted, text)
    values = score.tolist()
    if kind == "tied":
        values = [round(value, 2) for value in values]
    elif kind != "distinct":
        raise ValueError(f"unknown input kind {kind!r}")
    return Dataset(actual, np.array(values), None, _file_text(labels, values, "%d,%r\n"))


def tiny(kind: str) -> Dataset:
    """The 2-row input used to time interpreter start and imports."""
    actual = np.array([True, False])
    if kind == "labels":
        return Dataset(actual, None, np.array([True, False]), "1,1\n0,0\n")
    return Dataset(actual, np.array([0.75, 0.25]), None, "1,0.75\n0,0.25\n")


@dataclass(frozen=True)
class Expected:
    rows: int
    tallies: dict[str, int] | None
    auc: float | None
    distinct: int | None


def tallies(actual: np.ndarray, predicted: np.ndarray) -> dict[str, int]:
    """Exact confusion counts, in the CLI's key order."""
    return {
        "tp": int(np.count_nonzero(actual & predicted)),
        "fp": int(np.count_nonzero(~actual & predicted)),
        "fn": int(np.count_nonzero(actual & ~predicted)),
        "tn": int(np.count_nonzero(~actual & ~predicted)),
    }


def mann_whitney_auc(score: np.ndarray, actual: np.ndarray) -> tuple[float, int]:
    """AUC as P(positive outscores negative), ties at half credit; and the distinct count.

    Works in doubled integer mid-ranks, so the only rounding is the final
    division, as in the program's pair-count route.
    """
    _, inverse, counts = np.unique(score, return_inverse=True, return_counts=True)
    first_rank = np.cumsum(counts) - counts
    twice_midrank = 2 * first_rank + counts + 1
    positives = int(np.count_nonzero(actual))
    negatives = actual.size - positives
    twice_rank_sum = int(twice_midrank[inverse[actual]].sum())
    twice_u = twice_rank_sum - positives * (positives + 1)
    return twice_u / (2 * positives * negatives), int(counts.size)


def expected(data: Dataset, subcommand: str) -> Expected:
    """What a correct CLI run over ``data`` must report."""
    if subcommand == "roc":
        auc, distinct = mann_whitney_auc(data.score, data.actual)
        return Expected(data.rows, None, auc, distinct)
    predicted = data.predicted if data.score is None else data.score >= THRESHOLD
    return Expected(data.rows, tallies(data.actual, predicted), None, None)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _check_records(meta: dict, exp: Expected) -> None:
    _require(int(meta["records_read"]) == exp.rows, f"records_read {meta['records_read']} != {exp.rows}")
    _require(int(meta["records_accepted"]) == exp.rows,
             f"records_accepted {meta['records_accepted']} != {exp.rows}")


def _check_auc(reported: float, exp: Expected, tolerance: float) -> None:
    _require(abs(reported - exp.auc) <= tolerance,
             f"AUC {reported!r} differs from Mann-Whitney {exp.auc!r} by more than {tolerance}")


def _check_json(text: str, exp: Expected) -> None:
    payload = json.loads(text)
    _check_records(payload["meta"], exp)
    if exp.tallies is not None:
        _require(payload["counts"] == exp.tallies, f"tallies {payload['counts']} != {exp.tallies}")
        return
    points = len(payload["roc"]["points"])
    _require(points == exp.distinct + 1, f"{points} curve points for {exp.distinct} distinct scores")
    _check_auc(payload["roc"]["auc"], exp, JSON_AUC_TOLERANCE)


def _check_text(text: str, exp: Expected) -> None:
    lines = text.splitlines()
    meta = dict(line.split(" ", 1) for line in lines if line.startswith("records_"))
    _check_records(meta, exp)
    if exp.tallies is not None:
        matrix = {}
        for line in lines:
            match = re.fullmatch(r"([PN]) +(\d+) +(\d+)", line)
            if match:
                matrix[match[1]] = (int(match[2]), int(match[3]))
        _require(set(matrix) == {"P", "N"}, "confusion matrix rows missing")
        found = {"tp": matrix["P"][0], "fp": matrix["N"][0], "fn": matrix["P"][1], "tn": matrix["N"][1]}
        _require(found == exp.tallies, f"tallies {found} != {exp.tallies}")
        return
    header = lines.index("fpr tpr threshold")
    _require(lines[-1].startswith("AUC "), "last line is not the AUC")
    points = len(lines) - header - 2
    _require(points == exp.distinct + 1, f"{points} curve points for {exp.distinct} distinct scores")
    _check_auc(float(lines[-1].split()[1]), exp, TEXT_AUC_TOLERANCE)


def _check_svg(svg: str, exp: Expected) -> None:
    polyline = re.search(r'<polyline points="([^"]*)"', svg)
    legend = re.search(r">AUC = ([0-9.]+)<", svg)
    _require(polyline is not None and legend is not None, "SVG lacks the curve or the AUC legend")
    points = polyline[1].count(" ") + 1
    _require(points == exp.distinct + 1, f"{points} SVG points for {exp.distinct} distinct scores")
    _check_auc(float(legend[1]), exp, SVG_AUC_TOLERANCE)


def check_output(stdout: bytes, svg: bytes | None, exp: Expected) -> None:
    """Raise CheckFailed unless the report (and SVG, if any) agrees with ``exp``."""
    try:
        text = stdout.decode("utf-8")
        if text.startswith("{"):
            _check_json(text, exp)
        else:
            _check_text(text, exp)
        if svg is not None:
            _check_svg(svg.decode("utf-8"), exp)
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        raise CheckFailed(f"unparseable output: {exc!r}") from None


def corrupt_tally(stdout: bytes) -> bytes:
    """The same report with one tally off by one: tp if present, else records_accepted."""
    for pattern in (rb'(?m)("tp": |^P +)(\d+)', rb'(?m)("records_accepted": |^records_accepted )(\d+)'):
        corrupted, found = re.subn(pattern, lambda m: m[1] + str(int(m[2]) + 1).encode(), stdout, count=1)
        if found:
            return corrupted
    raise ValueError("report has no tally to corrupt")


class SelfTestFailed(Exception):
    """A benchmark instrument did not catch a fault injected into it."""


class OutputCheck:
    """Checks every output of one command on one input.

    The first output is compared with the reference in full, and must fail
    the comparison once a tally is corrupted. Every later output must
    repeat the first one's sha256 byte for byte.
    """

    def __init__(self, exp: Expected) -> None:
        self._exp = exp
        self._digests: tuple[str, str | None] | None = None

    def __call__(self, stdout: bytes, svg: bytes | None, stdout_sha256: str | None = None) -> None:
        """Check one output; ``stdout_sha256``, if given, is the digest of ``stdout`` taken as it was read."""
        digests = (stdout_sha256 or hashlib.sha256(stdout).hexdigest(),
                   None if svg is None else hashlib.sha256(svg).hexdigest())
        if self._digests is not None:
            _require(digests == self._digests, "output differs from the first run on the same input")
            return
        check_output(stdout, svg, self._exp)
        try:
            check_output(corrupt_tally(stdout), svg, self._exp)
        except CheckFailed:
            pass
        else:
            raise SelfTestFailed("the output check accepted a report with a corrupted tally")
        self._digests = digests
