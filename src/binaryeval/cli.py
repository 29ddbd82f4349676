"""Command-line entry point: ``evaluate`` and ``roc`` subcommands.

Results go to stdout, diagnostics to stderr. Reports are streamed to
stdout (and the ROC plot to its ``--svg`` file) in chunks, never built
as one string. Exit status is 0 on success, 1 on a validation or parse
failure (strict mode), input that is not UTF-8 or degenerate input, with
nothing written to stdout, and 2 on a usage error. A stdout closed by
its reader ends the run quietly with exit 1. Identical argv and input
bytes produce identical output bytes.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Sequence, TextIO

from binaryeval.counts import from_predictions, threshold_counts
from binaryeval.ingest import InputConfig, InputMode, ParseError, ParseReport, parse_hard_labels, parse_scores
from binaryeval.metrics import all_metrics
from binaryeval.report import EvaluationReport, write_json, write_svg, write_text
from binaryeval.roc import roc_points


# Lenient mode prints this many per-row warnings, then one summary line.
_MAX_ROW_WARNINGS = 20
# The row-specific tail of a failure reason: a field count or a quoted value.
_REASON_DETAIL = re.compile(r", got \d+\Z| ['\"].*\Z")


class _UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("input", help="prediction file, or - for standard input")
    common.add_argument("--positive-label", default="1", metavar="TEXT",
                        help="label text mapped to the positive class (default: 1)")
    common.add_argument("--negative-label", default=None, metavar="TEXT",
                        help="if set, the only accepted negative label; otherwise one-vs-rest")
    common.add_argument("--delimiter", default=",", metavar="CHAR",
                        help="field separator (default: ,)")
    common.add_argument("--header", action="store_true",
                        help="skip one header line")
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default: text)")
    common.add_argument("--zero-division", choices=("undefined", "zero"), default="undefined",
                        help="render undefined metrics as 'undefined' or as 0 (default: undefined)")
    common.add_argument("--strict", action="store_true",
                        help="abort on the first malformed row instead of skipping it")

    parser = argparse.ArgumentParser(
        prog="binaryeval",
        description="Evaluate binary classifier predictions.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    evaluate = sub.add_parser("evaluate", parents=[common],
                              help="confusion matrix and all metrics at one decision rule")
    evaluate.add_argument("--mode", choices=("hard-labels", "scores"), default="hard-labels",
                          help="row layout: actual,predicted or actual,score (default: hard-labels)")
    evaluate.add_argument("--threshold", type=float, default=None, metavar="REAL",
                          help="decision threshold, required with --mode scores")
    roc = sub.add_parser("roc", parents=[common],
                         help="ROC curve and AUC from scored predictions")
    roc.add_argument("--mode", choices=("hard-labels", "scores"), default="scores",
                     help="must be scores for this subcommand")
    roc.add_argument("--svg", default=None, metavar="PATH",
                     help="also write an SVG plot of the curve")
    return parser


def _read_input(path: str) -> str:
    """The input's text: strict UTF-8 with one leading BOM dropped, its line ends left to the parsers."""
    try:
        if path == "-":
            # A text stream standing in for stdin (io.StringIO) has no byte buffer.
            data = getattr(sys.stdin, "buffer", sys.stdin).read()
        else:
            data = Path(path).read_bytes()
    except OSError as exc:
        raise _UsageError(f"cannot open input {path!r}: {exc.strerror or exc}") from None
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogateescape")
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        line_number = exc.object.count(b"\n", 0, exc.start) + 1
        raise ParseError(line_number, f"invalid UTF-8 byte 0x{exc.object[exc.start]:02x}") from None


def _input_config(args: argparse.Namespace, mode: InputMode) -> InputConfig:
    try:
        return InputConfig(
            mode=mode,
            positive_label=args.positive_label,
            negative_label=args.negative_label,
            delimiter=args.delimiter,
            has_header=args.header,
        )
    except ValueError as exc:
        # InputConfig's messages start with the field at fault; name its flag.
        field_name, _, rest = str(exc).partition(" ")
        raise _UsageError(f"--{field_name.replace('_', '-')} {rest}") from None


def _common_meta(args: argparse.Namespace, parse_report: ParseReport) -> dict[str, object]:
    return {
        "input": args.input,
        "mode": args.mode,
        "positive_label": args.positive_label,
        "negative_label": args.negative_label,
        "delimiter": args.delimiter,
        "header": args.header,
        "strict": args.strict,
        "records_read": parse_report.records_read,
        "records_accepted": parse_report.records_accepted,
    }


def _warn_failures(parse_report: ParseReport, err: TextIO) -> None:
    """The first skipped rows with their reasons, then how many of all rows read were skipped, and why.

    The summary counts each kind of reason, in order of first occurrence;
    a reason's kind is the reason without its field count or quoted value.
    """
    failures = parse_report.failures
    for line_number, reason in failures[:_MAX_ROW_WARNINGS]:
        err.write(f"warning: line {line_number}: {reason}\n")
    if failures:
        kinds = Counter(_REASON_DETAIL.sub("", reason) for _, reason in failures)
        why = ", ".join(f"{count} {kind}" for kind, count in kinds.items())
        err.write(f"warning: {len(failures)} of {parse_report.records_read} rows skipped ({why})\n")


def _write_report(report: EvaluationReport, args: argparse.Namespace, out: TextIO) -> None:
    write = write_json if args.format == "json" else write_text
    write(report, out, zero_division=args.zero_division)


def _run_evaluate(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    mode = InputMode(args.mode)
    if mode is InputMode.SCORES and args.threshold is None:
        raise _UsageError("--threshold is required with --mode scores")
    if mode is InputMode.HARD_LABELS and args.threshold is not None:
        raise _UsageError("--threshold is only valid with --mode scores")
    if args.threshold is not None and math.isnan(args.threshold):
        raise _UsageError("--threshold must not be NaN")

    cfg = _input_config(args, mode)
    # The decoded text is not kept in a variable, so it is freed once parsed.
    if mode is InputMode.HARD_LABELS:
        pairs, parse_report = parse_hard_labels(_read_input(args.input), cfg, strict=args.strict)
        counts = from_predictions(pairs)
    else:
        samples, parse_report = parse_scores(_read_input(args.input), cfg, strict=args.strict)
        counts = threshold_counts(samples, args.threshold)
    _warn_failures(parse_report, err)

    meta = _common_meta(args, parse_report)
    meta["threshold"] = args.threshold
    meta["zero_division"] = args.zero_division
    _write_report(EvaluationReport(metrics=all_metrics(counts), meta=meta), args, out)
    return 0


def _run_roc(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    if args.mode != "scores":
        raise _UsageError("--mode must be 'scores' for the roc subcommand")
    cfg = _input_config(args, InputMode.SCORES)
    # The decoded text is not kept in a variable, so it is freed before the sweep and the writers.
    samples, parse_report = parse_scores(_read_input(args.input), cfg, strict=args.strict)
    _warn_failures(parse_report, err)

    try:
        curve = roc_points(samples)
    except ValueError as exc:
        err.write(f"error: {exc}\n")
        return 1

    if args.svg is not None:
        try:
            with open(args.svg, "w", encoding="utf-8") as svg:
                write_svg(curve, f"ROC curve ({args.input})", svg)
        except OSError as exc:
            err.write(f"error: cannot write --svg file {args.svg!r}: {exc.strerror or exc}\n")
            return 1
    _write_report(EvaluationReport(curve=curve, meta=_common_meta(args, parse_report)), args, out)
    return 0


def run(
    argv: Sequence[str] | None = None,
    *,
    stdout: TextIO | None = None,
    stderr: TextIO | None = None,
) -> int:
    """Parse ``argv`` and run one evaluation pipeline; returns the exit status."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            args = parser.parse_args(argv if argv is None else list(argv))
    except SystemExit as exc:
        if isinstance(exc.code, int):
            return exc.code
        return 0 if exc.code is None else 2

    try:
        if args.subcommand == "evaluate":
            return _run_evaluate(args, out, err)
        return _run_roc(args, out, err)
    except _UsageError as exc:
        err.write(f"error: {exc}\n")
        return 2
    except ParseError as exc:
        err.write(f"error: {exc}\n")
        return 1


def main() -> None:
    try:
        status = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout. Point it at devnull, so that the
        # interpreter's last flush of what is buffered does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)
