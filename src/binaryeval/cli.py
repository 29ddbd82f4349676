"""Command-line entry point: ``evaluate`` and ``roc`` subcommands.

Results go to stdout, diagnostics to stderr. The parsers read the open
input block by block, never held whole, and reports are streamed to
stdout (and the ROC plot to its ``--svg`` file) in chunks, never built
as one string. Exit status is 0 on success, 1 on a validation or parse
failure (strict mode), input that is not UTF-8 (in either mode; the
parsers name its line), degenerate input or a stdout closed before the
run, with nothing written to stdout, and 2 on a usage error, such as an
input that cannot be opened or read or a closed stdin. A stdout
closed by its reader ends the run quietly with exit 1. Identical argv and input
bytes produce identical output bytes. A stdout pipe is widened to
``_PIPE_BYTES`` where the OS allows it, so that a report streams into the
pipe while its reader drains it.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import math
import os
import sys
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from typing import Callable, ContextManager, Sequence, TextIO, TypeVar

from binaryeval.counts import from_predictions, threshold_counts
from binaryeval.ingest import InputConfig, ParseError, ParseReport, parse_hard_labels, parse_scores
from binaryeval.metrics import all_metrics
from binaryeval.report import write_json, write_svg, write_text
from binaryeval.roc import roc_points


# What a stdout pipe is widened to: Linux's default limit for an unprivileged process.
_PIPE_BYTES = 1 << 20

_Columns = TypeVar("_Columns")


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
    # roc reads only actual,score rows; its meta echo still names the mode.
    roc.set_defaults(mode="scores")
    roc.add_argument("--svg", default=None, metavar="PATH",
                     help="also write an SVG plot of the curve")
    return parser


def _read_input(path: str) -> ContextManager[TextIO]:
    """The input, open as text for the parsers: UTF-8 with one leading BOM dropped.

    An invalid byte 0xNN reads as U+DCNN (``surrogateescape``), which the
    parsers reject at its line, and ``newline=""`` leaves line ends to them
    too. A text stand-in for stdin (``io.StringIO``) is read as it is; a
    stdin already read from cannot be reconfigured, a usage error.
    Standard input is never closed.
    """
    if path != "-":
        try:
            return open(path, encoding="utf-8-sig", errors="surrogateescape", newline="")
        except OSError as exc:
            raise _UsageError(f"cannot open input {path!r}: {exc.strerror or exc}") from None
    if sys.stdin is None:  # started with fd 0 closed
        raise _UsageError("cannot read input '-': standard input is closed")
    if hasattr(sys.stdin, "reconfigure"):
        try:
            sys.stdin.reconfigure(encoding="utf-8-sig", errors="surrogateescape", newline="")
        except io.UnsupportedOperation as exc:  # an in-process caller has already read from it
            raise _UsageError(f"cannot read input '-': {exc}") from None
    return nullcontext(sys.stdin)


def _parse(
    args: argparse.Namespace, parse: Callable[..., tuple[_Columns, ParseReport]]
) -> tuple[_Columns, ParseReport]:
    """``parse`` of the input named by ``args``; a failed read is a usage error."""
    cfg = _input_config(args)
    with _read_input(args.input) as text:
        try:
            return parse(text, cfg, strict=args.strict)
        except OSError as exc:
            raise _UsageError(f"cannot read input {args.input!r}: {exc.strerror or exc}") from None


def _input_config(args: argparse.Namespace) -> InputConfig:
    try:
        return InputConfig(
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
    """The first skipped rows with their reasons, then how many of all rows read were skipped, and why."""
    for line_number, reason in parse_report.failures:
        err.write(f"warning: line {line_number}: {reason}\n")
    if parse_report.skipped:
        why = ", ".join(f"{count} {kind}" for kind, count in parse_report.skipped)
        skipped = parse_report.records_read - parse_report.records_accepted
        err.write(f"warning: {skipped} of {parse_report.records_read} rows skipped ({why})\n")


def _write_report(args: argparse.Namespace, out: TextIO, **parts: object) -> None:
    write = write_json if args.format == "json" else write_text
    write(out, **parts)


def _run_evaluate(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    scored = args.mode == "scores"
    if scored and args.threshold is None:
        raise _UsageError("--threshold is required with --mode scores")
    if not scored and args.threshold is not None:
        raise _UsageError("--threshold is only valid with --mode scores")
    if args.threshold is not None and math.isnan(args.threshold):
        raise _UsageError("--threshold must not be NaN")

    if scored:
        samples, parse_report = _parse(args, parse_scores)
        counts = threshold_counts(samples, args.threshold)
    else:
        pairs, parse_report = _parse(args, parse_hard_labels)
        counts = from_predictions(pairs)
    _warn_failures(parse_report, err)

    metrics = all_metrics(counts)
    if args.zero_division == "zero":
        # The report prints a copy with 0.0 for each undefined metric; the computed set keeps its None.
        undefined = [name for name, value in metrics.as_dict().items() if value is None]
        metrics = dataclasses.replace(metrics, **dict.fromkeys(undefined, 0.0))
    meta = {**_common_meta(args, parse_report), "threshold": args.threshold, "zero_division": args.zero_division}
    _write_report(args, out, metrics=metrics, meta=meta)
    return 0


def _run_roc(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    samples, parse_report = _parse(args, parse_scores)
    _warn_failures(parse_report, err)

    try:
        curve = roc_points(samples)
    except ValueError as exc:
        err.write(f"error: {exc}\n")
        return 1
    # The writers need only the curve: the parsed columns are freed before they run.
    del samples

    if args.svg is not None:
        try:
            with open(args.svg, "w", encoding="utf-8") as svg:
                write_svg(curve, f"ROC curve ({args.input})", svg)
        except OSError as exc:
            err.write(f"error: cannot write --svg file {args.svg!r}: {exc.strerror or exc}\n")
            return 1
    _write_report(args, out, curve=curve, meta=_common_meta(args, parse_report))
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
    except SystemExit as exc:  # argparse exits through ArgumentParser.exit, always with an int
        return exc.code

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


def _widen_stdout_pipe() -> None:
    """Widen a stdout pipe to ``_PIPE_BYTES``, never narrow it; leave stdout as it is where that fails."""
    try:
        import fcntl

        if fcntl.fcntl(1, fcntl.F_GETPIPE_SZ) < _PIPE_BYTES:
            fcntl.fcntl(1, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
    except (ImportError, AttributeError, OSError):
        pass  # no pipe sizes (Windows, macOS), stdout not a pipe (EBADF), or over the pipe quota (EPERM)


def main() -> None:
    if sys.stdout is None:  # started with fd 1 closed
        sys.stderr.write("error: standard output is closed\n")
        sys.exit(1)
    _widen_stdout_pipe()
    try:
        status = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout. Point it at devnull, so that the
        # interpreter's last flush of what is buffered does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)
