"""Command-line entry point: ``evaluate`` and ``roc`` subcommands.

Results go to stdout as UTF-8, diagnostics to stderr. The parsers read the open
input block by block, never held whole, and reports are streamed to
stdout (and the ROC plot to its ``--svg`` file) in chunks, never built
as one string. Exit status is 0 on success. Each stage raises its
failure, and ``run`` alone writes the ``error:`` line, with nothing on
stdout, and decides the status: 2 on a usage error, such as an input
that cannot be opened or read or a closed stdin, and 1 on a validation
or parse failure (strict mode), input that is not UTF-8 (in either mode;
the parsers name its line), degenerate input or an unwritable ``--svg``
file. ``main`` adds only stdout's own failures, each exit 1: closed
before the run (an ``error:`` line), closed by its reader (quietly) or
failing a write (an ``error:`` line). A stderr closed at the start or
that fails a write changes neither the report nor the status.
Identical argv and input bytes produce identical output bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import math
import os
import sys
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from typing import Callable, ContextManager, Iterator, Sequence, TextIO, TypeVar

from binaryeval.counts import from_predictions, threshold_counts
from binaryeval.ingest import InputConfig, ParseReport, parse_hard_labels, parse_scores
from binaryeval.metrics import all_metrics
from binaryeval.report import write_json, write_svg, write_text
from binaryeval.roc import roc_points


_Columns = TypeVar("_Columns")


class _Failure(Exception):
    """A failed run: ``run`` writes its ``error:`` line and exits 1."""


class _UsageError(_Failure):
    """A failure of the invocation itself: exit 2."""


@contextmanager
def _failing(failure: type[_Failure], doing: str, *errors: type[Exception]) -> Iterator[None]:
    """Raise ``errors`` as ``failure``: ``doing`` and the ``strerror``, else the text, of the error."""
    try:
        yield
    except errors as exc:
        raise failure(f"{doing}: {getattr(exc, 'strerror', None) or exc}") from None


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
        with _failing(_UsageError, f"cannot open input {path!r}", OSError, ValueError):  # ValueError: NUL in the path
            return open(path, encoding="utf-8-sig", errors="surrogateescape", newline="")
    if sys.stdin is None:  # started with fd 0 closed
        raise _UsageError("cannot read input '-': standard input is closed")
    if hasattr(sys.stdin, "reconfigure"):
        # io.UnsupportedOperation: an in-process caller has already read from it.
        with _failing(_UsageError, "cannot read input '-'", io.UnsupportedOperation):
            sys.stdin.reconfigure(encoding="utf-8-sig", errors="surrogateescape", newline="")
    return nullcontext(sys.stdin)


def _parse(
    args: argparse.Namespace, parse: Callable[..., tuple[_Columns, ParseReport]]
) -> tuple[_Columns, ParseReport]:
    """``parse`` of the input named by ``args``; a failed read is a usage error."""
    cfg = _input_config(args)
    with _read_input(args.input) as text, _failing(_UsageError, f"cannot read input {args.input!r}", OSError):
        return parse(text, cfg, strict=args.strict)


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


def _run_evaluate(args: argparse.Namespace, out: TextIO, err: TextIO) -> None:
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


def _run_roc(args: argparse.Namespace, out: TextIO, err: TextIO) -> None:
    samples, parse_report = _parse(args, parse_scores)
    _warn_failures(parse_report, err)

    curve = roc_points(samples)
    # The writers need only the curve: the parsed columns are freed before they run.
    del samples

    if args.svg is not None:
        doing = f"cannot write --svg file {args.svg!r}"
        with _failing(_Failure, doing, OSError, ValueError):
            svg = open(args.svg, "w", encoding="utf-8")
        with _failing(_Failure, doing, OSError), svg:  # a ValueError from write_svg is a bug, not an unwritable file
            write_svg(curve, f"ROC curve ({args.input})", svg)
    _write_report(args, out, curve=curve, meta=_common_meta(args, parse_report))


def run(
    argv: Sequence[str] | None = None,
    *,
    stdout: TextIO | None = None,
    stderr: TextIO | None = None,
) -> int:
    """Parse ``argv``, run one pipeline and return the exit status: the one place a failure becomes an ``error:`` line."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            args = parser.parse_args(argv if argv is None else list(argv))
    except SystemExit as exc:  # argparse exits through ArgumentParser.exit, always with an int
        return exc.code

    try:
        (_run_evaluate if args.subcommand == "evaluate" else _run_roc)(args, out, err)
    except (_Failure, ValueError) as exc:  # ValueError: a ParseError, or degenerate input to roc_points
        err.write(f"error: {exc}\n")
        return 2 if isinstance(exc, _UsageError) else 1
    return 0


def _to_devnull(stream: TextIO) -> None:
    """Point ``stream``'s file descriptor at devnull, so that the interpreter's last flush of what it buffers cannot fail."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


class _Diagnostics:
    """A run's stderr: a failed write (``2>/dev/full``) points fd 2 at devnull and drops the text."""

    def __init__(self, stream: TextIO) -> None:
        self._stream = stream

    def write(self, text: str) -> int:
        try:
            return self._stream.write(text)
        except OSError:
            _to_devnull(self._stream)
            return len(text)


def main() -> None:
    # Started with fd 2 closed, the diagnostics go nowhere and the run is as with it open.
    err = _Diagnostics(open(os.devnull, "w") if sys.stderr is None else sys.stderr)
    if sys.stdout is None:  # started with fd 1 closed
        err.write("error: standard output is closed\n")
        sys.exit(1)
    sys.stdout.reconfigure(encoding="utf-8")  # as the input is read and the --svg file written
    try:
        status = run(stderr=err)
        sys.stdout.flush()
    except OSError as exc:
        # A reader that closed stdout ends the run quietly; any other failed write (a full disk) is an error line.
        if not isinstance(exc, BrokenPipeError):
            err.write(f"error: cannot write output: {exc.strerror or exc}\n")
        _to_devnull(sys.stdout)
        status = 1
    sys.exit(status)
