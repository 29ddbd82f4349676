"""Parsing of delimiter-separated prediction dumps.

The format is deliberately tiny: UTF-8 text, one record per line, two
fields split on a single-character delimiter, no quoting. Hard-label rows
are ``actual<delim>predicted`` and score rows are ``actual<delim>score``.
Parsing is lenient by default (malformed rows are reported per line and
skipped); ``strict=True`` aborts on the first failure instead.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Iterator, TypeVar

from binaryeval.counts import Label, LabeledPrediction, ScoredSample, binarize


T = TypeVar("T")


class InputMode(Enum):
    HARD_LABELS = "hard-labels"
    SCORES = "scores"


# Plain decimal or scientific notation; rejects nan/inf spellings, hex,
# underscores and locale-specific decimal commas.
_SCORE_PATTERN = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?\Z")


@dataclass(frozen=True, slots=True)
class InputConfig:
    """How to interpret a prediction file.

    With ``negative_label`` unset, any value other than ``positive_label``
    maps to the negative class (one-vs-rest); when set, only the two
    declared labels are accepted and anything else is a parse failure.
    A rejected configuration raises ValueError whose message starts with
    the name of the field at fault.
    """

    mode: InputMode
    positive_label: str = "1"
    negative_label: str | None = None
    delimiter: str = ","
    has_header: bool = False

    def __post_init__(self) -> None:
        if len(self.delimiter) != 1 or self.delimiter in "\r\n":
            raise ValueError(f"delimiter must be a single character, got {self.delimiter!r}")
        if self.negative_label is not None and self.negative_label == self.positive_label:
            raise ValueError("negative_label must differ from the positive label")


@dataclass(frozen=True, slots=True)
class ParseReport:
    """Per-input accounting: every row read is either accepted or a failure."""

    records_read: int
    records_accepted: int
    failures: tuple[tuple[int, str], ...] = field(default=())

    def __post_init__(self) -> None:
        if self.records_accepted + len(self.failures) != self.records_read:
            raise ValueError("accepted + failures must equal records read")


class ParseError(ValueError):
    """Raised in strict mode at the first malformed row, and on input that is not UTF-8."""

    def __init__(self, line_number: int, reason: str) -> None:
        super().__init__(f"line {line_number}: {reason}")
        self.line_number = line_number
        self.reason = reason


def _data_rows(source: Iterable[str] | str, has_header: bool) -> Iterator[tuple[int, str]]:
    """Yield (1-based line number, line) pairs, header counted but skipped.

    Accepts any iterable of lines (file object, list, generator) or a whole
    string. Trailing CR/LF is stripped, so CRLF and LF inputs parse alike.
    """
    if isinstance(source, str):
        # Records are newline-delimited only; splitlines() would also split
        # on form feeds and similar, which are legal inside a label.
        lines = source.split("\n")
        if lines and lines[-1] == "":
            lines.pop()
    else:
        lines = source
    for line_number, line in enumerate(lines, start=1):
        if has_header and line_number == 1:
            continue
        yield line_number, line.rstrip("\r\n")


def _label_for(field_text: str, cfg: InputConfig) -> Label:
    if cfg.negative_label is not None:
        if field_text == cfg.positive_label:
            return Label.POSITIVE
        if field_text == cfg.negative_label:
            return Label.NEGATIVE
        raise ValueError(f"unknown label {field_text!r}")
    return binarize(field_text, cfg.positive_label)


def _parse_rows(
    source: Iterable[str] | str,
    cfg: InputConfig,
    strict: bool,
    convert: Callable[[str, str], T],
) -> tuple[list[T], ParseReport]:
    """Split each data row into two fields and convert them, in input order.

    A ``ValueError`` from splitting or converting is the row's failure
    reason: raised as :class:`ParseError` when ``strict``, else recorded.
    """
    records: list[T] = []
    failures: list[tuple[int, str]] = []
    read = 0
    for line_number, row in _data_rows(source, cfg.has_header):
        read += 1
        try:
            first, second = _split_row(row, cfg.delimiter)
            records.append(convert(first, second))
        except ValueError as exc:
            if strict:
                raise ParseError(line_number, str(exc)) from None
            failures.append((line_number, str(exc)))
    return records, ParseReport(read, len(records), tuple(failures))


def parse_hard_labels(
    source: Iterable[str] | str,
    cfg: InputConfig,
    *,
    strict: bool = False,
) -> tuple[list[LabeledPrediction], ParseReport]:
    """Parse ``actual<delim>predicted`` rows into label pairs, in input order."""
    if cfg.mode is not InputMode.HARD_LABELS:
        raise ValueError("parse_hard_labels requires cfg.mode == InputMode.HARD_LABELS")

    def convert(actual: str, predicted: str) -> LabeledPrediction:
        return LabeledPrediction(actual=_label_for(actual, cfg), predicted=_label_for(predicted, cfg))

    return _parse_rows(source, cfg, strict, convert)


def parse_scores(
    source: Iterable[str] | str,
    cfg: InputConfig,
    *,
    strict: bool = False,
) -> tuple[list[ScoredSample], ParseReport]:
    """Parse ``actual<delim>score`` rows into scored samples, in input order.

    Scores must be finite decimals (plain or scientific notation); an empty
    input yields an empty sequence rather than an error.
    """
    if cfg.mode is not InputMode.SCORES:
        raise ValueError("parse_scores requires cfg.mode == InputMode.SCORES")

    def convert(actual: str, score: str) -> ScoredSample:
        return ScoredSample(score=_parse_score(score), actual=_label_for(actual, cfg))

    return _parse_rows(source, cfg, strict, convert)


def _split_row(row: str, delimiter: str) -> tuple[str, str]:
    fields = row.split(delimiter)
    if len(fields) != 2:
        raise ValueError(f"expected 2 fields, got {len(fields)}")
    return fields[0], fields[1]


def _parse_score(text: str) -> float:
    if not _SCORE_PATTERN.match(text):
        raise ValueError(f"non-finite or malformed score {text!r}")
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite score {text!r}")
    return value
