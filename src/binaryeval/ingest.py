"""Parsing of delimiter-separated prediction dumps.

The format is deliberately tiny: UTF-8 text, one record per line, two
fields split on a single-character delimiter, no quoting. Hard-label rows
are ``actual<delim>predicted``, read by :func:`parse_hard_labels` into
:class:`LabeledColumns`, and score rows are ``actual<delim>score``, read
by :func:`parse_scores` into :class:`ScoredColumns`.
Parsing is lenient by default (malformed rows are reported per line and
skipped); ``strict=True`` aborts on the first failure instead.

The source, a whole ``str`` or an iterable of lines, is read in chunks
of about 256 Ki characters that end on line boundaries, with CR and CRLF
read as LF. Each chunk is parsed in bulk: its code points are checked to
hold exactly one delimiter per line, labels are matched on those code
points, and scores are split once and checked as a whole column (score
characters, ``float()``, finiteness). A chunk that fails any check is
parsed again row by row, and only that chunk, so each failure carries
its line number and strict mode stops at the first one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from binaryeval.counts import LabeledColumns, ScoredColumns


# The score grammar: a text made only of these characters that float()
# accepts, which is plain decimal or scientific notation in ASCII digits.
# It rejects nan/inf spellings, hex, underscores, other scripts' digits
# and locale-specific decimal commas.
_SCORE_CHARS = b"0123456789.+-eE"

# The text is read in chunks of about this many characters, so at most
# one chunk's field strings and code points are alive at a time.
# On 2x10^5-row inputs, 1 Mi-character chunks gave the CLI an 8-20 MB
# higher peak RSS than this size, and ran no faster.
_CHUNK_CHARS = 1 << 18


@dataclass(frozen=True, slots=True)
class InputConfig:
    """How to interpret a prediction file.

    With ``negative_label`` unset, any value other than ``positive_label``
    maps to the negative class (one-vs-rest); when set, only the two
    declared labels are accepted and anything else is a parse failure.
    A rejected configuration raises ValueError whose message starts with
    the name of the field at fault.
    """

    positive_label: str = "1"
    negative_label: str | None = None
    delimiter: str = ","
    has_header: bool = False

    def __post_init__(self) -> None:
        if len(self.delimiter) != 1 or self.delimiter in "\r\n":
            raise ValueError(f"delimiter must be a single character, got {self.delimiter!r}")
        for name in ("positive_label", "negative_label"):
            label = getattr(self, name)
            if label is not None and any(c in label for c in (self.delimiter, "\n", "\r")):
                raise ValueError(f"{name} must not contain the delimiter or a line break, got {label!r}")
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


def _is_positive(field_text: str, cfg: InputConfig) -> bool:
    if cfg.negative_label is not None and field_text not in (cfg.positive_label, cfg.negative_label):
        raise ValueError(f"unknown label {field_text!r}")
    return field_text == cfg.positive_label


def _matches(codes: np.ndarray, ends: np.ndarray, gaps: np.ndarray, label: str) -> np.ndarray:
    """Which fields equal ``label``, compared code point by code point.

    Field ``i`` is ``gaps[i] - 1`` code points long and ends just before
    ``codes[ends[i]]``. A field of another length is unmatched before any
    of its code points is read, so clipping the indices changes no result.
    """
    match = gaps == len(label) + 1
    for back, char in zip(range(len(label), 0, -1), label):
        match &= codes.take(ends - back, mode="clip") == ord(char)
    return match


def _chunks(source: Iterable[str] | str, has_header: bool) -> Iterator[str]:
    """The data lines of ``source`` in chunks of about ``_CHUNK_CHARS`` characters, each ending on LF.

    An iterable's lines are joined, each with its CR/LF ending stripped.
    CR and CRLF read as LF; as a chunk ends on LF, reading them per chunk
    reads them as over the whole text. The header is the first line of
    the first chunk.
    """
    if not isinstance(source, str):
        source = "".join(line.rstrip("\r\n") + "\n" for line in source)
    start = 0
    while start < len(source):
        end = source.find("\n", start + _CHUNK_CHARS) + 1 or len(source)
        chunk = source[start:end]
        if "\r" in chunk:
            chunk = chunk.replace("\r\n", "\n").replace("\r", "\n")
        if not chunk.endswith("\n"):
            chunk += "\n"
        if has_header and not start:
            chunk = chunk[chunk.find("\n") + 1:]
        start = end
        if chunk:
            yield chunk


def _parse_chunks(
    source: Iterable[str] | str, cfg: InputConfig, strict: bool, scored: bool
) -> tuple[np.ndarray, np.ndarray, ParseReport]:
    """The positive mask of the label fields, the score column and the report, chunk by chunk.

    Rows are score rows when ``scored``, else hard-label rows. Label
    fields are both fields of a hard-label row and the first field of a
    score row; hard labels have an empty score column. A chunk that the
    bulk checks reject is explained row by row.
    """
    positives, score_columns, failures = [np.empty(0, dtype=bool)], [np.empty(0)], []
    read = 0
    for chunk in _chunks(source, cfg.has_header):
        first_line = cfg.has_header + read + 1
        positive, score, rows = _bulk_chunk(chunk, cfg, scored) or _explain_chunk(
            chunk, cfg, scored, first_line, strict, failures
        )
        positives.append(positive)
        score_columns.append(score)
        read += rows
    report = ParseReport(read, read - len(failures), tuple(failures))
    return np.concatenate(positives), np.concatenate(score_columns), report


def _bulk_chunk(chunk: str, cfg: InputConfig, scored: bool) -> tuple[np.ndarray, np.ndarray, int] | None:
    """The chunk's label mask, score column and line count, or None unless every row is valid."""
    delimiter, line_end = ord(cfg.delimiter), ord("\n")
    codes = np.array([chunk]).view(np.uint32)  # numpy holds str as UCS-4 code points
    # Each temporary is deleted once used: they set the peak RSS of a large input.
    is_separator = codes == delimiter
    is_separator |= codes == line_end
    separators = np.flatnonzero(is_separator)
    del is_separator
    kinds = codes[separators]
    # Delimiter, line end, delimiter, line end, ...: one delimiter per line.
    if kinds.size % 2 or (kinds[0::2] != delimiter).any() or (kinds[1::2] != line_end).any():
        return None
    del kinds
    # A field's length plus one is its distance from the separator before it.
    step = 2 if scored else 1
    ends, gaps = separators[::step], np.diff(separators, prepend=-1)[::step]
    positive = _matches(codes, ends, gaps, cfg.positive_label)
    if cfg.negative_label is not None and not (positive | _matches(codes, ends, gaps, cfg.negative_label)).all():
        return None
    rows = separators.size // 2
    del codes, separators, ends, gaps
    score = np.empty(0)
    if scored:
        try:
            score = _score_column(chunk.replace("\n", cfg.delimiter).split(cfg.delimiter)[1::2])
        except ValueError:
            return None
    return positive, score, rows


def _explain_chunk(
    chunk: str, cfg: InputConfig, scored: bool, first_line: int, strict: bool, failures: list[tuple[int, str]]
) -> tuple[np.ndarray, np.ndarray, int]:
    """The chunk's label mask, score column and line count, converted row by row.

    A ``ValueError`` from splitting or converting is the row's failure
    reason: raised as :class:`ParseError` when ``strict``, else appended
    to ``failures`` with the row's line number, counted from ``first_line``.
    """
    labels: list[bool] = []
    scores: list[float] = []
    rows = chunk.split("\n")
    rows.pop()  # the empty text after the chunk's last LF
    for line_number, row in enumerate(rows, start=first_line):
        try:
            first, second = _split_row(row, cfg.delimiter)
            if scored:
                score = _parse_score(second)
                labels.append(_is_positive(first, cfg))
                scores.append(score)
            else:
                labels += _is_positive(first, cfg), _is_positive(second, cfg)
        except ValueError as exc:
            if strict:
                raise ParseError(line_number, str(exc)) from None
            failures.append((line_number, str(exc)))
    return np.array(labels, dtype=bool), np.array(scores, dtype=np.float64), len(rows)


def _score_column(texts: list[str]) -> np.ndarray:
    """The scores as ``float64``; ValueError unless every text is a finite score."""
    if not _score_chars_only("".join(texts)):
        raise ValueError("a score holds a character outside the score grammar")
    score = np.fromiter(map(float, texts), dtype=np.float64, count=len(texts))
    if not np.isfinite(score).all():
        raise ValueError("a score is not finite")
    return score


def parse_hard_labels(
    source: Iterable[str] | str,
    cfg: InputConfig,
    *,
    strict: bool = False,
) -> tuple[LabeledColumns, ParseReport]:
    """Parse ``actual<delim>predicted`` rows into label columns, in input order."""
    positive, _, report = _parse_chunks(source, cfg, strict, scored=False)  # actual, predicted, actual, ...
    return LabeledColumns(positive[0::2], positive[1::2]), report


def parse_scores(
    source: Iterable[str] | str,
    cfg: InputConfig,
    *,
    strict: bool = False,
) -> tuple[ScoredColumns, ParseReport]:
    """Parse ``actual<delim>score`` rows into scored columns, in input order.

    Scores must be finite decimals (plain or scientific notation in ASCII
    digits); an empty input yields an empty sequence rather than an error.
    """
    positive, score, report = _parse_chunks(source, cfg, strict, scored=True)
    return ScoredColumns(score, positive), report


def _split_row(row: str, delimiter: str) -> tuple[str, str]:
    fields = row.split(delimiter)
    if len(fields) != 2:
        raise ValueError(f"expected 2 fields, got {len(fields)}")
    return fields[0], fields[1]


def _score_chars_only(text: str) -> bool:
    return text.isascii() and not text.encode("ascii").translate(None, _SCORE_CHARS)


def _parse_score(text: str) -> float:
    """``text`` as a finite score; ValueError unless it is one, by the same test as the bulk path."""
    if _score_chars_only(text):
        try:
            value = float(text)
        except ValueError:
            pass
        else:
            if not math.isfinite(value):
                raise ValueError(f"non-finite score {text!r}")
            return value
    raise ValueError(f"non-finite or malformed score {text!r}")
