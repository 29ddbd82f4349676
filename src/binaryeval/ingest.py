"""Parsing of delimiter-separated prediction dumps.

The format is deliberately tiny: UTF-8 text, one record per line, two
fields split on a single-character delimiter, no quoting. Hard-label rows
are ``actual<delim>predicted``, read by :func:`parse_hard_labels` into
:class:`LabeledColumns`, and score rows are ``actual<delim>score``, read
by :func:`parse_scores` into :class:`ScoredColumns`.
Parsing is lenient by default (malformed rows are reported per line and
skipped); ``strict=True`` aborts on the first failure instead.

The source, a ``str`` read in 64 Ki-character slices, a text stream
(anything with ``read``) read in blocks as long, or an iterable of pieces
of whole lines, is read lazily through the standard library's newline
decoder (CR and CRLF read as LF) in chunks of about 64 Ki characters that
end on LF, so only one chunk is worked on at a time and the source is
never joined into one string.
Each chunk is parsed in bulk: its code points are checked to
hold exactly one delimiter per line, labels are matched on those code
points, and scores are split once and checked as a whole column (score
characters, ``float()``, finiteness). A chunk that fails any check is
parsed again row by row, and only that chunk, so each failure carries
its line number and strict mode stops at the first one.

Text that is not UTF-8 fails in either mode: a surrogate code point
(the CLI decodes an invalid byte 0xNN as U+DCNN, ``surrogateescape``)
fails a chunk's bulk checks, and the row loop or the header check raises
:class:`ParseError` at the first line that holds one.
"""

from __future__ import annotations

import io
import math
import re
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
# one chunk's code points, separator indices and field strings are alive
# at a time. On 2x10^5-row inputs, the CLI's peak RSS was 30.9 MB (hard
# labels) and 33.5 MB (scores) with this size, against 35.6 and 36.0 MB
# with 256 Ki-character chunks, and parsing took no longer. A str is read
# in slices, and a text stream (the CLI's open input) in blocks, this long.
_CHUNK_CHARS = 1 << 16

# Each parsed column starts this many bytes long: large enough that glibc
# maps it rather than carving it from the heap, and under the 4 MiB from
# which numpy asks for huge pages. Pages never written cost no memory.
_COLUMN_BYTES = 1 << 20

# A surrogate: an invalid byte 0xNN decoded as U+DCNN, or a lone one that only a str can hold.
_SURROGATE = re.compile("[\ud800-\udfff]")


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
    """Raised in strict mode at the first malformed row, and in either mode at the first line that is not UTF-8."""

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

    A ``str`` is read in slices of ``_CHUNK_CHARS`` characters, and a
    source with a ``read`` method (an open file) in blocks of as many
    until it returns ``""``; a slice or block may end inside a line. Any
    other iterable's elements are pieces of whole lines, read one at a
    time; an element that does not end in CR or LF gets an LF. The pieces
    then read as their concatenation: one newline decoder reads CR and
    CRLF as LF across them, holding back a CR that ends a piece until the
    next shows whether an LF follows. Decoded pieces are gathered until
    they hold ``_CHUNK_CHARS`` characters, and the chunk ends at their
    last LF. The header is the first line of the first chunk.
    """
    if hasattr(source, "read"):
        # A byte stream's b"" ends the blocks too; its bytes then fail the decoder.
        pieces: Iterable[str] = iter(lambda: source.read(_CHUNK_CHARS) or "", "")
    elif isinstance(source, str):
        pieces = (source[start:start + _CHUNK_CHARS] for start in range(0, len(source), _CHUNK_CHARS))
    else:
        pieces = (piece if piece.endswith(("\n", "\r")) else piece + "\n" for piece in source)
    newlines = io.IncrementalNewlineDecoder(None, translate=True)
    pending, size, header = [], 0, has_header
    for piece in map(newlines.decode, pieces):
        pending.append(piece)
        size += len(piece)
        if size < _CHUNK_CHARS:
            continue
        text = "".join(pending)
        end = text.rfind("\n") + 1
        if end:
            yield from _lines(text[:end], header)
            header = False
        pending, size = [text[end:]], len(text) - end
    text = "".join(pending) + newlines.decode("", final=True)
    if text:
        yield from _lines(text if text.endswith("\n") else text + "\n", header)


def _lines(chunk: str, drop_first: bool) -> Iterator[str]:
    """``chunk``, which ends on LF, less its first line if ``drop_first``."""
    if drop_first:
        _check_utf8(chunk[:chunk.find("\n")], 1)
        chunk = chunk[chunk.find("\n") + 1:]
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
    # The columns grow in place, chunk by chunk: per-chunk arrays joined
    # at the end would hold every row twice. They start mapped and grow by
    # remapping: grown by realloc on the heap, a column could move late and
    # leave a hole its size, so peak RSS hung on the checkout's path length.
    positives, score_column, failures = np.empty(_COLUMN_BYTES, dtype=bool), np.empty(_COLUMN_BYTES // 8), []
    labels = scores = read = 0
    for chunk in _chunks(source, cfg.has_header):
        first_line = cfg.has_header + read + 1
        positive, score, rows = _bulk_chunk(chunk, cfg, scored) or _explain_chunk(
            chunk, cfg, scored, first_line, strict, failures
        )
        labels = _append(positives, labels, positive)
        scores = _append(score_column, scores, score)
        read += rows
    positives.resize(labels, refcheck=False)
    score_column.resize(scores, refcheck=False)
    return positives, score_column, ParseReport(read, read - len(failures), tuple(failures))


def _append(column: np.ndarray, size: int, part: np.ndarray) -> int:
    """Write ``part`` after the first ``size`` items of ``column``, resized in place to fit; returns the new size."""
    end = size + part.size
    if end > column.size:
        column.resize(end, refcheck=False)
    column[size:end] = part
    return end


def _bulk_chunk(chunk: str, cfg: InputConfig, scored: bool) -> tuple[np.ndarray, np.ndarray, int] | None:
    """The chunk's label mask, score column and line count, or None unless every row is valid."""
    delimiter, line_end = ord(cfg.delimiter), ord("\n")
    codes = np.array([chunk]).view(np.uint32)  # numpy holds str as UCS-4 code points
    # A surrogate (U+D800-U+DFFF) is left to the row loop; the max gates the costlier test.
    if codes.max() >= 0xD800 and ((codes >> 11) == 0xD800 >> 11).any():
        return None
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
    A row that is not UTF-8 raises :class:`ParseError` in either mode.
    """
    labels: list[bool] = []
    scores: list[float] = []
    rows = chunk.split("\n")
    rows.pop()  # the empty text after the chunk's last LF
    for line_number, row in enumerate(rows, start=first_line):
        if not row.isascii():
            _check_utf8(row, line_number)
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


def _check_utf8(line: str, line_number: int) -> None:
    """Raise :class:`ParseError` at ``line_number`` if ``line`` holds a surrogate; U+DCNN is invalid byte 0xNN."""
    if surrogate := _SURROGATE.search(line):
        code = ord(surrogate.group())
        reason = f"invalid UTF-8 byte 0x{code - 0xDC00:02x}" if 0xDC80 <= code <= 0xDCFF else f"lone surrogate U+{code:04X}"
        raise ParseError(line_number, reason)


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
    digits); an empty input yields empty columns rather than an error.
    """
    positive, score, report = _parse_chunks(source, cfg, strict, scored=True)
    return ScoredColumns._of_own_arrays(score, positive), report


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
