"""Parsing of delimiter-separated prediction dumps.

The format is deliberately tiny: UTF-8 text, one record per line, two
fields split on a single-character delimiter, no quoting. Hard-label rows
are ``actual<delim>predicted``, read by :func:`parse_hard_labels` into
:class:`LabeledColumns`, and score rows are ``actual<delim>score``, read
by :func:`parse_scores` into :class:`ScoredColumns`.
Parsing is lenient by default (malformed rows are counted and skipped);
``strict=True`` aborts on the first failure instead.

The source, a ``str`` read in 64 Ki-character slices or a text stream
(anything whose ``read`` returns ``str``) read in blocks as long, is read
lazily through the standard library's newline decoder (CR and CRLF read
as LF) in chunks of about 64 Ki characters that end on LF, so only one
chunk is worked on at a time and the source is never joined into one string.
Each chunk is checked once, in bulk, and each row gets one verdict:
good, not UTF-8, wrong field count, bad score or unknown label. The
first that applies wins, in that order; a hard-label row's actual label
is judged before its predicted one. The chunk's characters (one byte
each if ASCII, else UCS-4 code points) give the field counts, the label
matches and the UTF-8 check; the scores are read from the chunk by
:func:`binaryeval._decimals.read`, each to the double ``float()`` reads
from it, bit for bit. Flagged rows are counted by kind; only the first
20 are put into words, from their own text and in line order: strict
mode raises :class:`ParseError` at the first, and lenient mode records
them by line. A reason quotes at most 40 characters of a field, then ``...``.

Text that is not UTF-8 fails in either mode: the first line, the header
included, that holds a surrogate code point (the CLI decodes an invalid
byte 0xNN as U+DCNN, ``surrogateescape``) raises :class:`ParseError`.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Iterator, TextIO

import numpy as np

from binaryeval.counts import LabeledColumns, ScoredColumns, _of_own_arrays

# Row verdicts, in rising precedence: a row takes the highest that applies.
_GOOD, _UNKNOWN_PREDICTED, _UNKNOWN_ACTUAL, _NON_FINITE, _MALFORMED, _FIELD_COUNT, _HEADER, _NOT_UTF8 = range(8)
# The kind of reason each verdict of a skipped row is counted under.
_KIND = {_UNKNOWN_PREDICTED: "unknown label", _UNKNOWN_ACTUAL: "unknown label", _NON_FINITE: "non-finite score",
         _MALFORMED: "non-finite or malformed score", _FIELD_COUNT: "expected 2 fields"}
# Lenient mode words this many skipped rows, the first; the rest are only counted.
_MAX_FAILURES = 20
# A reason quotes at most this many characters of a field, then "...".
_MAX_QUOTED = 40

# The text is read in chunks of about this many characters, so at most
# one chunk's characters (one byte each for ASCII text, four otherwise),
# separator indices and per-field arrays are alive at a time; only a
# score that is not a plain decimal (such as 1e-05) is made a string, for
# float(). On 2x10^5-row inputs, the CLI's peak RSS was 30.3 MB (hard
# labels) and 31.9 MB (scores) with this size, against 34.1 and 33.3 MB
# with 256 Ki-character chunks, and parsing took no longer. A str is read
# in slices, and a text stream (the CLI's open input) in blocks, this long.
_CHUNK_CHARS = 1 << 16

# Each parsed column starts this many bytes long: large enough that glibc
# maps it rather than carving it from the heap, and under the 4 MiB from
# which numpy asks for huge pages. Pages never written cost no memory.
_COLUMN_BYTES = 1 << 20


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
        # A surrogate, such as an argv byte that is not UTF-8, could never match UTF-8 input.
        for name in ("delimiter", "positive_label", "negative_label"):
            text = getattr(self, name)
            if text is not None and any("\ud800" <= char <= "\udfff" for char in text):
                raise ValueError(f"{name} must be UTF-8 text, got {text!r}")
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
    """Per-input accounting: every row read is either accepted or skipped.

    ``skipped`` counts the skipped rows per kind of reason, in order of
    first occurrence; the CLI's skip summary prints these counts.
    ``failures`` holds the first 20 skipped rows' line numbers and reasons.
    """

    records_read: int
    records_accepted: int
    failures: tuple[tuple[int, str], ...] = ()
    skipped: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        if self.records_accepted + sum(count for _, count in self.skipped) != self.records_read:
            raise ValueError("accepted + skipped counts must equal records read")


class ParseError(ValueError):
    """Raised in strict mode at the first malformed row, and in either mode at the first line that is not UTF-8."""

    def __init__(self, line_number: int, reason: str) -> None:
        super().__init__(f"line {line_number}: {reason}")
        self.line_number = line_number
        self.reason = reason


def _matches(codes: np.ndarray, is_separator: np.ndarray, separators: np.ndarray, label: str) -> np.ndarray:
    """Which fields equal ``label``, compared character by character.

    Field ``i`` ends just before ``codes[separators[i]]``. A run of the
    label's characters is marked where it ends if a separator or the
    chunk's start comes just before it, and one gather reads the marks.
    """
    marks = np.zeros(codes.size, dtype=bool)
    ends = marks[len(label):]  # ends[i] marks the run codes[i:i + len(label)]
    ends[:1] = True
    ends[1:] = is_separator[:ends.size][:-1]
    for offset, char in enumerate(label):
        ends &= codes[offset:offset + ends.size] == ord(char)
    return marks[separators]


def _chunks(source: str | TextIO) -> Iterator[str]:
    """The lines of ``source`` in chunks of about ``_CHUNK_CHARS`` characters, each ending on LF.

    A ``str`` is read in slices of ``_CHUNK_CHARS`` characters, and a
    source whose ``read`` returns text (an open file) in blocks of as many
    until it returns ``""``. A slice or block may end inside a line or a
    CRLF: one newline decoder reads CR and CRLF as LF across them, and
    each chunk ends at the last LF read so far.
    """
    if isinstance(source, str):
        pieces = (source[start:start + _CHUNK_CHARS] for start in range(0, len(source), _CHUNK_CHARS))
    elif hasattr(source, "read") and isinstance(source.read(0), str):
        pieces = iter(lambda: source.read(_CHUNK_CHARS), "")
    else:
        raise TypeError(f"source must be a str or a text stream (with read), not {type(source).__name__}")
    newlines = io.IncrementalNewlineDecoder(None, translate=True)
    pending: list[str] = []  # what was read after the last LF, joined only once an LF ends it
    for piece in map(newlines.decode, pieces):
        end = piece.rfind("\n") + 1
        if end:
            yield "".join([*pending, piece[:end]])
            pending = []
        pending.append(piece[end:])
    text = "".join(pending) + newlines.decode("", final=True)
    if text:
        yield text if text.endswith("\n") else text + "\n"


def _parse_chunks(
    source: str | TextIO, cfg: InputConfig, strict: bool, scored: bool
) -> tuple[np.ndarray, np.ndarray, ParseReport]:
    """The good rows' two columns and the report, chunk by chunk.

    Score rows, when ``scored``, give the positive mask of their labels
    and their scores; hard-label rows give the positive masks of their
    actual and their predicted labels. The first flagged row is raised as
    :class:`ParseError` when ``strict`` or not UTF-8; else flagged rows
    are counted by kind, and the first ``_MAX_FAILURES`` put into words.
    """
    # The columns grow in place, chunk by chunk: per-chunk arrays joined
    # at the end would hold every row twice. They start mapped and grow by
    # remapping: grown by realloc on the heap, a column could move late and
    # leave a hole its size, so peak RSS hung on the checkout's path length.
    # The bool column is mapped first: the other way round, the score parse's peak RSS rose.
    dtype = np.dtype(np.float64 if scored else bool)
    columns = np.empty(_COLUMN_BYTES, dtype=bool), np.empty(_COLUMN_BYTES // dtype.itemsize, dtype=dtype)
    failures: list[tuple[int, str]] = []
    skipped: dict[str, int] = {}  # in order of first occurrence
    kept = lines = 0
    for chunk in _chunks(source):
        verdict, *parts = _judge(chunk, cfg, scored, header=cfg.has_header and not lines)
        flagged = np.flatnonzero((verdict != _GOOD) & (verdict != _HEADER))
        if flagged.size:
            kinds = verdict[flagged]
            fatal = flagged if strict else flagged[kinds == _NOT_UTF8]
            words = fatal[:1] if fatal.size else flagged[:_MAX_FAILURES - len(failures)]
            rows = chunk.split("\n") if words.size else []
            failures += [(lines + line + 1, _reason(kind, rows[line], cfg.delimiter))
                         for line, kind in zip(words.tolist(), verdict[words].tolist())]
            if fatal.size:
                raise ParseError(*failures[-1])
            values, first, counts = np.unique(kinds, return_index=True, return_counts=True)
            for _, kind, count in sorted(zip(first.tolist(), values.tolist(), counts.tolist())):
                skipped[_KIND[kind]] = skipped.get(_KIND[kind], 0) + count
        for column, part in zip(columns, parts):
            _append(column, kept, part)
        kept += parts[0].size
        lines += verdict.size
    for column in columns:
        column.resize(kept, refcheck=False)
    return *columns, ParseReport(max(lines - cfg.has_header, 0), kept, tuple(failures), tuple(skipped.items()))


def _append(column: np.ndarray, size: int, part: np.ndarray) -> None:
    """Write ``part`` after the first ``size`` items of ``column``, resized in place to fit."""
    end = size + part.size
    if end > column.size:
        column.resize(end, refcheck=False)
    column[size:end] = part


def _judge(chunk: str, cfg: InputConfig, scored: bool, header: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each line's verdict and the good rows' two columns: label mask and scores, or actual and predicted mask.

    The first line is a header when ``header``: it is judged only on being UTF-8.
    """
    delimiter, line_end = ord(cfg.delimiter), ord("\n")
    codes = np.frombuffer(chunk.encode("ascii"), np.uint8) if chunk.isascii() else np.array([chunk]).view(np.uint32)
    # Each temporary is deleted once used: they set the peak RSS of a large input.
    is_separator = codes == delimiter
    is_separator |= codes == line_end
    separators = np.flatnonzero(is_separator)
    positive = _matches(codes, is_separator, separators, cfg.positive_label)
    if cfg.negative_label is not None:
        unknown = ~(positive | _matches(codes, is_separator, separators, cfg.negative_label))
    del is_separator
    # Each line's last field ends at its LF: a row's fields are its LF's and the one before.
    lines = np.flatnonzero(codes[separators] == line_end)
    verdict = np.zeros(lines.size, dtype=np.uint8)
    if cfg.negative_label is not None:
        if not scored:
            verdict[unknown[lines]] = _UNKNOWN_PREDICTED
        verdict[unknown[lines - 1]] = _UNKNOWN_ACTUAL
        del unknown
    if scored:
        positive = positive[lines - 1]
        verdict[separators[lines] - separators[lines - 1] == 1] = _MALFORMED  # an empty score
    verdict[np.diff(lines, prepend=-1) != 2] = _FIELD_COUNT
    if header:
        verdict[0] = _HEADER
    # A surrogate (U+D800-U+DFFF) is not UTF-8; the max gates the costlier test.
    if codes.max() >= 0xD800:
        verdict[np.searchsorted(separators[lines], np.flatnonzero((codes >> 11) == 0xD800 >> 11))] = _NOT_UTF8
    del codes
    if scored:
        # Only rows of two fields with a score not empty hold a score to read.
        has_score = verdict < _MALFORMED
        last = lines[has_score]
        starts, ends = separators[last - 1] + 1, separators[last]
        del separators, lines, last
        return verdict, *_scores(chunk, starts, ends, has_score, verdict, positive)
    if verdict.any():  # keep the good rows' fields, two to a row
        positive = positive[np.repeat(verdict == _GOOD, np.diff(lines, prepend=-1))]
    return verdict, positive[0::2], positive[1::2]


def _scores(
    chunk: str, starts: np.ndarray, ends: np.ndarray, has_score: np.ndarray, verdict: np.ndarray, positive: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The good score rows' label mask and scores; a score outside the grammar or not finite flags its row.

    The rows where ``has_score`` holds their scores in ``chunk[starts:ends]``,
    in order, read by :func:`binaryeval._decimals.read`: NaN marks a score
    outside the grammar, an infinity one past the float range.
    """
    from binaryeval import _decimals  # here, so that no hard-label run pays ~2.6 ms (2 vCPU) to import it

    score = _decimals.read(chunk, starts, ends)
    bad = np.flatnonzero(~np.isfinite(score))
    if bad.size:
        verdict[np.flatnonzero(has_score)[bad]] = np.where(np.isnan(score[bad]), _MALFORMED, _NON_FINITE)
    if not verdict.any():
        return positive, score
    good = verdict == _GOOD
    return positive[good], score[good[has_score]]


def _reason(kind: int, row: str, delimiter: str) -> str:
    """Why ``row``, judged ``kind``, failed, in words: its kind, then the row's detail."""
    if kind == _NOT_UTF8:
        code = next(ord(char) for char in row if "\ud800" <= char <= "\udfff")
        if 0xDC80 <= code <= 0xDCFF:  # U+DCNN is invalid byte 0xNN
            return f"invalid UTF-8 byte 0x{code - 0xDC00:02x}"
        return f"lone surrogate U+{code:04X}"
    fields = row.split(delimiter)
    if kind == _FIELD_COUNT:
        return f"{_KIND[kind]}, got {len(fields)}"
    field = fields[kind != _UNKNOWN_ACTUAL]
    if len(field) > _MAX_QUOTED:
        return f"{_KIND[kind]} {field[:_MAX_QUOTED]!r}..."
    return f"{_KIND[kind]} {field!r}"


def parse_hard_labels(
    source: str | TextIO,
    cfg: InputConfig,
    *,
    strict: bool = False,
) -> tuple[LabeledColumns, ParseReport]:
    """Parse ``actual<delim>predicted`` rows into label columns, in input order."""
    actual, predicted, report = _parse_chunks(source, cfg, strict, scored=False)
    return _of_own_arrays(LabeledColumns, actual=actual, predicted=predicted), report


def parse_scores(
    source: str | TextIO,
    cfg: InputConfig,
    *,
    strict: bool = False,
) -> tuple[ScoredColumns, ParseReport]:
    """Parse ``actual<delim>score`` rows into scored columns, in input order.

    Scores must be finite decimals (plain or scientific notation in ASCII
    digits); an empty input yields empty columns rather than an error.
    """
    positive, score, report = _parse_chunks(source, cfg, strict, scored=True)
    return _of_own_arrays(ScoredColumns, score=score, positive=positive), report
