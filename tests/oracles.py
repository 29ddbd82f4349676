"""Reference implementations that tests compare the package against.

They are the straightforward forms of code the package implements another
way, kept here so that a faster or merged production path can be checked
against them.
"""

from __future__ import annotations

import io
import json
import math
import re
from collections import Counter
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

from binaryeval.counts import ConfusionCounts, LabeledColumns, ScoredColumns
from binaryeval.ingest import InputConfig, ParseError, ParseReport
from binaryeval.report import write_json, write_svg, write_text
from binaryeval.roc import RocCurve

T = TypeVar("T")

# The score grammar as one regular expression: plain decimal or scientific
# notation in ASCII digits. It rejects nan/inf spellings, hex, underscores,
# other scripts' digits and locale-specific decimal commas.
SCORE_PATTERN = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?\Z", re.ASCII)
# The row-specific tail of a failure reason: a field count or a quoted value.
# What is left of the reason is its kind.
_REASON_DETAIL = re.compile(r", got \d+\Z| ['\"].*\Z")
# A report holds this many skipped rows' reasons, the first in line order; it counts them all.
MAX_FAILURES = 20
# A reason quotes at most this many characters of a field, then "...".
MAX_QUOTED = 40


def labeled_columns(pairs: Iterable[tuple[bool, bool]]) -> LabeledColumns:
    """``(actual, predicted)`` rows, each true where that label is positive, as the package's columns."""
    pairs = list(pairs)
    return LabeledColumns([actual for actual, _ in pairs], [predicted for _, predicted in pairs])


def scored_columns(samples: Iterable[tuple[float, bool]]) -> ScoredColumns:
    """``(score, positive)`` rows as the package's columns."""
    samples = list(samples)
    return ScoredColumns([score for score, _ in samples], [positive for _, positive in samples])


def tally_pairs(pairs: Iterable[tuple[bool, bool]]) -> ConfusionCounts:
    """``from_predictions`` as one loop over ``(actual, predicted)`` rows, one cell incremented per pair."""
    tp = fp = fn = tn = 0
    for actual, predicted in pairs:
        if actual:
            if predicted:
                tp += 1
            else:
                fn += 1
        elif predicted:
            fp += 1
        else:
            tn += 1
    return ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn)


def apply_threshold(samples: Iterable[tuple[float, bool]], threshold: float) -> list[tuple[bool, bool]]:
    """Turn ``(score, positive)`` rows into ``(actual, predicted)`` ones: predicted iff score >= threshold.

    ``+inf`` predicts everything negative and ``-inf`` everything positive;
    NaN is rejected. Actual labels pass through and order is preserved.
    ``threshold_counts`` is the tally of this, counted over the columns.
    """
    if isinstance(threshold, float) and math.isnan(threshold):
        raise ValueError("threshold must be a real number or +/-inf, not NaN")
    return [(positive, score >= threshold) for score, positive in samples]


def _lines(text: str) -> Iterator[tuple[int, str]]:
    """Yield (1-based line number, line) pairs, CR and CRLF read as LF."""
    # Records are newline-delimited only; splitlines() would also split
    # on form feeds and similar, which are legal inside a label.
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return enumerate(lines, start=1)


def utf8_failure(line: str) -> str | None:
    """Why ``line`` is not UTF-8, or None: its first character UTF-8 cannot encode, as the byte it escapes if any."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError as exc:
        char = line[exc.start]
        try:
            return f"invalid UTF-8 byte 0x{char.encode('utf-8', 'surrogateescape')[0]:02x}"
        except UnicodeEncodeError:
            return f"lone surrogate U+{ord(char):04X}"
    return None


def split_row(row: str, delimiter: str) -> tuple[str, str]:
    """A row's two fields; ValueError naming the field count unless it has two."""
    fields = row.split(delimiter)
    if len(fields) != 2:
        raise ValueError(f"expected 2 fields, got {len(fields)}")
    return fields[0], fields[1]


def quoted(field: str) -> str:
    """A field as a reason quotes it: its repr, cut to its first :data:`MAX_QUOTED` characters and "..." when longer."""
    return f"{field[:MAX_QUOTED]!r}..." if len(field) > MAX_QUOTED else repr(field)


def is_positive(label: str, cfg: InputConfig) -> bool:
    """Whether a label field is the positive label; ValueError if it is neither of two declared labels."""
    if cfg.negative_label is not None and label not in (cfg.positive_label, cfg.negative_label):
        raise ValueError(f"unknown label {quoted(label)}")
    return label == cfg.positive_label


def _parse_rows(
    text: str,
    cfg: InputConfig,
    strict: bool,
    convert: Callable[[str, str], T],
) -> tuple[list[T], ParseReport]:
    """Split each data row into two fields and convert them, in input order.

    A line that is not UTF-8, the header included, raises :class:`ParseError`
    in either mode. A ``ValueError`` from splitting or converting is the
    row's failure reason: raised as :class:`ParseError` when ``strict``,
    else recorded. The skipped rows are counted per kind of reason, read
    off each reason's text, in order of first occurrence; the report holds
    the first :data:`MAX_FAILURES` reasons.
    """
    records: list[T] = []
    failures: list[tuple[int, str]] = []
    read = 0
    for line_number, row in _lines(text):
        failure = utf8_failure(row)
        if failure is not None:
            raise ParseError(line_number, failure)
        if cfg.has_header and line_number == 1:
            continue
        read += 1
        try:
            first, second = split_row(row, cfg.delimiter)
            records.append(convert(first, second))
        except ValueError as exc:
            if strict:
                raise ParseError(line_number, str(exc)) from None
            failures.append((line_number, str(exc)))
    skipped = Counter(_REASON_DETAIL.sub("", reason) for _, reason in failures)
    return records, ParseReport(read, len(records), tuple(failures[:MAX_FAILURES]), tuple(skipped.items()))


def parse_hard_labels_rows(text: str, cfg: InputConfig, strict: bool = False) -> tuple[LabeledColumns, ParseReport]:
    """``parse_hard_labels`` as one row loop over the whole text."""

    def convert(actual: str, predicted: str) -> tuple[bool, bool]:
        return is_positive(actual, cfg), is_positive(predicted, cfg)

    rows, report = _parse_rows(text, cfg, strict, convert)
    return LabeledColumns([actual for actual, _ in rows], [predicted for _, predicted in rows]), report


def parse_score(text: str) -> float:
    """A score field by :data:`SCORE_PATTERN`, with the package's failure reasons."""
    if not SCORE_PATTERN.match(text):
        raise ValueError(f"non-finite or malformed score {quoted(text)}")
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite score {quoted(text)}")
    return value


def parse_scores_rows(text: str, cfg: InputConfig, strict: bool = False) -> tuple[ScoredColumns, ParseReport]:
    """``parse_scores`` as one row loop over the whole text, scores read by :data:`SCORE_PATTERN`."""

    def convert(actual: str, score: str) -> tuple[float, bool]:
        return parse_score(score), is_positive(actual, cfg)

    rows, report = _parse_rows(text, cfg, strict, convert)
    return ScoredColumns([score for score, _ in rows], [positive for _, positive in rows]), report


def trapezoid_area(rates: Sequence[tuple[Fraction, Fraction]]) -> float:
    """Trapezoidal area over consecutive exact (fpr, tpr) points, summed exactly and rounded once."""
    return float(sum((f1 - f0) * (t0 + t1) / 2 for (f0, t0), (f1, t1) in zip(rates, rates[1:])))


def roc_sweep(samples: Sequence[tuple[float, bool]]) -> tuple[list[tuple[float, float, float]], float]:
    """The per-row threshold sweep over ``(score, positive)`` rows: its ``(fpr, tpr, threshold)`` points and their trapezoid area.

    Sorts by score descending (stable, so ties keep input order), scans
    once with running tp/fp counters and emits one point per distinct
    score, whose threshold is the first score of its tie group. The area
    is taken over the exact rates fp/negatives and tp/positives. Expects
    both classes and finite scores.
    """
    positives = sum(1 for _, positive in samples if positive)
    negatives = len(samples) - positives
    ordered = sorted(samples, key=lambda sample: sample[0], reverse=True)
    points = [(0.0, 0.0, math.inf)]
    rates = [(Fraction(0), Fraction(0))]
    tp = fp = 0
    i = 0
    n = len(ordered)
    while i < n:
        score = ordered[i][0]
        while i < n and ordered[i][0] == score:
            if ordered[i][1]:
                tp += 1
            else:
                fp += 1
            i += 1
        points.append((fp / negatives, tp / positives, score))
        rates.append((Fraction(fp, negatives), Fraction(tp, positives)))
    return points, trapezoid_area(rates)


def roc_sweep_stable(score: np.ndarray, positive: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sweep's ``fp``, ``tp`` and ``threshold`` columns, vectorised over a stable sort.

    Ties keep input order, so each tie group's threshold is its first
    member's score (a group of -0.0 and 0.0 has the sign of its first);
    the counts are taken at the group's last member. Expects both classes
    and finite scores.
    """
    order = np.argsort(-score, kind="stable")
    ordered, labels = score[order], positive[order]
    ends = np.append(ordered[1:] != ordered[:-1], True)
    starts = np.insert(ends[:-1], 0, True)
    tp = np.cumsum(labels)[ends]
    fp = np.flatnonzero(ends) + 1 - tp
    return np.insert(fp, 0, 0), np.insert(tp, 0, 0), np.insert(ordered[starts], 0, math.inf)


def pair_tallies_brute(pos: np.ndarray, neg: np.ndarray) -> tuple[int, int]:
    """Outer comparison of every positive score against every negative one.

    Returns (pairs with the positive scored higher, tied pairs).
    """
    greater = int(np.sum(pos[:, None] > neg[None, :]))
    equal = int(np.sum(pos[:, None] == neg[None, :]))
    return greater, equal


def render_text(**parts) -> str:
    """What ``write_text`` writes of ``parts``, as one string."""
    out = io.StringIO()
    write_text(out, **parts)
    return out.getvalue()


def render_json(**parts) -> str:
    """What ``write_json`` writes of ``parts``, as one string."""
    out = io.StringIO()
    write_json(out, **parts)
    return out.getvalue()


def render_svg(curve: RocCurve, title: str) -> str:
    """What ``write_svg`` writes, as one string."""
    out = io.StringIO()
    write_svg(curve, title, out)
    return out.getvalue()


def _format_meta_value(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return float.__repr__(value)  # a numpy float's too, not its repr object
    # One line per meta value: a character that could end it, any C0
    # control but tab, or a surrogate, which UTF-8 cannot encode, reads U+FFFD.
    return "".join(
        "\ufffd" if len(f"a{c}b".splitlines()) > 1 or (c < " " and c != "\t") or not c.encode("utf-8", "ignore")
        else c
        for c in str(value)
    )


def roc_text(curve: RocCurve, meta: Mapping[str, object]) -> str:
    """The ``roc`` subcommand's text report: meta echo, point table, AUC."""
    lines = [f"{key} {_format_meta_value(value)}" for key, value in meta.items()]
    lines.append("")
    lines.append("fpr tpr threshold")
    for fpr, tpr, threshold in curve.points:
        threshold = "inf" if math.isinf(threshold) else repr(threshold)
        lines.append(f"{fpr:.6f} {tpr:.6f} {threshold}")
    lines.append(f"AUC {curve.auc:.6f}")
    return "\n".join(lines) + "\n"


def roc_json(curve: RocCurve, meta: Mapping[str, object]) -> str:
    """The ``roc`` subcommand's JSON report: ``roc`` then ``meta``."""
    points = [
        {"fpr": fpr, "tpr": tpr, "threshold": repr(threshold) if math.isinf(threshold) else threshold}
        for fpr, tpr, threshold in curve.points
    ]
    return json.dumps({"roc": {"points": points, "auc": curve.auc}, "meta": dict(meta)},
                      indent=2, allow_nan=False) + "\n"


def _is_xml_char(c: str) -> bool:
    """Whether XML 1.0's ``Char`` production allows ``c``."""
    code = ord(c)
    return code in (0x9, 0xA, 0xD) or 0x20 <= code <= 0xD7FF or 0xE000 <= code <= 0xFFFD or code >= 0x10000


def _escape(text: str) -> str:
    text = "".join(c if _is_xml_char(c) else "\ufffd" for c in text)
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")


def roc_svg(curve: RocCurve, title: str) -> str:
    """The 640x480 SVG plot, one whole string built from one list of lines."""
    width, height, margin = 640, 480, 50
    left = margin
    top = margin
    right = width - margin
    bottom = height - margin

    def x_px(fpr):
        return left + fpr * (right - left)

    def y_px(tpr):
        return bottom - tpr * (bottom - top)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
        f'<rect x="{left}" y="{top}" width="{right - left}" height="{bottom - top}" '
        'fill="none" stroke="#000000" stroke-width="1"/>',
        f'<text x="{width / 2:.2f}" y="30.00" text-anchor="middle" font-family="sans-serif" '
        f'font-size="16">{_escape(title)}</text>',
    ]

    for i in range(6):
        value = i / 5
        x = x_px(value)
        y = y_px(value)
        lines.append(
            f'<line x1="{x:.2f}" y1="{bottom}" x2="{x:.2f}" y2="{bottom + 5}" '
            'stroke="#000000" stroke-width="1"/>'
        )
        lines.append(
            f'<text x="{x:.2f}" y="{bottom + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{value:.1f}</text>'
        )
        lines.append(
            f'<line x1="{left - 5}" y1="{y:.2f}" x2="{left}" y2="{y:.2f}" '
            'stroke="#000000" stroke-width="1"/>'
        )
        lines.append(
            f'<text x="{left - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{value:.1f}</text>'
        )

    lines.append(
        f'<line x1="{x_px(0.0):.2f}" y1="{y_px(0.0):.2f}" x2="{x_px(1.0):.2f}" y2="{y_px(1.0):.2f}" '
        'stroke="#888888" stroke-width="1" stroke-dasharray="6,4"/>'
    )
    polyline = " ".join(f"{x_px(fpr):.2f},{y_px(tpr):.2f}" for fpr, tpr, _ in curve.points)
    lines.append(
        f'<polyline points="{polyline}" fill="none" stroke="#1f77b4" stroke-width="2"/>'
    )
    lines.append(
        f'<text x="{(left + right) / 2:.2f}" y="{bottom + 40}" text-anchor="middle" '
        'font-family="sans-serif" font-size="13">False Positive Rate</text>'
    )
    lines.append(
        f'<text x="18.00" y="{(top + bottom) / 2:.2f}" text-anchor="middle" '
        'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {(top + bottom) / 2:.2f})">True Positive Rate</text>'
    )
    lines.append(
        f'<text x="{right - 10}" y="{bottom - 10}" text-anchor="end" '
        f'font-family="sans-serif" font-size="13">AUC = {curve.auc:.3f}</text>'
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
