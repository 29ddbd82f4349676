"""Reference implementations that tests compare the package against.

They are the straightforward forms of code the package implements another
way, kept here so that a faster or merged production path can be checked
against them.
"""

from __future__ import annotations

import json
import math
from typing import Callable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

from binaryeval.counts import Label, LabeledColumns, LabeledPrediction, ScoredColumns, ScoredSample
from binaryeval.ingest import InputConfig, ParseError, ParseReport, _is_positive, _parse_score, _split_row
from binaryeval.roc import RocCurve, RocPoint

T = TypeVar("T")


def apply_threshold(samples: Sequence[ScoredSample], threshold: float) -> list[LabeledPrediction]:
    """Turn scores into hard predictions: positive iff score >= threshold.

    ``+inf`` predicts everything negative and ``-inf`` everything positive;
    NaN is rejected. Actual labels pass through and order is preserved.
    ``threshold_counts`` is the tally of this, counted over the columns.
    """
    if math.isnan(threshold):
        raise ValueError("threshold must be a real number or +/-inf, not NaN")
    return [
        LabeledPrediction(
            actual=sample.actual,
            predicted=Label.POSITIVE if sample.score >= threshold else Label.NEGATIVE,
        )
        for sample in samples
    ]


def _data_rows(text: str, has_header: bool) -> Iterator[tuple[int, str]]:
    """Yield (1-based line number, line) pairs, CR and CRLF read as LF, header counted but skipped."""
    # Records are newline-delimited only; splitlines() would also split
    # on form feeds and similar, which are legal inside a label.
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    for line_number, line in enumerate(lines, start=1):
        if has_header and line_number == 1:
            continue
        yield line_number, line


def _parse_rows(
    text: str,
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
    for line_number, row in _data_rows(text, cfg.has_header):
        read += 1
        try:
            first, second = _split_row(row, cfg.delimiter)
            records.append(convert(first, second))
        except ValueError as exc:
            if strict:
                raise ParseError(line_number, str(exc)) from None
            failures.append((line_number, str(exc)))
    return records, ParseReport(read, len(records), tuple(failures))


def parse_hard_labels_rows(text: str, cfg: InputConfig, strict: bool = False) -> tuple[LabeledColumns, ParseReport]:
    """``parse_hard_labels`` as one row loop over the whole text."""

    def convert(actual: str, predicted: str) -> tuple[bool, bool]:
        return _is_positive(actual, cfg), _is_positive(predicted, cfg)

    rows, report = _parse_rows(text, cfg, strict, convert)
    return LabeledColumns([actual for actual, _ in rows], [predicted for _, predicted in rows]), report


def parse_scores_rows(text: str, cfg: InputConfig, strict: bool = False) -> tuple[ScoredColumns, ParseReport]:
    """``parse_scores`` as one row loop over the whole text."""

    def convert(actual: str, score: str) -> tuple[float, bool]:
        return _parse_score(score), _is_positive(actual, cfg)

    rows, report = _parse_rows(text, cfg, strict, convert)
    return ScoredColumns([score for score, _ in rows], [positive for _, positive in rows]), report


def trapezoid_area(points: Sequence[RocPoint]) -> float:
    """Trapezoidal area over consecutive points, summed exactly and clamped to [0, 1]."""
    terms = [
        (cur.fpr - prev.fpr) * (prev.tpr + cur.tpr) / 2.0
        for prev, cur in zip(points, points[1:])
    ]
    return min(1.0, max(0.0, math.fsum(terms)))


def roc_sweep(samples: Sequence[ScoredSample]) -> tuple[list[RocPoint], float]:
    """The per-row threshold sweep: its points and their trapezoid area.

    Sorts by score descending (stable, so ties keep input order), scans
    once with running tp/fp counters and emits one point per distinct
    score, whose threshold is the first score of its tie group. Expects
    both classes and finite scores.
    """
    positives = sum(1 for sample in samples if sample.actual is Label.POSITIVE)
    negatives = len(samples) - positives
    ordered = sorted(samples, key=lambda s: s.score, reverse=True)
    points = [RocPoint(fpr=0.0, tpr=0.0, threshold=math.inf)]
    tp = fp = 0
    i = 0
    n = len(ordered)
    while i < n:
        score = ordered[i].score
        while i < n and ordered[i].score == score:
            if ordered[i].actual is Label.POSITIVE:
                tp += 1
            else:
                fp += 1
            i += 1
        points.append(RocPoint(fpr=fp / negatives, tpr=tp / positives, threshold=score))
    return points, trapezoid_area(points)


def pair_tallies_brute(pos: np.ndarray, neg: np.ndarray) -> tuple[int, int]:
    """Outer comparison of every positive score against every negative one.

    Returns (pairs with the positive scored higher, tied pairs).
    """
    greater = int(np.sum(pos[:, None] > neg[None, :]))
    equal = int(np.sum(pos[:, None] == neg[None, :]))
    return greater, equal


def _format_meta_value(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def roc_text(curve: RocCurve, meta: Mapping[str, object]) -> str:
    """The ``roc`` subcommand's text report: meta echo, point table, AUC."""
    lines = [f"{key} {_format_meta_value(value)}" for key, value in meta.items()]
    lines.append("")
    lines.append("fpr tpr threshold")
    for p in curve.points:
        threshold = "inf" if math.isinf(p.threshold) else repr(p.threshold)
        lines.append(f"{p.fpr:.6f} {p.tpr:.6f} {threshold}")
    lines.append(f"AUC {curve.auc:.6f}")
    return "\n".join(lines) + "\n"


def roc_json(curve: RocCurve, meta: Mapping[str, object]) -> str:
    """The ``roc`` subcommand's JSON report: ``roc`` then ``meta``."""
    points = [
        {"fpr": p.fpr, "tpr": p.tpr, "threshold": repr(p.threshold) if math.isinf(p.threshold) else p.threshold}
        for p in curve.points
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
    polyline = " ".join(f"{x_px(p.fpr):.2f},{y_px(p.tpr):.2f}" for p in curve.points)
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
