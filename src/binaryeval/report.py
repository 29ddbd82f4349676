"""Rendering of evaluation results as text, JSON, and an SVG ROC plot.

All renderers are pure: identical inputs produce byte-identical output.
Undefined metric values render as ``"undefined"`` (text) or ``null``
(JSON) by default; ``zero_division="zero"`` maps them to 0 at render time
only, the computed values are never touched.

An :class:`EvaluationReport` holds optional ``metrics`` (a
:class:`~binaryeval.metrics.MetricSet`, which carries its tally), an
optional ROC ``curve`` and a ``meta`` echo; each renderer emits only the
parts that are present. JSON key order is part of the contract:
``counts`` and ``metrics`` (when metrics are present), ``roc`` (when a
curve is present), ``meta`` (when non-empty); metric keys follow
:meth:`binaryeval.metrics.MetricSet.as_dict`. The initial curve point's
infinite threshold is encoded as ``null`` (standard JSON has no Infinity
literal).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Mapping

from binaryeval.counts import ConfusionCounts
from binaryeval.metrics import MetricSet
from binaryeval.roc import RocCurve

_ZERO_DIVISION_MODES = ("undefined", "zero")

# SVG canvas geometry: fixed 640x480 with 50-unit margins.
_WIDTH = 640
_HEIGHT = 480
_MARGIN = 50


@dataclass(frozen=True, slots=True)
class EvaluationReport:
    """Everything one evaluation produced, ready to render.

    ``metrics`` (with the tally in ``metrics.counts``) is set by a
    threshold evaluation, ``curve`` by a threshold sweep; ``meta`` echoes
    the input name, record counts and configuration so the rendered
    output is self-describing.
    """

    metrics: MetricSet | None = None
    curve: RocCurve | None = None
    meta: Mapping[str, object] = field(default_factory=dict)


def _check_zero_division(zero_division: str) -> None:
    if zero_division not in _ZERO_DIVISION_MODES:
        raise ValueError(f"zero_division must be one of {_ZERO_DIVISION_MODES}, got {zero_division!r}")


def _format_metric(value: float | None, zero_division: str) -> str:
    if value is None:
        return "0.000000" if zero_division == "zero" else "undefined"
    return f"{value:.6f}"


def _format_meta_value(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _matrix_lines(c: ConfusionCounts) -> list[str]:
    width = max(1, *(len(str(v)) for v in (c.tp, c.fp, c.fn, c.tn)))
    return [
        "confusion matrix (rows actual, columns predicted)",
        f"   {'P':>{width}}  {'N':>{width}}",
        f"P  {c.tp:>{width}}  {c.fn:>{width}}",
        f"N  {c.fp:>{width}}  {c.tn:>{width}}",
    ]


def _curve_lines(curve: RocCurve) -> list[str]:
    lines = ["fpr tpr threshold"]
    lines.extend(
        f"{fpr:.6f} {tpr:.6f} {'inf' if math.isinf(threshold) else repr(threshold)}"
        for fpr, tpr, threshold in zip(curve.fpr.tolist(), curve.tpr.tolist(), curve.threshold.tolist())
    )
    lines.append(f"AUC {curve.auc:.6f}")
    return lines


def render_text(report: EvaluationReport, *, zero_division: str = "undefined") -> str:
    """Fixed-order plain-text report, one blank line between blocks.

    The blocks are the meta echo; the matrix and one line per metric, when
    metrics are present; the ``fpr tpr threshold`` table and the AUC, when
    a curve is present.
    """
    _check_zero_division(zero_division)
    blocks: list[list[str]] = []
    if report.meta:
        blocks.append([f"{key} {_format_meta_value(value)}" for key, value in report.meta.items()])
    if report.metrics is not None:
        blocks.append(_matrix_lines(report.metrics.counts) + [""] + [
            f"{name.upper()} {_format_metric(value, zero_division)}"
            for name, value in report.metrics.as_dict().items()
        ])
    if report.curve is not None:
        blocks.append(_curve_lines(report.curve))
    lines: list[str] = []
    for block in blocks:
        if lines:
            lines.append("")
        lines.extend(block)
    return "\n".join(lines) + "\n"


def _json_safe(value: object) -> object:
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def _curve_json(curve: RocCurve) -> str:
    """The ``roc`` value as ``json.dumps(indent=2)`` writes it one level deep.

    Each point is laid out by hand; ``!r`` is ``float.__repr__``, which is
    what json uses for floats. The initial +inf threshold becomes null.
    """
    points = ",\n".join(
        f'      {{\n        "fpr": {fpr!r},\n        "tpr": {tpr!r},\n'
        f'        "threshold": {"null" if math.isinf(threshold) else repr(threshold)}\n      }}'
        for fpr, tpr, threshold in zip(curve.fpr.tolist(), curve.tpr.tolist(), curve.threshold.tolist())
    )
    return f'{{\n    "points": [\n{points}\n    ],\n    "auc": {json.dumps(curve.auc)}\n  }}'


def render_json(report: EvaluationReport, *, zero_division: str = "undefined") -> str:
    """Machine-readable report; floats use shortest round-trip formatting.

    The text is what ``json.dumps(..., indent=2)`` writes for the whole
    report; only the curve points are laid out here instead of by json.
    """
    _check_zero_division(zero_division)
    members: dict[str, str] = {}

    def nested(value: object) -> str:
        # Indented one level deeper: json only writes a newline between tokens.
        return json.dumps(value, indent=2, allow_nan=False).replace("\n", "\n  ")

    if report.metrics is not None:
        counts = report.metrics.counts
        members["counts"] = nested({"tp": counts.tp, "fp": counts.fp, "fn": counts.fn, "tn": counts.tn})
        members["metrics"] = nested({
            name: 0.0 if value is None and zero_division == "zero" else value
            for name, value in report.metrics.as_dict().items()
        })
    if report.curve is not None:
        members["roc"] = _curve_json(report.curve)
    if report.meta:
        members["meta"] = nested({key: _json_safe(value) for key, value in report.meta.items()})
    if not members:
        return "{}\n"
    return "{\n" + ",\n".join(f'  "{key}": {value}' for key, value in members.items()) + "\n}\n"


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def render_svg(curve: RocCurve, title: str) -> str:
    """Standalone 640x480 SVG of the curve with the chance diagonal.

    Data (0, 0) maps to the plot's bottom-left corner and (1, 1) to its
    top-right; the dashed diagonal marks random guessing and the legend
    carries the area to three decimals. Uses only rect, line, polyline and
    text elements.
    """
    left = _MARGIN
    top = _MARGIN
    right = _WIDTH - _MARGIN
    bottom = _HEIGHT - _MARGIN

    def x_px(fpr):
        return left + fpr * (right - left)

    def y_px(tpr):
        return bottom - tpr * (bottom - top)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
        f'<rect x="{left}" y="{top}" width="{right - left}" height="{bottom - top}" '
        'fill="none" stroke="#000000" stroke-width="1"/>',
        f'<text x="{_WIDTH / 2:.2f}" y="30.00" text-anchor="middle" font-family="sans-serif" '
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
    polyline = " ".join(
        f"{x:.2f},{y:.2f}" for x, y in zip(x_px(curve.fpr).tolist(), y_px(curve.tpr).tolist())
    )
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
