"""Rendering of evaluation results as text, JSON, and an SVG ROC plot.

Each format has one writer, ``write_text``, ``write_json`` or
``write_svg``, which writes the report to a text stream: the fixed parts
in a few writes, the curve points in chunks of ``_CHUNK_POINTS``, so
memory does not grow with the size of the report. A JSON report is laid
out by one ``json.dumps`` of the whole document, in which a ``null``
holds the place of the curve points after the first; those are streamed
in its place. Everything that can raise (that ``json.dumps``, the
title's escaping) runs before the first write. To get a report as one
string, write it to an ``io.StringIO``.

Each chunk is laid out as one ``uint8`` matrix of ASCII codes, a row per
point, whose NUL bytes are dropped as it is written (``_joined``); no
string is made per value. Two curve columns have a fixed shape: a text
rate is ``d.dddddd`` and an SVG pixel ``dd.dd`` or ``ddd.dd``, scaled and
rounded in float (``_decimal_rows``); ``_scaled`` settles a product
exactly on a half by the sign of its exact error. The JSON rates and
every threshold are ``repr``'s shortest round-trip digits, computed for
the whole chunk at once by :func:`binaryeval._shortest.repr_codes`.

All writers are pure: identical inputs produce byte-identical output.
``write_text`` and ``write_json`` write only the parts they are given,
each optional: ``metrics`` (a :class:`~binaryeval.metrics.MetricSet`,
which carries its tally), a ROC ``curve`` and a ``meta`` echo. A metric
is printed as it is, ``None`` as ``"undefined"`` (text) or ``null``
(JSON); the CLI's ``--zero-division zero`` hands them a copy of the
metrics with 0.0 in place of each. JSON key order is part of the contract:
``counts`` and ``metrics``, ``roc``, then ``meta`` (when non-empty);
metric keys follow :meth:`binaryeval.metrics.MetricSet.as_dict` and
count keys the fields of :class:`~binaryeval.counts.ConfusionCounts`.
Standard JSON has no Infinity literal, so an infinite float (in
``meta``, or the initial curve point's threshold) is the string
``"inf"`` or ``"-inf"``.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import asdict
from typing import Iterator, Mapping, Sequence, TextIO

import numpy as np

from binaryeval._shortest import repr_codes
from binaryeval.counts import ConfusionCounts
from binaryeval.metrics import MetricSet
from binaryeval.roc import RocCurve

# SVG canvas geometry: fixed 640x480 with 50-unit margins.
_WIDTH = 640
_HEIGHT = 480
_MARGIN = 50

# Curve points formatted and written per chunk; larger chunks only cost memory.
_CHUNK_POINTS = 4096

# Characters XML 1.0 does not allow in a document: C0 controls other than
# tab, LF and CR, lone surrogates, U+FFFE and U+FFFF. Kept as a pattern
# string, so that only a run that writes an SVG compiles it.
_NOT_XML_CHAR = "[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]"

# Characters a text report's meta value may not hold, so that it cannot
# end its line and forge another: every one ``str.splitlines`` breaks on,
# and the C0 controls other than tab (a valid delimiter); nor surrogates,
# which UTF-8 cannot encode (an undecodable byte of a file name is one).
_NOT_IN_LINE = "[\x00-\x08\x0a-\x1f\x85\u2028\u2029\ud800-\udfff]"


def _format_metric(value: float | None) -> str:
    return "undefined" if value is None else f"{value:.6f}"


def _format_meta_value(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    # str of a float, numpy's included, is its shortest repr.
    return re.sub(_NOT_IN_LINE, "\ufffd", str(value))


def _matrix_lines(c: ConfusionCounts) -> list[str]:
    width = max(1, *(len(str(v)) for v in (c.tp, c.fp, c.fn, c.tn)))
    return [
        "confusion matrix (rows actual, columns predicted)",
        f"   {'P':>{width}}  {'N':>{width}}",
        f"P  {c.tp:>{width}}  {c.fn:>{width}}",
        f"N  {c.fp:>{width}}  {c.tn:>{width}}",
    ]


def _curve_chunks(curve: RocCurve, first: int = 0) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """The curve's points from ``first`` on as slices of at most ``_CHUNK_POINTS``, each with its fpr and tpr.

    The rates divide as ``RocCurve.fpr`` and ``tpr`` do, so no column is built whole.
    """
    for start in range(first, curve.threshold.size, _CHUNK_POINTS):
        points = slice(start, start + _CHUNK_POINTS)
        yield points, curve.fp[points] / curve.fp[-1], curve.tp[points] / curve.tp[-1]


def _scaled(values: np.ndarray, places: int) -> np.ndarray:
    """``values * 10**places`` rounded as ``format(v, f".{places}f")`` rounds them, as int64.

    Rounding is monotone and a half below 2**52 is a float, so ``np.rint``
    rounds the float product as the exact one rounds unless it lies
    exactly on a half. Such a half is settled by the sign of the product's
    exact error: Dekker's product, with Veltkamp's split by 2**27 + 1
    (``10**places``, with fewer than 27 significant bits, needs no split).
    An exact tie, such as 50.125, keeps ``rint``'s half to even, as
    ``format`` rounds it.
    """
    scale = 10**places
    product = values * scale
    scaled = np.rint(product)
    halves = np.flatnonzero(np.abs(product - scaled) == 0.5)
    if halves.size:
        value, rounded = values[halves], product[halves]
        split = value * (2.0**27 + 1)
        high = split - (split - value)
        error = (high * scale - rounded) + (value - high) * scale
        scaled[halves] = np.where(error == 0, scaled[halves], rounded + np.copysign(0.5, error))
    return scaled.astype(np.int64)


def _decimal_rows(template: str, columns: Sequence[np.ndarray], places: int, digits: int) -> np.ndarray:
    """``template`` once per point as ASCII codes, each ``{}`` filled by ``format(v, f".{places}f")``.

    Row ``i`` of the ``uint8`` matrix is point ``i``: the template's
    literals with each column's value as ``digits`` integer digits, a point
    and ``places`` decimals between them. The leading zeros of the integer
    part are NULs, judged on the rounded value, so 99.995 keeps all three
    digits of ``100.00``. The values must lie in ``[0, 10**digits)`` with
    ``digits + places`` at most 7.
    """
    literals = [np.frombuffer(text.encode("ascii"), dtype=np.uint8) for text in template.split("{}")]
    width = digits + 1 + places
    digit_offsets = [*range(digits), *range(digits + 1, width)]
    codes = np.empty((columns[0].size, sum(map(len, literals)) + width * len(columns)), dtype=np.uint8)
    at = 0
    for literal, column in zip(literals, columns):
        codes[:, at : at + literal.size] = literal
        at += literal.size
        scaled = _scaled(column, places)
        codes[:, at + digits] = ord(".")
        rest = scaled
        for offset in reversed(digit_offsets):
            rest, digit = np.divmod(rest, 10)
            codes[:, at + offset] = digit + ord("0")
        for lead in range(digits - 1):
            codes[:, at + lead] *= scaled >= 10 ** (places + digits - 1 - lead)
        at += width
    codes[:, at:] = literals[-1]
    return codes


def _joined(parts: Sequence[str | np.ndarray]) -> str:
    """The rows of ``parts`` side by side as text, without their NULs; a ``str`` part is on every row."""
    rows = next(part.shape[0] for part in parts if not isinstance(part, str))
    codes = [
        np.broadcast_to(np.frombuffer(part.encode("ascii"), dtype=np.uint8), (rows, len(part)))
        if isinstance(part, str) else part
        for part in parts
    ]
    return np.concatenate(codes, axis=1).tobytes().translate(None, b"\0").decode("ascii")


def write_text(out: TextIO, *, metrics: MetricSet | None = None, curve: RocCurve | None = None,
               meta: Mapping[str, object] | None = None) -> None:
    """Fixed-order plain-text report of the parts given, one blank line between blocks.

    The blocks are the meta echo, when non-empty; the matrix and one line
    per metric, when metrics are given; the ``fpr tpr threshold`` table
    and the AUC, when a curve is given.
    """
    blocks: list[str] = []
    if meta:
        blocks.append("\n".join(f"{key} {_format_meta_value(value)}" for key, value in meta.items()))
    if metrics is not None:
        blocks.append("\n".join(_matrix_lines(metrics.counts) + [""] + [
            f"{name.upper()} {_format_metric(value)}" for name, value in metrics.as_dict().items()
        ]))
    if curve is None:
        out.write("\n\n".join(blocks) + "\n")
        return
    out.write("\n\n".join(blocks + ["fpr tpr threshold"]))
    for points, fpr, tpr in _curve_chunks(curve):
        rates = _decimal_rows("\n{} {} ", (fpr, tpr), places=6, digits=1)
        # repr(+inf) is "inf", the text form of the initial point's threshold.
        out.write(_joined([rates, repr_codes(curve.threshold[points])]))
    out.write(f"\nAUC {curve.auc:.6f}\n")


def _json_safe(value: object) -> object:
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    return value


def write_json(out: TextIO, *, metrics: MetricSet | None = None, curve: RocCurve | None = None,
               meta: Mapping[str, object] | None = None) -> None:
    """Machine-readable report of the parts given; floats use shortest round-trip formatting.

    The whole report is laid out by one ``json.dumps(..., indent=2)``
    before the first write, with a ``null`` in the place of the curve
    points after the first. Those points are streamed in its place, laid
    out as json lays them out, ``repr`` being what json uses for a float.
    """
    document: dict[str, object] = {}
    if metrics is not None:
        document["counts"] = asdict(metrics.counts)
        document["metrics"] = metrics.as_dict()
    if curve is not None:
        # Every curve starts at (0, 0, +inf), and the infinite threshold is "inf", as in meta.
        document["roc"] = {"points": [{"fpr": 0.0, "tpr": 0.0, "threshold": "inf"}, None], "auc": curve.auc}
    if meta:
        document["meta"] = {key: _json_safe(value) for key, value in meta.items()}
    text = json.dumps(document, indent=2, allow_nan=False)
    if curve is None:
        out.write(text + "\n")
        return
    # Only numbers and "key": null pairs come before the placeholder, so
    # its text is found first there; meta, which may hold it too, comes after.
    head, _, tail = text.partition(",\n      null")
    out.write(head)
    for points, fpr, tpr in _curve_chunks(curve, first=1):
        out.write(_joined([
            ',\n      {\n        "fpr": ', repr_codes(fpr), ',\n        "tpr": ', repr_codes(tpr),
            ',\n        "threshold": ', repr_codes(curve.threshold[points]), "\n      }",
        ]))
    out.write(tail + "\n")


def _escape(text: str) -> str:
    """``text`` as XML character data; characters XML does not allow become U+FFFD."""
    return re.sub(
        _NOT_XML_CHAR,
        "\ufffd",
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;"),
    )


def write_svg(curve: RocCurve, title: str, out: TextIO) -> None:
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
    lines.append('<polyline points="')
    out.write("\n".join(lines))
    for points, fpr, tpr in _curve_chunks(curve):
        # Every pixel is in [50, 590], so "dd.dd" or "ddd.dd".
        codes = _decimal_rows(" {},{}", (x_px(fpr), y_px(tpr)), places=2, digits=3)
        if points.start == 0:
            codes[0, 0] = 0  # points are separated by a space, which point 0 does without
        out.write(_joined([codes]))
    lines = [
        '" fill="none" stroke="#1f77b4" stroke-width="2"/>',
        f'<text x="{(left + right) / 2:.2f}" y="{bottom + 40}" text-anchor="middle" '
        'font-family="sans-serif" font-size="13">False Positive Rate</text>',
        f'<text x="18.00" y="{(top + bottom) / 2:.2f}" text-anchor="middle" '
        'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {(top + bottom) / 2:.2f})">True Positive Rate</text>',
        f'<text x="{right - 10}" y="{bottom - 10}" text-anchor="end" '
        f'font-family="sans-serif" font-size="13">AUC = {curve.auc:.3f}</text>',
        "</svg>",
    ]
    out.write("\n".join(lines) + "\n")
