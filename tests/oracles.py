"""Reference implementations that tests compare the package against.

They are the straightforward forms of code the package implements another
way, kept here so that a faster or merged production path can be checked
against them.
"""

from __future__ import annotations

import json
import math
from typing import Mapping, Sequence

import numpy as np

from binaryeval.counts import Label, ScoredSample
from binaryeval.roc import RocCurve, RocPoint


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
        {"fpr": p.fpr, "tpr": p.tpr, "threshold": None if math.isinf(p.threshold) else p.threshold}
        for p in curve.points
    ]
    return json.dumps({"roc": {"points": points, "auc": curve.auc}, "meta": dict(meta)},
                      indent=2, allow_nan=False) + "\n"
