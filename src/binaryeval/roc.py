"""ROC curves by threshold sweeping, and AUC by two independent routes.

The sweep emits one point per distinct score (tied scores collapse into a
single point, giving a diagonal segment instead of a staircase). That is
the one convention under which trapezoidal integration of the curve
equals the pair-counting statistic of :func:`auc_pair_count` exactly, so
the two AUC algorithms cross-check each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from binaryeval.counts import Label, ScoredSample

__all__ = [
    "ScoredSample",
    "RocPoint",
    "RocCurve",
    "DiagonalPosition",
    "roc_points",
    "auc_trapezoid",
    "auc_pair_count",
    "diagonal_position",
]

# Half-width of the band around the diagonal treated as "on" it.
DIAGONAL_TOLERANCE = 1e-12


class DiagonalPosition(Enum):
    """Where a point sits relative to the chance diagonal tpr == fpr."""

    ABOVE = "above"
    ON = "on"
    BELOW = "below"


@dataclass(frozen=True, slots=True)
class RocPoint:
    """One (fpr, tpr) point and the decision threshold that produced it."""

    fpr: float
    tpr: float
    threshold: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.fpr <= 1.0:
            raise ValueError(f"fpr must be in [0, 1], got {self.fpr!r}")
        if not 0.0 <= self.tpr <= 1.0:
            raise ValueError(f"tpr must be in [0, 1], got {self.tpr!r}")


@dataclass(frozen=True, slots=True)
class RocCurve:
    """An ordered threshold sweep from (0, 0) to (1, 1) plus its area."""

    points: tuple[RocPoint, ...]
    auc: float

    def __post_init__(self) -> None:
        pts = self.points
        if len(pts) < 2:
            raise ValueError("a curve needs at least the initial and final point")
        first, last = pts[0], pts[-1]
        if (first.fpr, first.tpr) != (0.0, 0.0) or first.threshold != math.inf:
            raise ValueError("curve must start at (fpr=0, tpr=0, threshold=+inf)")
        if (last.fpr, last.tpr) != (1.0, 1.0):
            raise ValueError("curve must end at (fpr=1, tpr=1)")
        for prev, cur in zip(pts, pts[1:]):
            if cur.fpr < prev.fpr or cur.tpr < prev.tpr:
                raise ValueError("fpr and tpr must be non-decreasing along the curve")
            if cur.threshold >= prev.threshold:
                raise ValueError("thresholds must be strictly decreasing")
        if not 0.0 <= self.auc <= 1.0:
            raise ValueError(f"auc must be in [0, 1], got {self.auc!r}")


def _trapezoid_area(points: Sequence[RocPoint]) -> float:
    terms = [
        (cur.fpr - prev.fpr) * (prev.tpr + cur.tpr) / 2.0
        for prev, cur in zip(points, points[1:])
    ]
    return min(1.0, max(0.0, math.fsum(terms)))


def roc_points(samples: Sequence[ScoredSample]) -> RocCurve:
    """Sweep the decision threshold over ``samples`` and build the curve.

    Samples are sorted by score descending and scanned once with running
    tp/fp counters; each distinct score value emits one point whose rates
    are the exact integer ratios fp/negatives and tp/positives at that
    threshold (positive iff score >= threshold). The initial point is
    (0, 0) at threshold +inf and the lowest distinct score lands on (1, 1).

    Raises ValueError on empty input, on a non-finite score (naming the
    offending record index), and when either class is absent (one rate
    denominator would be zero everywhere).
    """
    if len(samples) == 0:
        raise ValueError("cannot build a curve from an empty sample sequence")
    positives = 0
    for index, sample in enumerate(samples):
        if not math.isfinite(sample.score):
            raise ValueError(f"non-finite score at record {index}: {sample.score!r}")
        if sample.actual is Label.POSITIVE:
            positives += 1
    negatives = len(samples) - positives
    if positives == 0 or negatives == 0:
        raise ValueError(
            "need both classes: got "
            f"{positives} positive and {negatives} negative samples"
        )

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

    return RocCurve(points=tuple(points), auc=_trapezoid_area(points))


def auc_trapezoid(curve: RocCurve) -> float:
    """Area under the curve by the trapezoidal rule over consecutive points."""
    return _trapezoid_area(curve.points)


def _pair_tallies_ranked(pos: np.ndarray, neg: np.ndarray) -> tuple[int, int]:
    """Rank-based tallies: sort the negatives once, binary-search each positive."""
    neg_sorted = np.sort(neg)
    below = np.searchsorted(neg_sorted, pos, side="left")
    through = np.searchsorted(neg_sorted, pos, side="right")
    greater = int(below.sum())
    equal = int((through - below).sum())
    return greater, equal


def auc_pair_count(samples: Sequence[ScoredSample]) -> float:
    """AUC as the probability a random positive outscores a random negative.

    Ties get half credit. The tallies are exact integers: the negatives
    are sorted once and each positive is binary-searched among them. This
    is deliberately independent of the threshold sweep in
    :func:`roc_points` and serves as its cross-check.
    """
    pos = np.array(
        [s.score for s in samples if s.actual is Label.POSITIVE], dtype=np.float64
    )
    neg = np.array(
        [s.score for s in samples if s.actual is not Label.POSITIVE], dtype=np.float64
    )
    pairs = pos.size * neg.size
    if pairs == 0:
        raise ValueError(
            f"need both classes: got {pos.size} positive and {neg.size} negative samples"
        )
    greater, equal = _pair_tallies_ranked(pos, neg)
    # One exact integer ratio, one float rounding.
    return (2 * greater + equal) / (2 * pairs)


def diagonal_position(point: RocPoint) -> DiagonalPosition:
    """Classify a point against the chance diagonal within a 1e-12 band."""
    delta = point.tpr - point.fpr
    if abs(delta) <= DIAGONAL_TOLERANCE:
        return DiagonalPosition.ON
    return DiagonalPosition.ABOVE if delta > 0 else DiagonalPosition.BELOW
