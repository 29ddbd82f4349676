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
from typing import Sequence

import numpy as np

from binaryeval.counts import ScoredSample, _columns

__all__ = [
    "ScoredSample",
    "RocPoint",
    "RocCurve",
    "roc_points",
    "auc_trapezoid",
    "auc_pair_count",
]


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


@dataclass(frozen=True, slots=True, eq=False)
class RocCurve:
    """An ordered threshold sweep from (0, 0) to (1, 1) plus its area.

    ``fpr``, ``tpr`` and ``threshold`` are read-only ``float64`` arrays of
    one length, index ``i`` being the curve's ``i``-th point; ``points``
    is the same curve as :class:`RocPoint` values. Only the initial
    point's threshold is infinite (+inf).
    """

    fpr: np.ndarray
    tpr: np.ndarray
    threshold: np.ndarray
    auc: float

    def __post_init__(self) -> None:
        for name in ("fpr", "tpr", "threshold"):
            column = np.array(getattr(self, name), dtype=np.float64)
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        fpr, tpr, threshold = self.fpr, self.tpr, self.threshold
        if fpr.ndim != 1 or fpr.shape != tpr.shape or fpr.shape != threshold.shape:
            raise ValueError("fpr, tpr and threshold must be 1-d arrays of one length")
        for name, rate in (("fpr", fpr), ("tpr", tpr)):
            outside = ~((rate >= 0.0) & (rate <= 1.0))
            if outside.any():
                raise ValueError(f"{name} must be in [0, 1], got {rate[outside][0].item()!r}")
        if fpr.size < 2:
            raise ValueError("a curve needs at least the initial and final point")
        if (fpr[0], tpr[0]) != (0.0, 0.0) or threshold[0] != math.inf:
            raise ValueError("curve must start at (fpr=0, tpr=0, threshold=+inf)")
        if (fpr[-1], tpr[-1]) != (1.0, 1.0):
            raise ValueError("curve must end at (fpr=1, tpr=1)")
        if (fpr[1:] < fpr[:-1]).any() or (tpr[1:] < tpr[:-1]).any():
            raise ValueError("fpr and tpr must be non-decreasing along the curve")
        if not (threshold[1:] < threshold[:-1]).all():
            raise ValueError("thresholds must be strictly decreasing")
        if not np.isfinite(threshold[1:]).all():
            raise ValueError("thresholds after the first must be finite")
        if not 0.0 <= self.auc <= 1.0:
            raise ValueError(f"auc must be in [0, 1], got {self.auc!r}")

    @property
    def points(self) -> tuple[RocPoint, ...]:
        """The curve as one :class:`RocPoint` per threshold, in sweep order."""
        return tuple(map(RocPoint, self.fpr.tolist(), self.tpr.tolist(), self.threshold.tolist()))


def _trapezoid_area(fpr: np.ndarray, tpr: np.ndarray) -> float:
    terms = (fpr[1:] - fpr[:-1]) * (tpr[:-1] + tpr[1:]) / 2.0
    return min(1.0, max(0.0, math.fsum(terms.tolist())))


def roc_points(samples: Sequence[ScoredSample]) -> RocCurve:
    """Sweep the decision threshold over ``samples`` and build the curve.

    Samples are stably sorted by score descending and the labels are
    cumulatively summed in that order; each distinct score value emits one
    point whose rates are the exact integer ratios fp/negatives and
    tp/positives at that threshold (positive iff score >= threshold),
    taken at the last sample of its tie group. The initial point is
    (0, 0) at threshold +inf and the lowest distinct score lands on (1, 1).

    Raises ValueError on empty input, on a non-finite score (naming the
    offending record index), and when either class is absent (one rate
    denominator would be zero everywhere).
    """
    if len(samples) == 0:
        raise ValueError("cannot build a curve from an empty sample sequence")
    score, positive = _columns(samples)
    positives = int(np.count_nonzero(positive))
    negatives = score.size - positives
    if positives == 0 or negatives == 0:
        raise ValueError(
            "need both classes: got "
            f"{positives} positive and {negatives} negative samples"
        )

    order = np.argsort(-score, kind="stable")
    ordered = score[order]
    tp = np.cumsum(positive[order])
    # Indices of the last and the first sample of each tie group (-0.0 ties 0.0).
    last = np.flatnonzero(np.append(ordered[1:] != ordered[:-1], True))
    first = np.append(0, last[:-1] + 1)
    fpr = np.concatenate(([0.0], (last + 1 - tp[last]) / negatives))
    tpr = np.concatenate(([0.0], tp[last] / positives))
    # The first member's score, as the reference sweep takes it: a group of
    # -0.0 and 0.0 keeps the sign of whichever came first in input order.
    threshold = np.concatenate(([math.inf], ordered[first]))
    return RocCurve(fpr=fpr, tpr=tpr, threshold=threshold, auc=_trapezoid_area(fpr, tpr))


def auc_trapezoid(curve: RocCurve) -> float:
    """Area under the curve by the trapezoidal rule over consecutive points."""
    return _trapezoid_area(curve.fpr, curve.tpr)


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
    score, positive = _columns(samples)
    pos, neg = score[positive], score[~positive]
    pairs = pos.size * neg.size
    if pairs == 0:
        raise ValueError(
            f"need both classes: got {pos.size} positive and {neg.size} negative samples"
        )
    greater, equal = _pair_tallies_ranked(pos, neg)
    # One exact integer ratio, one float rounding.
    return (2 * greater + equal) / (2 * pairs)
