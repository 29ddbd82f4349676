"""ROC curves by threshold sweeping, and AUC by two independent routes.

The sweep emits one point per distinct score (tied scores collapse into a
single point, giving a diagonal segment instead of a staircase) and keeps
the integer fp/tp counts there. Under that convention the trapezoidal area
of the curve, summed in integers, equals the pair-counting statistic of
:func:`auc_pair_count` exactly, so the two AUC algorithms give equal floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from binaryeval.counts import ScoredColumns, _hold, _of_own_arrays, _reals

__all__ = [
    "RocCurve",
    "roc_points",
    "auc_trapezoid",
    "auc_pair_count",
]


def _count_column(name: str, values: object) -> np.ndarray:
    """``values`` as an ``int64`` array, checked first: the cast would truncate 0.5 and wrap 2**63."""
    column = np.asarray(values)
    if column.dtype.kind not in "iu":
        raise ValueError(f"{name} must hold integers in [0, 2**63), got dtype {column.dtype}")
    if column.size and (column.min() < 0 or column.max() >= 2**63):  # no n-sized mask unless one is out
        outside = (column < 0) | (column >= 2**63)
        raise ValueError(f"{name} must hold integers in [0, 2**63), got {column[outside][0].item()}")
    return column.astype(np.int64, copy=False)


@dataclass(frozen=True, slots=True, eq=False)
class RocCurve:
    """An ordered threshold sweep from (0, 0) to (1, 1), held as integer counts.

    ``fp`` and ``tp`` are read-only ``int64`` arrays of the false- and
    true-positive counts at each point and ``threshold`` a read-only
    ``float64`` array, all of one length, index ``i`` being the curve's
    ``i``-th point. Only the initial point's threshold is infinite (+inf).
    The last point counts every negative and every positive, so the rates
    ``fpr = fp / fp[-1]`` and ``tpr = tp / tp[-1]`` (each a fresh array of
    the curve's length) and the ``auc`` are derived on each access. The
    constructor copies and checks its arguments.
    """

    fp: np.ndarray
    tp: np.ndarray
    threshold: np.ndarray

    def __post_init__(self) -> None:
        fp, tp = _count_column("fp", np.array(self.fp)), _count_column("tp", np.array(self.tp))
        threshold = _reals(self.threshold, "threshold")
        if fp.ndim != 1 or fp.shape != tp.shape or fp.shape != threshold.shape:
            raise ValueError("fp, tp and threshold must be 1-d arrays of one length")
        if fp.size < 2:
            raise ValueError("a curve needs at least the initial and final point")
        if (fp[0], tp[0]) != (0, 0) or threshold[0] != math.inf:
            raise ValueError("curve must start at (fp=0, tp=0, threshold=+inf)")
        if fp[-1] == 0 or tp[-1] == 0:
            raise ValueError(f"curve must end with fp > 0 and tp > 0, got fp={fp[-1]} and tp={tp[-1]}")
        if (fp[1:] < fp[:-1]).any() or (tp[1:] < tp[:-1]).any():
            raise ValueError("fp and tp must be non-decreasing along the curve")
        if not (threshold[1:] < threshold[:-1]).all():
            raise ValueError("thresholds must be strictly decreasing")
        if not np.isfinite(threshold[1:]).all():
            raise ValueError("thresholds after the first must be finite")
        _hold(self, fp=fp, tp=tp, threshold=threshold)

    @property
    def fpr(self) -> np.ndarray:
        return self.fp / self.fp[-1]

    @property
    def tpr(self) -> np.ndarray:
        return self.tp / self.tp[-1]

    @property
    def auc(self) -> float:
        return auc_trapezoid(self)

    @property
    def points(self) -> tuple[tuple[float, float, float], ...]:
        """The curve as one ``(fpr, tpr, threshold)`` tuple per point, in sweep order."""
        return tuple(zip(self.fpr.tolist(), self.tpr.tolist(), self.threshold.tolist()))


def roc_points(samples: ScoredColumns) -> RocCurve:
    """Sweep the decision threshold over ``samples`` and build the curve.

    The scores are sorted and read descending. Each distinct score emits one
    point holding the false- and true-positive counts at that threshold
    (positive iff score >= threshold): tp by a binary search among the sorted
    positives' scores, fp as the rest of the samples so far. The
    initial point is (0, 0) at threshold +inf and the lowest distinct score
    lands on every negative and every positive, (1, 1). A threshold of zero
    has the sign of the first zero in input order.

    Raises ValueError on empty input and when either class is absent (one
    rate denominator would be zero everywhere).
    """
    if len(samples) == 0:
        raise ValueError("cannot build a curve from an empty sample sequence")
    positives = int(np.count_nonzero(samples.positive))
    negatives = len(samples) - positives
    if positives == 0 or negatives == 0:
        raise ValueError(
            "need both classes: got "
            f"{positives} positive and {negatives} negative samples"
        )

    # One buffer is sorted twice, for the scores and then for the positives'
    # scores, and dropped before fp is built; the curve takes the other arrays
    # uncopied. Read descending, it has the initial point's +inf at index 0, so
    # one boolean mask selects the whole curve. Order within a tie group changes no count.
    buffer = np.append(samples.score, math.inf)
    buffer.sort()
    descending = buffer[::-1]
    # Where each tie group ends, at its last sample (-0.0 ties 0.0).
    ends = np.empty(buffer.size, dtype=bool)
    np.not_equal(descending[1:-1], descending[2:], out=ends[1:-1])
    ends[0] = ends[-1] = True
    threshold = descending[ends]
    # Only a group of -0.0 and 0.0 has members that differ; it keeps the
    # sign of whichever came first in input order, as a stable sort would.
    zero = np.flatnonzero(threshold == 0)
    if zero.size:
        threshold[zero] = samples.score[np.argmax(samples.score == 0)]
    # The positives' scores, in place among +inf, sort to the buffer's front;
    # those at or above a threshold are the positives not below it.
    buffer.fill(math.inf)
    np.copyto(buffer[:-1], samples.score, where=samples.positive)
    buffer.sort()
    tp = np.searchsorted(buffer[:positives], threshold, side="left").astype(np.int64, copy=False)
    del buffer, descending
    np.subtract(positives, tp, out=tp)
    # A point's index is the number of samples taken so far; those not positive are its fp.
    fp = np.flatnonzero(ends).astype(np.int64, copy=False)
    np.subtract(fp, tp, out=fp)
    return _of_own_arrays(RocCurve, fp=fp, tp=tp, threshold=threshold)


def auc_trapezoid(curve: RocCurve) -> float:
    """Area under the curve by the trapezoidal rule over consecutive points.

    The area is ``Σ Δfp·(tp_prev + tp_cur) / (2·P·N)``, with P and N the
    last point's counts: summed exactly in integers and divided once.
    """
    fp, tp = curve.fp, curve.tp
    doubled_pairs = 2 * int(fp[-1]) * int(tp[-1])
    if doubled_pairs < 2**63:
        # Each dot's terms and partial sums lie in [0, P·N], so int64 cannot wrap.
        steps = np.diff(fp)
        doubled_area = int(np.dot(steps, tp[:-1])) + int(np.dot(steps, tp[1:]))
    else:
        fps, tps = fp.tolist(), tp.tolist()
        doubled_area = sum((f1 - f0) * (t0 + t1) for f0, f1, t0, t1 in zip(fps, fps[1:], tps, tps[1:]))
    return doubled_area / doubled_pairs


def _pair_tallies_ranked(pos: np.ndarray, neg: np.ndarray) -> tuple[int, int]:
    """Rank-based tallies: sort the negatives once, binary-search each positive.

    ``pos`` is sorted in place: the searches then walk the negatives in
    order, and each finds the rows it reads still in the cache.
    """
    pos.sort()
    neg_sorted = np.sort(neg)
    below = np.searchsorted(neg_sorted, pos, side="left")
    through = np.searchsorted(neg_sorted, pos, side="right")
    greater = int(below.sum())
    equal = int((through - below).sum())
    return greater, equal


def auc_pair_count(samples: ScoredColumns) -> float:
    """AUC as the probability a random positive outscores a random negative.

    Ties get half credit. The tallies are exact integers: the negatives
    are sorted once and each positive is binary-searched among them. This
    is deliberately independent of the threshold sweep in
    :func:`roc_points` and serves as its cross-check.
    """
    pos, neg = samples.score[samples.positive], samples.score[~samples.positive]
    pairs = pos.size * neg.size
    if pairs == 0:
        raise ValueError(
            f"need both classes: got {pos.size} positive and {neg.size} negative samples"
        )
    greater, equal = _pair_tallies_ranked(pos, neg)
    # One exact integer ratio, one float rounding.
    return (2 * greater + equal) / (2 * pairs)
