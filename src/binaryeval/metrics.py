"""Ratio metrics and the Matthews correlation coefficient over a tally.

Every function takes a :class:`~binaryeval.counts.ConfusionCounts` and
returns either a float or ``None``. ``None`` is the explicit undefined
marker for zero-denominator cases: the core never substitutes 0 and never
produces NaN. The writers of :mod:`binaryeval.report` print what they are
given; the CLI's ``--zero-division zero`` hands them a copy of the
:class:`MetricSet` with 0.0 in place of each ``None``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from binaryeval.counts import ConfusionCounts

# A metric value: a real number, or None when the ratio is undefined.
MetricValue = float | None


@dataclass(frozen=True, slots=True)
class MetricSet:
    """All metric values computed from one tally.

    ``rec`` and ``sen`` are literal aliases of ``tpr``, and ``tnr`` of
    ``spc``: :func:`all_metrics` assigns the identical value to each.
    The order of the fields after ``counts`` is the canonical key order
    of the JSON and text reports (:meth:`as_dict`).
    """

    counts: ConfusionCounts
    err: MetricValue
    acc: MetricValue
    fpr: MetricValue
    tpr: MetricValue
    pre: MetricValue
    rec: MetricValue
    f1: MetricValue
    sen: MetricValue
    spc: MetricValue
    tnr: MetricValue
    mcc: MetricValue

    def as_dict(self) -> dict[str, MetricValue]:
        """Metric values keyed by short name, in field order."""
        return {f.name: getattr(self, f.name) for f in fields(self)[1:]}


def error_rate(c: ConfusionCounts) -> MetricValue:
    """(fp + fn) / total. Undefined on an empty tally."""
    if c.total == 0:
        return None
    return (c.fp + c.fn) / c.total


def accuracy(c: ConfusionCounts) -> MetricValue:
    """(tp + tn) / total; complements :func:`error_rate`. Undefined on an empty tally."""
    if c.total == 0:
        return None
    return (c.tp + c.tn) / c.total


def false_positive_rate(c: ConfusionCounts) -> MetricValue:
    """fp / (fp + tn). Undefined without actual negatives."""
    if c.negatives == 0:
        return None
    return c.fp / c.negatives


def true_positive_rate(c: ConfusionCounts) -> MetricValue:
    """tp / (tp + fn). Undefined without actual positives.

    Also exposed as :func:`recall` and :func:`sensitivity`.
    """
    if c.positives == 0:
        return None
    return c.tp / c.positives


recall = true_positive_rate
sensitivity = true_positive_rate


def precision(c: ConfusionCounts) -> MetricValue:
    """tp / (tp + fp). Undefined when nothing is predicted positive."""
    predicted_positive = c.tp + c.fp
    if predicted_positive == 0:
        return None
    return c.tp / predicted_positive


def f1_score(c: ConfusionCounts) -> MetricValue:
    """Harmonic combination 2*pre*rec / (pre + rec).

    Derived from :func:`precision` and :func:`recall` so that it is
    undefined exactly when either constituent is, or when both are zero.
    """
    pre = precision(c)
    rec = recall(c)
    if pre is None or rec is None or pre + rec == 0.0:
        return None
    return 2.0 * pre * rec / (pre + rec)


def specificity(c: ConfusionCounts) -> MetricValue:
    """tn / (fp + tn). Undefined without actual negatives.

    Also exposed as :func:`true_negative_rate`.
    """
    if c.negatives == 0:
        return None
    return c.tn / c.negatives


true_negative_rate = specificity


def matthews_corrcoef(c: ConfusionCounts) -> MetricValue:
    """(tp*tn - fp*fn) / sqrt((tp+fp)(tp+fn)(tn+fp)(tn+fn)), in [-1, 1].

    Undefined when any of the four marginal sums is zero. The numerator
    and the product under the root are computed in exact integer
    arithmetic, so no cell size can overflow an intermediate. A product
    beyond the float range takes its integer square root instead, which
    is at least 2**512, so its truncation is far below one ulp.
    """
    predicted_pos = c.tp + c.fp
    actual_pos = c.tp + c.fn
    predicted_neg = c.tn + c.fn
    actual_neg = c.tn + c.fp
    if 0 in (predicted_pos, actual_pos, predicted_neg, actual_neg):
        return None
    numerator = c.tp * c.tn - c.fp * c.fn
    denominator = predicted_pos * actual_pos * actual_neg * predicted_neg
    try:
        value = numerator / math.sqrt(denominator)
    except OverflowError:
        value = numerator / math.isqrt(denominator)
    # |MCC| <= 1 holds exactly in real arithmetic; clamp the last-ulp
    # rounding of the float division.
    return max(-1.0, min(1.0, value))


def all_metrics(c: ConfusionCounts) -> MetricSet:
    """Evaluate every metric once; alias fields share the identical value."""
    tpr = true_positive_rate(c)
    spc = specificity(c)
    return MetricSet(
        counts=c,
        err=error_rate(c),
        acc=accuracy(c),
        fpr=false_positive_rate(c),
        tpr=tpr,
        pre=precision(c),
        rec=tpr,
        f1=f1_score(c),
        sen=tpr,
        spc=spc,
        tnr=spc,
        mcc=matthews_corrcoef(c),
    )
