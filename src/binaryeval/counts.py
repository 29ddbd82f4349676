"""Exact confusion-matrix tallies for binary classification.

Everything here is a plain immutable value: tallies are accumulated by
building new :class:`ConfusionCounts` instances, so sharded/parallel
accumulation followed by :func:`merge` is bit-identical to a sequential
fold of :func:`record`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import Hashable, Iterable, Iterator, Sequence

import numpy as np


class Label(Enum):
    """One of the two classes a sample can belong to."""

    POSITIVE = "positive"
    NEGATIVE = "negative"


@dataclass(frozen=True, slots=True)
class LabeledPrediction:
    """A single (actual, predicted) label pair."""

    actual: Label
    predicted: Label


@dataclass(frozen=True, slots=True)
class ScoredSample:
    """An actual label together with the classifier's positive-class score.

    The score must be finite (no NaN, no infinities); it is typically a
    posterior probability but any finite real works.
    """

    score: float
    actual: Label

    def __post_init__(self) -> None:
        try:
            score = float(self.score)
        except OverflowError:  # an integer beyond the float range
            score = math.inf
        if not math.isfinite(score):
            raise ValueError(f"score must be finite, got {self.score!r}")
        object.__setattr__(self, "score", score)


# The label of each value of a positive-class mask, indexed by the mask value.
_LABELS = (Label.NEGATIVE, Label.POSITIVE)


def _mask(values: object, name: str) -> np.ndarray:
    """A ``bool`` array copy of ``values``; ValueError unless they are booleans or empty."""
    mask = np.array(values)
    if mask.dtype != bool and mask.size:
        raise ValueError(f"{name} must hold booleans, got dtype {mask.dtype}")
    return mask.astype(bool, copy=False)


@dataclass(frozen=True, slots=True, eq=False)
class ScoredColumns(Sequence[ScoredSample]):
    """Scored samples as two read-only columns of one length.

    ``score`` is a ``float64`` array of finite scores and ``positive`` a
    ``bool`` array, true where the actual label is positive; index ``i``
    of each is sample ``i``. Both are copied and checked once, here. As a
    sequence it holds one :class:`ScoredSample` per index, built on access;
    a slice is a ``ScoredColumns`` of the sliced columns.
    """

    score: np.ndarray
    positive: np.ndarray

    def __post_init__(self) -> None:
        score = np.array(self.score, dtype=np.float64)
        positive = _mask(self.positive, "positive")
        if score.ndim != 1 or score.shape != positive.shape:
            raise ValueError("score and positive must be 1-d arrays of one length")
        finite = np.isfinite(score)
        if not finite.all():
            index = int(np.argmin(finite))
            raise ValueError(f"non-finite score at record {index}: {score[index].item()!r}")
        for name, column in (("score", score), ("positive", positive)):
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return self.score.size

    def __getitem__(self, index: int | slice) -> ScoredSample | ScoredColumns:
        if isinstance(index, slice):
            return ScoredColumns(self.score[index], self.positive[index])
        return ScoredSample(self.score[index].item(), _LABELS[self.positive[index].item()])

    def __iter__(self) -> Iterator[ScoredSample]:
        return map(ScoredSample, self.score.tolist(), map(_LABELS.__getitem__, self.positive.tolist()))


@dataclass(frozen=True, slots=True, eq=False)
class LabeledColumns(Sequence[LabeledPrediction]):
    """Label pairs as two read-only ``bool`` columns of one length.

    ``actual`` and ``predicted`` are true where that label is positive;
    index ``i`` of each is pair ``i``. Both are copied and checked once,
    here. As a sequence it holds one :class:`LabeledPrediction` per index,
    built on access; a slice is a ``LabeledColumns`` of the sliced columns.
    """

    actual: np.ndarray
    predicted: np.ndarray

    def __post_init__(self) -> None:
        actual = _mask(self.actual, "actual")
        predicted = _mask(self.predicted, "predicted")
        if actual.ndim != 1 or actual.shape != predicted.shape:
            raise ValueError("actual and predicted must be 1-d arrays of one length")
        for name, column in (("actual", actual), ("predicted", predicted)):
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return self.actual.size

    def __getitem__(self, index: int | slice) -> LabeledPrediction | LabeledColumns:
        if isinstance(index, slice):
            return LabeledColumns(self.actual[index], self.predicted[index])
        return LabeledPrediction(_LABELS[self.actual[index].item()], _LABELS[self.predicted[index].item()])

    def __iter__(self) -> Iterator[LabeledPrediction]:
        actual, predicted = (map(_LABELS.__getitem__, column.tolist()) for column in (self.actual, self.predicted))
        return map(LabeledPrediction, actual, predicted)


@dataclass(frozen=True, slots=True)
class ConfusionCounts:
    """The four cells of a 2x2 confusion matrix (rows actual, columns predicted).

    Cells are Python integers, so tallies are exact at any magnitude and
    arithmetic can never silently wrap around.
    """

    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self) -> None:
        for name in ("tp", "fp", "fn", "tn"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise TypeError(f"{name} must be an integer, got {value!r}")
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
            object.__setattr__(self, name, int(value))

    @property
    def total(self) -> int:
        """Number of recorded samples."""
        return self.tp + self.fp + self.fn + self.tn

    @property
    def positives(self) -> int:
        """Number of samples whose actual label is positive."""
        return self.tp + self.fn

    @property
    def negatives(self) -> int:
        """Number of samples whose actual label is negative."""
        return self.fp + self.tn


def empty() -> ConfusionCounts:
    """The all-zero tally; identity element of :func:`merge`."""
    return ConfusionCounts(tp=0, fp=0, fn=0, tn=0)


def record(counts: ConfusionCounts, prediction: LabeledPrediction) -> ConfusionCounts:
    """Return a new tally with the cell for ``prediction`` incremented by one."""
    return merge(counts, from_predictions((prediction,)))


def merge(a: ConfusionCounts, b: ConfusionCounts) -> ConfusionCounts:
    """Cell-wise sum of two tallies."""
    return ConfusionCounts(
        tp=a.tp + b.tp,
        fp=a.fp + b.fp,
        fn=a.fn + b.fn,
        tn=a.tn + b.tn,
    )


def _tally(actual: np.ndarray, predicted: np.ndarray) -> ConfusionCounts:
    """The tally of two ``bool`` masks of one length, true where that label is positive."""
    tp = int(np.count_nonzero(actual & predicted))
    fp = int(np.count_nonzero(predicted)) - tp
    fn = int(np.count_nonzero(actual)) - tp
    return ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=actual.size - tp - fp - fn)


def from_predictions(pairs: Iterable[LabeledPrediction]) -> ConfusionCounts:
    """Tally label pairs; equal to folding :func:`record` over :func:`empty`.

    A :class:`LabeledColumns` is counted over its columns, any other iterable pair by pair.
    """
    if isinstance(pairs, LabeledColumns):
        return _tally(pairs.actual, pairs.predicted)
    tp = fp = fn = tn = 0
    for pair in pairs:
        if pair.actual is Label.POSITIVE:
            if pair.predicted is Label.POSITIVE:
                tp += 1
            else:
                fn += 1
        elif pair.predicted is Label.POSITIVE:
            fp += 1
        else:
            tn += 1
    return ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn)


def binarize(actual_class: Hashable, positive_class: Hashable) -> Label:
    """One-vs-rest reduction: equal to the chosen positive class, or not.

    Every class identifier other than ``positive_class`` collapses to the
    negative label, so multi-class inputs reduce to a binary problem
    against one declared positive class.
    """
    return Label.POSITIVE if actual_class == positive_class else Label.NEGATIVE


def _columns(samples: Sequence[ScoredSample]) -> tuple[np.ndarray, np.ndarray]:
    """The scores as ``float64[n]`` and the positive-class mask as ``bool[n]``, in sample order.

    A :class:`ScoredColumns` hands over its own read-only arrays. Any
    other sequence is read row by row, and a ValueError names its first
    record whose score is not finite.
    """
    if isinstance(samples, ScoredColumns):
        return samples.score, samples.positive
    score = np.fromiter(map(attrgetter("score"), samples), dtype=np.float64, count=len(samples))
    finite = np.isfinite(score)
    if not finite.all():
        index = int(np.argmin(finite))
        raise ValueError(f"non-finite score at record {index}: {samples[index].score!r}")
    positive = np.fromiter(
        (sample.actual is Label.POSITIVE for sample in samples), dtype=bool, count=len(samples)
    )
    return score, positive


def threshold_counts(samples: Sequence[ScoredSample], threshold: float) -> ConfusionCounts:
    """The tally of hard predictions that are positive iff score >= ``threshold``.

    ``+inf`` predicts everything negative and ``-inf`` everything positive;
    NaN is rejected. Counted over the score column, without building one
    prediction per sample.
    """
    threshold = float(threshold)
    if math.isnan(threshold):
        raise ValueError("threshold must be a real number or +/-inf, not NaN")
    score, positive = _columns(samples)
    return _tally(positive, score >= threshold)
