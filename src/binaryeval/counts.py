"""Exact confusion-matrix tallies for binary classification.

Everything here is a plain immutable value: tallies are accumulated by
building new :class:`ConfusionCounts` instances, so sharded/parallel
accumulation followed by :func:`merge` is bit-identical to a sequential
fold of :func:`merge` over the tallies of one pair at a time.

Pairs of labels and scored samples have one form each, two columns:
:class:`LabeledColumns` and :class:`ScoredColumns`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import TypeVar

import numpy as np

_Holder = TypeVar("_Holder")


def _real(value: float) -> float:
    """``float(value)``, with an integer beyond the float range read as ``+inf`` or ``-inf``."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _holds_a_boolean(values: object) -> bool:
    """Whether ``values`` is a list or tuple holding a boolean: numpy reads ``[True, 0.5]`` as floats."""
    return isinstance(values, (list, tuple)) and any(isinstance(item, (bool, np.bool_)) for item in values)


def _reals(values: object, name: str) -> np.ndarray:
    """A ``float64`` array copy of ``values``, an integer beyond the float range as an infinity of its sign.

    ValueError naming ``name`` unless they are integers or floats: numpy reads
    ``[10**400]`` as objects, so the items are checked.
    """
    array = np.asarray(values)
    if array.dtype == object and all(isinstance(item, numbers.Real) and not isinstance(item, bool) for item in array.flat):
        return np.array([_real(item) for item in array.flat], dtype=np.float64).reshape(array.shape)
    if array.dtype.kind in "iuf" and not _holds_a_boolean(values):
        return np.array(array, dtype=np.float64)
    raise ValueError(f"{name} must hold integers or floats, not booleans or text")


def _count_column(values: object, name: str) -> np.ndarray:
    """An ``int64`` array copy of ``values``, checked first: the cast would truncate 0.5 and wrap 2**63."""
    column = np.array(values)
    if column.dtype.kind not in "iu":
        raise ValueError(f"{name} must hold integers in [0, 2**63), got dtype {column.dtype}")
    if _holds_a_boolean(values):
        raise ValueError(f"{name} must hold integers in [0, 2**63), not booleans")
    if column.size and (column.min() < 0 or column.max() >= 2**63):  # no n-sized mask unless one is out
        outside = (column < 0) | (column >= 2**63)
        raise ValueError(f"{name} must hold integers in [0, 2**63), got {column[outside][0].item()}")
    return column.astype(np.int64, copy=False)


def _mask(values: object, name: str) -> np.ndarray:
    """A ``bool`` array copy of ``values``; ValueError unless they are booleans or empty."""
    mask = np.array(values)
    if mask.dtype != bool and mask.size:
        raise ValueError(f"{name} must hold booleans, got dtype {mask.dtype}")
    return mask.astype(bool, copy=False)


def _one_length(names: str, first: np.ndarray, *rest: np.ndarray) -> None:
    """ValueError naming ``names`` unless the arrays are 1-d and of one length."""
    if first.ndim != 1 or any(column.shape != first.shape for column in rest):
        raise ValueError(f"{names} must be 1-d arrays of one length")


def _hold(owner: object, **columns: np.ndarray) -> None:
    """Store each array on the frozen ``owner`` under its name, read-only."""
    for name, column in columns.items():
        column.flags.writeable = False
        object.__setattr__(owner, name, column)


def _of_own_arrays(cls: type[_Holder], **columns: np.ndarray) -> _Holder:
    """A ``cls`` that holds the package's own fresh arrays as they are, read-only.

    Not copied, which would hold them twice at the peak, nor checked
    again: the parsers and the sweep build only valid columns, and the
    tests check theirs with the public constructors.
    """
    holder = object.__new__(cls)
    _hold(holder, **columns)
    return holder


@dataclass(frozen=True, slots=True, eq=False)
class ScoredColumns:
    """Scored samples as two read-only columns of one length.

    ``score`` is a ``float64`` array of finite scores and ``positive`` a
    ``bool`` array, true where the actual label is positive; index ``i``
    of each is sample ``i``. The constructor copies and checks both, the
    one place scored samples from outside the package are checked to be
    finite numbers; the parser's own arrays are held as they are. Its
    length is the number of samples.
    """

    score: np.ndarray
    positive: np.ndarray

    def __post_init__(self) -> None:
        score = _reals(self.score, "score")
        positive = _mask(self.positive, "positive")
        _one_length("score and positive", score, positive)
        # The least and the greatest score are finite exactly when every score
        # is (a NaN is both), and finding them allocates no n-sized mask.
        if score.size and not (math.isfinite(score.min()) and math.isfinite(score.max())):
            index = int(np.argmin(np.isfinite(score)))
            raise ValueError(f"non-finite score at record {index}: {score[index].item()!r}")
        _hold(self, score=score, positive=positive)

    def __len__(self) -> int:
        return self.score.size


@dataclass(frozen=True, slots=True, eq=False)
class LabeledColumns:
    """Pairs of (actual, predicted) labels as two read-only ``bool`` columns of one length.

    ``actual`` and ``predicted`` are true where that label is positive;
    index ``i`` of each is pair ``i``. The constructor copies and checks
    both; the parser's own arrays are held as they are. Its length is the
    number of pairs.
    """

    actual: np.ndarray
    predicted: np.ndarray

    def __post_init__(self) -> None:
        actual = _mask(self.actual, "actual")
        predicted = _mask(self.predicted, "predicted")
        _one_length("actual and predicted", actual, predicted)
        _hold(self, actual=actual, predicted=predicted)

    def __len__(self) -> int:
        return self.actual.size


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


def from_predictions(pairs: LabeledColumns) -> ConfusionCounts:
    """Tally label pairs; merging the tallies of any sharding of them gives the same."""
    return _tally(pairs.actual, pairs.predicted)


def threshold_counts(samples: ScoredColumns, threshold: float) -> ConfusionCounts:
    """The tally of hard predictions that are positive iff score >= ``threshold``.

    ``threshold`` is one integer or float, as each score is: booleans and
    text are rejected, and so is NaN. ``+inf`` predicts everything negative
    and ``-inf`` everything positive, as does an integer beyond the float
    range of that sign. Counted over the score column, without building
    one prediction per sample.
    """
    threshold = _reals(threshold, "threshold")
    if threshold.ndim or math.isnan(threshold):
        raise ValueError("threshold must be one real number or +/-inf, not NaN")
    return _tally(samples.positive, samples.score >= threshold)
