"""Tally construction, merging, binarization and thresholding."""

from __future__ import annotations

import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from binaryeval.counts import (
    ConfusionCounts,
    Label,
    LabeledColumns,
    LabeledPrediction,
    ScoredColumns,
    ScoredSample,
    _columns,
    binarize,
    empty,
    from_predictions,
    merge,
    record,
    threshold_counts,
)
from binaryeval.roc import auc_pair_count, roc_points

from oracles import apply_threshold, tally_pairs

P = Label.POSITIVE
N = Label.NEGATIVE


def lp(actual: Label, predicted: Label) -> LabeledPrediction:
    return LabeledPrediction(actual=actual, predicted=predicted)

# The ten-pair worked tally reused across the suite: tp=4, fp=1, fn=2, tn=3.
C_STAR_PAIRS = [
    lp(P, P), lp(P, P), lp(P, P), lp(P, P),
    lp(P, N), lp(P, N),
    lp(N, P),
    lp(N, N), lp(N, N), lp(N, N),
]

counts_strategy = st.builds(
    ConfusionCounts,
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
)
labels = st.sampled_from([P, N])
pairs_strategy = st.lists(st.builds(LabeledPrediction, labels, labels), max_size=60)
samples_strategy = st.lists(
    st.builds(ScoredSample, st.floats(allow_nan=False, allow_infinity=False), labels),
    max_size=40,
)


def columns_of(pairs: list[LabeledPrediction]) -> LabeledColumns:
    return LabeledColumns([p.actual is P for p in pairs], [p.predicted is P for p in pairs])


class TestConfusionCounts:
    def test_empty_is_all_zero(self):
        assert empty() == ConfusionCounts(tp=0, fp=0, fn=0, tn=0)
        assert empty().total == 0

    def test_accessors(self):
        c = ConfusionCounts(tp=4, fp=1, fn=2, tn=3)
        assert c.total == 10
        assert c.positives == 6
        assert c.negatives == 4

    @pytest.mark.parametrize("bad", [{"tp": -1}, {"fp": -2}, {"fn": -1}, {"tn": -7}])
    def test_negative_cells_rejected(self, bad):
        cells = {"tp": 0, "fp": 0, "fn": 0, "tn": 0, **bad}
        with pytest.raises(ValueError):
            ConfusionCounts(**cells)

    def test_non_integer_cells_rejected(self):
        with pytest.raises(TypeError):
            ConfusionCounts(tp=1.0, fp=0, fn=0, tn=0)
        with pytest.raises(TypeError):
            ConfusionCounts(tp=True, fp=0, fn=0, tn=0)

    def test_numpy_integers_coerced_to_python_int(self):
        np = pytest.importorskip("numpy")
        c = ConfusionCounts(tp=np.int64(2), fp=np.int64(0), fn=np.int64(1), tn=np.int64(0))
        assert type(c.tp) is int
        # Arithmetic on coerced cells is arbitrary precision, no wraparound.
        big = ConfusionCounts(tp=2**62, fp=0, fn=0, tn=0)
        assert merge(big, big).tp == 2**63

    @given(counts_strategy)
    def test_positives_plus_negatives_is_total(self, c):
        assert c.positives + c.negatives == c.total


class TestRecord:
    def test_true_positive_cell(self):
        assert record(empty(), lp(P, P)) == ConfusionCounts(tp=1, fp=0, fn=0, tn=0)

    def test_false_negative_sits_at_row_p_column_n(self):
        assert record(empty(), lp(P, N)) == ConfusionCounts(tp=0, fp=0, fn=1, tn=0)

    def test_false_positive_sits_at_row_n_column_p(self):
        assert record(empty(), lp(N, P)) == ConfusionCounts(tp=0, fp=1, fn=0, tn=0)

    def test_true_negative_cell(self):
        assert record(empty(), lp(N, N)) == ConfusionCounts(tp=0, fp=0, fn=0, tn=1)

    @given(counts_strategy, st.builds(LabeledPrediction, labels, labels))
    def test_exactly_one_cell_incremented(self, c, pair):
        updated = record(c, pair)
        deltas = [updated.tp - c.tp, updated.fp - c.fp, updated.fn - c.fn, updated.tn - c.tn]
        assert sorted(deltas) == [0, 0, 0, 1]


class TestMerge:
    def test_cell_wise_sum(self):
        a = ConfusionCounts(tp=1, fp=0, fn=2, tn=0)
        b = ConfusionCounts(tp=0, fp=3, fn=0, tn=1)
        assert merge(a, b) == ConfusionCounts(tp=1, fp=3, fn=2, tn=1)

    @given(counts_strategy)
    def test_empty_is_identity(self, c):
        assert merge(c, empty()) == c
        assert merge(empty(), c) == c

    @given(counts_strategy, counts_strategy)
    def test_commutative(self, a, b):
        assert merge(a, b) == merge(b, a)

    @given(counts_strategy, counts_strategy, counts_strategy)
    def test_associative(self, a, b, c):
        assert merge(merge(a, b), c) == merge(a, merge(b, c))

    @given(counts_strategy, counts_strategy)
    def test_total_adds_up(self, a, b):
        assert merge(a, b).total == a.total + b.total


class TestFromPredictions:
    def test_empty_sequence(self):
        assert from_predictions([]) == empty()

    def test_worked_ten_pair_tally(self):
        assert from_predictions(C_STAR_PAIRS) == ConfusionCounts(tp=4, fp=1, fn=2, tn=3)

    def test_order_independent(self):
        shuffled = list(reversed(C_STAR_PAIRS))
        assert from_predictions(shuffled) == from_predictions(C_STAR_PAIRS)

    @given(pairs_strategy)
    def test_equals_fold_of_record(self, pairs):
        assert from_predictions(pairs) == from_predictions(iter(pairs)) == reduce(record, pairs, empty())

    @given(st.lists(pairs_strategy, max_size=6))
    def test_merge_over_any_partition(self, shards):
        whole = [pair for shard in shards for pair in shard]
        merged = reduce(merge, (from_predictions(shard) for shard in shards), empty())
        assert merged == from_predictions(whole)

    @given(pairs_strategy)
    def test_columns_equal_the_loop_over_their_pairs(self, pairs):
        assert from_predictions(columns_of(pairs)) == from_predictions(pairs) == tally_pairs(pairs)

    @given(pairs_strategy, st.lists(st.integers(0, 60), max_size=5))
    def test_merge_over_column_slices_equals_the_whole(self, pairs, cuts):
        columns = columns_of(pairs)
        bounds = [0, *sorted(min(cut, len(pairs)) for cut in cuts), len(pairs)]
        shards = (LabeledColumns(columns.actual[a:b], columns.predicted[a:b]) for a, b in zip(bounds, bounds[1:]))
        assert reduce(merge, map(from_predictions, shards), empty()) == from_predictions(columns)


class TestBinarize:
    def test_positive_class_match(self):
        assert binarize("cat", positive_class="cat") is P

    def test_other_class_collapses_to_negative(self):
        assert binarize("dog", positive_class="cat") is N

    def test_all_non_positive_classes_share_the_negative_label(self):
        assert binarize("bird", positive_class="cat") is N

    def test_works_for_any_equality_comparable_identifier(self):
        assert binarize(3, positive_class=3) is P
        assert binarize((1, 2), positive_class=(1, 3)) is N


class TestApplyThreshold:
    def test_clean_separation(self):
        samples = [ScoredSample(0.9, P), ScoredSample(0.2, N)]
        assert apply_threshold(samples, 0.5) == [lp(P, P), lp(N, N)]

    def test_boundary_score_counts_as_positive(self):
        assert apply_threshold([ScoredSample(0.5, N)], 0.5) == [lp(N, P)]

    def test_plus_infinity_predicts_all_negative(self):
        samples = [ScoredSample(s, P) for s in (0.1, 5.0, 1e300)]
        assert all(p.predicted is N for p in apply_threshold(samples, math.inf))

    def test_minus_infinity_predicts_all_positive(self):
        samples = [ScoredSample(s, N) for s in (-1e300, 0.0, 3.0)]
        assert all(p.predicted is P for p in apply_threshold(samples, -math.inf))

    def test_nan_threshold_rejected(self):
        with pytest.raises(ValueError):
            apply_threshold([ScoredSample(0.5, P)], math.nan)

    @given(samples_strategy, st.floats(allow_nan=False), st.floats(allow_nan=False))
    def test_higher_threshold_shrinks_the_positive_set(self, samples, t1, t2):
        high, low = max(t1, t2), min(t1, t2)
        positives_high = {
            i for i, p in enumerate(apply_threshold(samples, high)) if p.predicted is P
        }
        positives_low = {
            i for i, p in enumerate(apply_threshold(samples, low)) if p.predicted is P
        }
        assert positives_high <= positives_low

    @given(samples_strategy, st.floats(allow_nan=False))
    def test_actual_labels_and_order_preserved(self, samples, threshold):
        out = apply_threshold(samples, threshold)
        assert [p.actual for p in out] == [s.actual for s in samples]


class TestThresholdCounts:
    @given(
        st.one_of(
            samples_strategy,
            st.lists(st.builds(ScoredSample, st.integers(0, 4).map(lambda v: v / 4), labels), max_size=40),
        ),
        st.data(),
    )
    def test_equals_the_tally_of_apply_threshold(self, samples, data):
        drawn = data.draw(st.sampled_from([s.score for s in samples] + [math.inf, -math.inf]))
        columns = ScoredColumns([s.score for s in samples], [s.actual is P for s in samples])
        # An integer beyond the float range is compared exactly, so it acts as an infinity of its sign.
        for threshold in (drawn, 10**400, -(10**400)):
            assert threshold_counts(samples, threshold) == from_predictions(apply_threshold(samples, threshold))
            assert threshold_counts(columns, threshold) == threshold_counts(samples, threshold)

    def test_nan_threshold_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            threshold_counts([ScoredSample(0.5, P)], math.nan)

    @given(samples_strategy, st.floats(allow_nan=False))
    def test_a_one_shot_iterator_gives_the_tally_and_auc_of_the_list(self, samples, threshold):
        # Both classes are present, so the pair-count AUC is defined.
        samples = [ScoredSample(0.5, P), ScoredSample(0.2, N), *samples]
        assert threshold_counts(iter(samples), threshold) == threshold_counts(samples, threshold)
        assert auc_pair_count(iter(samples)) == auc_pair_count(samples)
        curve, expected = roc_points(iter(samples)), roc_points(samples)
        for column in ("fp", "tp", "threshold"):
            assert getattr(curve, column).tobytes() == getattr(expected, column).tobytes()


class TestLabeledColumns:
    def test_columns_are_read_only_and_of_one_length(self):
        columns = LabeledColumns([True, False], [False, False])
        assert columns.actual.dtype == bool and columns.predicted.dtype == bool
        with pytest.raises(ValueError):
            columns.actual[0] = False
        with pytest.raises(ValueError):
            columns.predicted[0] = True
        assert len(columns) == 2
        assert (columns.actual.tolist(), columns.predicted.tolist()) == ([True, False], [False, False])
        with pytest.raises(TypeError):
            columns[0]  # its pairs are its columns, not a sequence
        with pytest.raises(ValueError, match="one length"):
            LabeledColumns([True, False], [True])
        with pytest.raises(ValueError, match="1-d"):
            LabeledColumns([[True]], [[True]])


class TestScoredSample:
    def test_non_finite_scores_rejected(self):
        for bad in (math.nan, math.inf, -math.inf, 10**400):
            with pytest.raises(ValueError):
                ScoredSample(bad, P)

    def test_score_coerced_to_float(self):
        assert ScoredSample(1, P).score == 1.0
        assert type(ScoredSample(1, P).score) is float


class TestScoredColumns:
    @given(
        samples_strategy,
        st.none() | st.integers(-45, 45),
        st.none() | st.integers(-45, 45),
        st.none() | st.integers(-5, 5).filter(bool),
    )
    def test_columns_of_sliced_arrays_are_those_of_the_sliced_samples(self, samples, start, stop, step):
        columns = _columns(samples)
        part = slice(start, stop, step)
        sliced = ScoredColumns(columns.score[part], columns.positive[part])
        assert len(columns) == len(samples)
        assert sliced.score.tolist() == _columns(samples[part]).score.tolist() == [s.score for s in samples[part]]
        assert sliced.positive.tolist() == [s.actual is P for s in samples[part]]

    def test_columns_are_read_only_copies_handed_over_as_they_are(self):
        score, positive = [0.5, -1.0], [True, False]
        columns = ScoredColumns(score, positive)
        assert columns.score.dtype == np.float64 and columns.positive.dtype == bool
        with pytest.raises(ValueError):
            columns.score[0] = 2.0
        with pytest.raises(ValueError):
            columns.positive[0] = False
        assert _columns(columns) is columns
        assert len(columns) == 2
        with pytest.raises(TypeError):
            iter(columns)  # its samples are its columns, not a sequence

    def test_shape_and_finiteness_checked_once_at_construction(self):
        with pytest.raises(ValueError, match="one length"):
            ScoredColumns([0.5, 0.25], [True])
        with pytest.raises(ValueError, match="1-d"):
            ScoredColumns([[0.5]], [[True]])
        with pytest.raises(ValueError, match="non-finite score at record 1: nan"):
            ScoredColumns([0.5, math.nan], [True, False])


@pytest.mark.parametrize(
    "make",
    [
        lambda mask: ScoredColumns([0.9] * len(mask), mask),
        lambda mask: LabeledColumns(mask, [True] * len(mask)),
        lambda mask: LabeledColumns([True] * len(mask), mask),
    ],
    ids=["ScoredColumns.positive", "LabeledColumns.actual", "LabeledColumns.predicted"],
)
def test_a_mask_that_is_not_boolean_is_rejected(make):
    for values in ([N], [P, N], [1, 0], [0.0], ["1"], np.array([1], dtype=np.uint8)):
        with pytest.raises(ValueError, match="must hold booleans"):
            make(values)
    assert len(make([])) == 0
    assert len(make(np.array([True, False]))) == 2
