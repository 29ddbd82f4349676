"""Tally construction, merging and thresholding."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from binaryeval.counts import (
    ConfusionCounts,
    LabeledColumns,
    ScoredColumns,
    empty,
    from_predictions,
    merge,
    threshold_counts,
)

from oracles import apply_threshold, labeled_columns, scored_columns, tally_pairs

# The ten-pair worked tally reused across the suite: tp=4, fp=1, fn=2, tn=3.
# Each pair is (actual, predicted), true where that label is positive.
C_STAR_PAIRS = [(True, True)] * 4 + [(True, False)] * 2 + [(False, True)] + [(False, False)] * 3

counts_strategy = st.builds(
    ConfusionCounts,
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
)
labels = st.booleans()
pairs_strategy = st.lists(st.tuples(labels, labels), max_size=60)
samples_strategy = st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False), labels), max_size=40)


def tally_of(pairs) -> ConfusionCounts:
    return from_predictions(labeled_columns(pairs))


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


class TestOnePair:
    def test_true_positive_cell(self):
        assert tally_of([(True, True)]) == ConfusionCounts(tp=1, fp=0, fn=0, tn=0)

    def test_false_negative_sits_at_row_p_column_n(self):
        assert tally_of([(True, False)]) == ConfusionCounts(tp=0, fp=0, fn=1, tn=0)

    def test_false_positive_sits_at_row_n_column_p(self):
        assert tally_of([(False, True)]) == ConfusionCounts(tp=0, fp=1, fn=0, tn=0)

    def test_true_negative_cell(self):
        assert tally_of([(False, False)]) == ConfusionCounts(tp=0, fp=0, fn=0, tn=1)

    @given(counts_strategy, st.tuples(labels, labels))
    def test_merging_its_tally_increments_exactly_one_cell(self, c, pair):
        updated = merge(c, tally_of([pair]))
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
    def test_empty_columns(self):
        assert tally_of([]) == empty()

    def test_worked_ten_pair_tally(self):
        assert tally_of(C_STAR_PAIRS) == ConfusionCounts(tp=4, fp=1, fn=2, tn=3)

    def test_order_independent(self):
        assert tally_of(reversed(C_STAR_PAIRS)) == tally_of(C_STAR_PAIRS)

    @given(pairs_strategy)
    def test_sequential_fold_equals_the_whole(self, pairs):
        assert reduce(merge, (tally_of([pair]) for pair in pairs), empty()) == tally_of(pairs)

    @given(st.lists(pairs_strategy, max_size=6))
    def test_merge_over_any_partition(self, shards):
        whole = [pair for shard in shards for pair in shard]
        assert reduce(merge, map(tally_of, shards), empty()) == tally_of(whole)

    @given(pairs_strategy)
    def test_columns_equal_the_loop_over_their_pairs(self, pairs):
        assert tally_of(pairs) == tally_pairs(pairs)

    @given(pairs_strategy, st.lists(st.integers(0, 60), max_size=5))
    def test_merge_over_column_slices_equals_the_whole(self, pairs, cuts):
        columns = labeled_columns(pairs)
        bounds = [0, *sorted(min(cut, len(pairs)) for cut in cuts), len(pairs)]
        shards = (LabeledColumns(columns.actual[a:b], columns.predicted[a:b]) for a, b in zip(bounds, bounds[1:]))
        assert reduce(merge, map(from_predictions, shards), empty()) == from_predictions(columns)


class TestOneVsRest:
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=60))
    def test_class_tallies_split_the_correct_and_the_wrong_predictions(self, pairs):
        # Class k against the rest: a pair is positive where its label is k.
        tallies = [
            from_predictions(LabeledColumns([a == k for a, _ in pairs], [p == k for _, p in pairs])) for k in range(4)
        ]
        correct = sum(a == p for a, p in pairs)
        assert all(tally.total == len(pairs) for tally in tallies)
        assert sum(tally.tp for tally in tallies) == correct
        assert sum(tally.fp for tally in tallies) == sum(tally.fn for tally in tallies) == len(pairs) - correct


class TestApplyThreshold:
    def test_clean_separation(self):
        assert apply_threshold([(0.9, True), (0.2, False)], 0.5) == [(True, True), (False, False)]

    def test_boundary_score_counts_as_positive(self):
        assert apply_threshold([(0.5, False)], 0.5) == [(False, True)]

    def test_plus_infinity_predicts_all_negative(self):
        samples = [(s, True) for s in (0.1, 5.0, 1e300)]
        assert not any(predicted for _, predicted in apply_threshold(samples, math.inf))

    def test_minus_infinity_predicts_all_positive(self):
        samples = [(s, False) for s in (-1e300, 0.0, 3.0)]
        assert all(predicted for _, predicted in apply_threshold(samples, -math.inf))

    def test_nan_threshold_rejected(self):
        with pytest.raises(ValueError):
            apply_threshold([(0.5, True)], math.nan)

    @given(samples_strategy, st.floats(allow_nan=False), st.floats(allow_nan=False))
    def test_higher_threshold_shrinks_the_positive_set(self, samples, t1, t2):
        high, low = max(t1, t2), min(t1, t2)
        positives_high = {i for i, (_, predicted) in enumerate(apply_threshold(samples, high)) if predicted}
        positives_low = {i for i, (_, predicted) in enumerate(apply_threshold(samples, low)) if predicted}
        assert positives_high <= positives_low

    @given(samples_strategy, st.floats(allow_nan=False))
    def test_actual_labels_and_order_preserved(self, samples, threshold):
        out = apply_threshold(samples, threshold)
        assert [actual for actual, _ in out] == [positive for _, positive in samples]


class TestThresholdCounts:
    @given(
        st.one_of(
            samples_strategy,
            st.lists(st.tuples(st.integers(0, 4).map(lambda v: v / 4), labels), max_size=40),
        ),
        st.data(),
    )
    def test_equals_the_tally_of_apply_threshold(self, samples, data):
        drawn = data.draw(st.sampled_from([score for score, _ in samples] + [math.inf, -math.inf]))
        columns = scored_columns(samples)
        # An integer beyond the float range is compared exactly, so it acts as an infinity of its sign.
        for threshold in (drawn, 10**400, -(10**400)):
            assert threshold_counts(columns, threshold) == tally_pairs(apply_threshold(samples, threshold))

    def test_nan_threshold_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            threshold_counts(ScoredColumns([0.5], [True]), math.nan)


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


class TestScoredColumns:
    @given(
        samples_strategy,
        st.none() | st.integers(-45, 45),
        st.none() | st.integers(-45, 45),
        st.none() | st.integers(-5, 5).filter(bool),
    )
    def test_columns_of_sliced_arrays_are_those_of_the_sliced_samples(self, samples, start, stop, step):
        columns = scored_columns(samples)
        part = slice(start, stop, step)
        sliced = ScoredColumns(columns.score[part], columns.positive[part])
        assert len(columns) == len(samples)
        assert list(zip(sliced.score.tolist(), sliced.positive.tolist())) == samples[part]

    def test_columns_are_read_only_copies(self):
        score, positive = [0.5, -1.0], [True, False]
        columns = ScoredColumns(score, positive)
        assert columns.score.dtype == np.float64 and columns.positive.dtype == bool
        with pytest.raises(ValueError):
            columns.score[0] = 2.0
        with pytest.raises(ValueError):
            columns.positive[0] = False
        assert len(columns) == 2
        with pytest.raises(TypeError):
            iter(columns)  # its samples are its columns, not a sequence

    def test_non_finite_scores_rejected(self):
        # An integer beyond the float range is read as an infinity of its sign, as threshold_counts reads one.
        for bad in (math.nan, math.inf, -math.inf, 10**400, -(10**400)):
            with pytest.raises(ValueError, match="non-finite score at record 1"):
                ScoredColumns([0.5, bad], [True, False])

    def test_score_coerced_to_float(self):
        columns = ScoredColumns([1, -2], [True, False])
        assert columns.score.dtype == np.float64
        assert columns.score.tolist() == [1.0, -2.0]
        # Integers beyond 64 bits and other real numbers read as the nearest float.
        columns = ScoredColumns(np.array([2**64, Fraction(1, 3)], dtype=object), [True, False])
        assert columns.score.tolist() == [2.0**64, 1 / 3]
        assert ScoredColumns((2**64, 0.5), (True, False)).score.tolist() == [2.0**64, 0.5]

    @pytest.mark.parametrize("score", [
        np.array([True, False]), ["0.5", "1"], np.array(["0.5", "1"]), np.array([b"0.5", b"1"]),
        [True, 0.5], (0.5, False), [10**400, True], np.array([2**64, True], dtype=object), [None, 0.5],
    ], ids=["bool-dtype", "text-list", "str-dtype", "bytes-dtype", "bool-in-a-float-list", "bool-in-a-tuple",
            "bool-beside-a-big-integer", "bool-in-an-object-array", "none"])
    def test_booleans_and_text_are_rejected(self, score):
        with pytest.raises(ValueError, match="^score must hold integers or floats, not booleans or text$"):
            ScoredColumns(score, [True, False])

    def test_shape_and_finiteness_checked_once_at_construction(self):
        with pytest.raises(ValueError, match="one length"):
            ScoredColumns([0.5, 0.25], [True])
        with pytest.raises(ValueError, match="1-d"):
            ScoredColumns([[0.5]], [[True]])
        with pytest.raises(ValueError, match="non-finite score at record 1: nan"):
            ScoredColumns([0.5, math.nan], [True, False])
        for bad in (math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"non-finite score at record 0: {bad!r}"):
                ScoredColumns([bad, 0.5], [True, False])


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
    for values in ([None], [True, None], [1, 0], [0.0], ["1"], np.array([1], dtype=np.uint8)):
        with pytest.raises(ValueError, match="must hold booleans"):
            make(values)
    assert len(make([])) == 0
    assert len(make(np.array([True, False]))) == 2
