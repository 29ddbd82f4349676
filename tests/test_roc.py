"""Threshold sweep, trapezoidal AUC, and the pair-counting cross-check."""

from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from binaryeval.counts import LabeledColumns, ScoredColumns, _of_own_arrays, from_predictions, threshold_counts
from binaryeval.metrics import false_positive_rate, true_positive_rate
from binaryeval.roc import (
    RocCurve,
    _pair_tallies_ranked,
    auc_pair_count,
    auc_trapezoid,
    roc_points,
)

from oracles import (
    apply_threshold,
    labeled_columns,
    pair_tallies_brute,
    roc_sweep,
    roc_sweep_stable,
    scored_columns,
)

# The positive flag of a (score, positive) row.
P, N = True, False


def samples(*rows: tuple[float, bool]) -> ScoredColumns:
    return scored_columns(rows)


FOUR_SAMPLES = samples((0.9, P), (0.8, N), (0.7, P), (0.6, N))


def checked_sweep(columns: ScoredColumns) -> RocCurve:
    """``roc_points(columns)``, once the public constructor has checked its arrays: the sweep hands them over unchecked."""
    curve = roc_points(columns)
    RocCurve(curve.fp, curve.tp, curve.threshold)
    return curve


@st.composite
def sample_sets(draw, tie_heavy: bool = False):
    """At least one sample of each class; tie_heavy draws scores off a small grid."""
    if tie_heavy:
        scores = st.integers(0, 6).map(lambda v: v / 4)
    else:
        scores = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
    pos = draw(st.lists(st.tuples(scores, st.just(P)), min_size=1, max_size=25))
    neg = draw(st.lists(st.tuples(scores, st.just(N)), min_size=1, max_size=25))
    return draw(st.permutations(pos + neg))


@st.composite
def integer_sample_sets(draw):
    # Integer-valued scores keep the monotone transforms below exact in floats.
    scores = st.integers(-100, 100).map(float)
    pos = draw(st.lists(st.tuples(scores, st.just(P)), min_size=1, max_size=20))
    neg = draw(st.lists(st.tuples(scores, st.just(N)), min_size=1, max_size=20))
    return draw(st.permutations(pos + neg))


class TestRocPoints:
    def test_worked_four_sample_sweep(self):
        curve = roc_points(FOUR_SAMPLES)
        assert list(curve.points) == [
            (0.0, 0.0, math.inf),
            (0.0, 0.5, 0.9),
            (0.5, 0.5, 0.8),
            (0.5, 1.0, 0.7),
            (1.0, 1.0, 0.6),
        ]

    def test_perfect_separation_passes_top_left_corner(self):
        curve = roc_points(samples((0.9, P), (0.8, P), (0.3, N), (0.1, N)))
        assert (0.0, 1.0) in set(zip(curve.fpr.tolist(), curve.tpr.tolist()))
        assert curve.auc == 1.0

    def test_tied_scores_collapse_to_one_diagonal_segment(self):
        curve = roc_points(samples((0.5, P), (0.5, N)))
        assert list(curve.points) == [(0.0, 0.0, math.inf), (1.0, 1.0, 0.5)]

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            roc_points(samples())

    def test_single_class_input_rejected(self):
        with pytest.raises(ValueError, match="need both classes"):
            roc_points(samples((0.9, P), (0.1, P)))
        with pytest.raises(ValueError, match="need both classes"):
            roc_points(samples((0.9, N)))

    @given(sample_sets())
    def test_curve_satisfies_structural_invariants(self, s):
        curve = checked_sweep(scored_columns(s))
        points = curve.points
        assert points[0] == (0.0, 0.0, math.inf)
        assert points[-1][:2] == (1.0, 1.0)
        for (fpr0, tpr0, threshold0), (fpr1, tpr1, threshold1) in zip(points, points[1:]):
            assert fpr1 >= fpr0 and tpr1 >= tpr0
            assert threshold1 < threshold0

    @given(sample_sets(tie_heavy=True))
    def test_points_match_metrics_at_each_threshold(self, s):
        curve = checked_sweep(scored_columns(s))
        for fpr, tpr, threshold in curve.points:
            counts = from_predictions(labeled_columns(apply_threshold(s, threshold)))
            assert fpr == false_positive_rate(counts)
            assert tpr == true_positive_rate(counts)

    @given(sample_sets(tie_heavy=True))
    def test_threshold_counts_at_each_point_are_its_counts(self, s):
        columns = scored_columns(s)
        curve = roc_points(columns)
        for fp, tp, threshold in zip(curve.fp.tolist(), curve.tp.tolist(), curve.threshold.tolist()):
            counts = threshold_counts(columns, threshold)
            assert (counts.fp, counts.tp) == (fp, tp)

    @given(sample_sets(tie_heavy=True), st.randoms(use_true_random=False))
    def test_sample_order_changes_no_count(self, s, random):
        shuffled = random.sample(s, len(s))
        curve, base = roc_points(scored_columns(shuffled)), roc_points(scored_columns(s))
        assert np.array_equal(curve.fp, base.fp) and np.array_equal(curve.tp, base.tp)
        assert np.array_equal(curve.threshold, base.threshold)  # a zero may change its sign, not its value
        assert auc_pair_count(scored_columns(shuffled)) == auc_pair_count(scored_columns(s))

    @given(integer_sample_sets())
    def test_monotone_score_transform_leaves_rates_and_auc_unchanged(self, s):
        base = roc_points(scored_columns(s))
        for transform in (lambda x: 16.0 * x, lambda x: x + 0.5, lambda x: x**3):
            curve = roc_points(scored_columns((transform(x), positive) for x, positive in s))
            assert curve.fpr.tolist() == base.fpr.tolist()
            assert curve.tpr.tolist() == base.tpr.tolist()
            assert curve.auc == pytest.approx(base.auc, abs=1e-12)

    def test_sweep_holds_each_curve_array_once(self):
        n = 200_000
        columns = ScoredColumns(np.random.default_rng(5).permutation(n) / n, np.arange(n) % 3 == 0)
        tracemalloc.start()
        try:
            curve = roc_points(columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert curve.fp.size == n + 1
        # A copy of the curve, or a second n-sized running count, takes the peak past this.
        assert peak < 1.25 * (curve.fp.nbytes + curve.tp.nbytes + curve.threshold.nbytes)

    def test_tie_heavy_sweep_holds_little_beyond_one_score_copy(self):
        n = 200_000
        score = np.random.default_rng(5).integers(0, 101, n) / 100
        columns = ScoredColumns(score, np.arange(n) % 3 == 0)
        tracemalloc.start()
        try:
            curve = roc_points(columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert curve.fp.size <= 102
        # The 101-point curve is small; an n-sized integer index or running count takes the peak past this.
        assert peak < 1.6 * score.nbytes


# Score sets for the differential test against the reference sweep.
CONTINUOUS = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
TIE_HEAVY = st.integers(0, 6).map(lambda v: v / 4)
INTEGER = st.integers(-100, 100).map(float)
# Signed zeros tie with each other; magnitudes near 1e+-300 and the float limits.
EDGES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300,
                     1.7976931348623157e308, -1.7976931348623157e308]),
    st.floats(min_value=1e299, max_value=1e301),
    st.floats(min_value=-1e-299, max_value=-1e-301),
)


@st.composite
def scored_sets(draw, scores):
    pos = draw(st.lists(st.tuples(scores, st.just(P)), min_size=1, max_size=25))
    neg = draw(st.lists(st.tuples(scores, st.just(N)), min_size=1, max_size=25))
    return draw(st.permutations(pos + neg))


def bits(values) -> list[str]:
    """Exact bit patterns: unlike ==, these tell -0.0 from 0.0."""
    return [float(v).hex() for v in values]


class TestReferenceSweep:
    @pytest.mark.parametrize(
        "scores", [CONTINUOUS, TIE_HEAVY, INTEGER, EDGES], ids=["continuous", "tie-heavy", "integer", "edges"]
    )
    @given(data=st.data())
    def test_curve_is_bit_identical_to_the_per_row_sweep(self, scores, data):
        s = data.draw(scored_sets(scores))
        curve = checked_sweep(scored_columns(s))
        points, auc = roc_sweep(s)
        fpr, tpr, threshold = zip(*points)
        assert bits(curve.fpr) == bits(fpr)
        assert bits(curve.tpr) == bits(tpr)
        assert bits(curve.threshold) == bits(threshold)
        assert bits([curve.auc]) == bits([auc])

    def test_signed_zero_group_keeps_its_first_members_sign(self):
        for first, second in ((0.0, -0.0), (-0.0, 0.0)):
            curve = roc_points(samples((first, P), (second, N), (1.0, N)))
            assert bits(curve.threshold) == bits([math.inf, 1.0, first])

    @pytest.mark.parametrize(
        "scored",
        [
            # Positives only at -0.0, the first zero in input order a negative's 0.0; and the mirror.
            [(0.5, N), (0.0, N), (-0.0, P), (-1.0, N), (-0.0, P)],
            [(0.5, N), (-0.0, N), (0.0, P), (-1.0, N), (0.0, P)],
            # Every positive tied at the lowest score, or at the highest.
            [(2.0, N), (1.0, P), (3.0, N), (1.0, P), (1.0, N)],
            [(3.0, P), (1.0, N), (3.0, P), (2.0, N), (3.0, N)],
            # One positive among many tied negatives.
            [(0.5, N)] * 17 + [(0.5, P)] + [(0.5, N)] * 32 + [(0.25, N)],
            # The largest and the smallest finite doubles, of either sign.
            [(1.7976931348623157e308, P), (-1.7976931348623157e308, P), (5e-324, N), (-5e-324, P), (0.0, N),
             (2.2250738585072014e-308, N), (-1.7976931348623157e308, N)],
        ],
        ids=["minus-zero-positives", "plus-zero-positives", "positives-lowest", "positives-highest",
             "one-tied-positive", "float-limits"],
    )
    def test_search_boundaries_match_both_references(self, scored):
        columns = scored_columns(scored)
        curve = checked_sweep(columns)
        fp, tp, threshold = roc_sweep_stable(columns.score, columns.positive)
        assert np.array_equal(curve.fp, fp) and np.array_equal(curve.tp, tp)
        assert bits(curve.threshold) == bits(threshold)
        points, auc = roc_sweep(scored)
        fpr, tpr, threshold = zip(*points)
        assert bits(curve.fpr) == bits(fpr)
        assert bits(curve.tpr) == bits(tpr)
        assert bits(curve.threshold) == bits(threshold)
        assert bits([curve.auc]) == bits([auc])

    @pytest.mark.parametrize("seed", range(30))
    def test_large_tie_heavy_curve_matches_the_stable_sort(self, seed):
        # Sizes where numpy sorts by its SIMD quicksort, which is not stable:
        # scores on a grid of 41 values, or on one of 2**k values for k up
        # to 15, with -0.0 and 0.0 at random positions.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2_000, 50_001))
        score = rng.integers(-20, 21, n) / 4 if seed % 2 else rng.integers(0, 2 ** (seed // 2 + 1), n) / 64 - 1
        zeros = np.flatnonzero(rng.random(n) < 0.05)
        score[zeros] = np.where(rng.random(zeros.size) < 0.5, -0.0, 0.0)
        positive = rng.random(n) < 0.3
        curve = checked_sweep(ScoredColumns(score, positive))
        fp, tp, threshold = roc_sweep_stable(score, positive)
        assert np.array_equal(curve.fp, fp) and np.array_equal(curve.tp, tp)
        assert np.array_equal(curve.threshold.view(np.uint64), threshold.view(np.uint64))


class TestCurveColumns:
    def test_columns_are_read_only(self):
        curve = roc_points(FOUR_SAMPLES)
        assert [column.dtype for column in (curve.fp, curve.tp, curve.threshold)] == [np.int64, np.int64, np.float64]
        for column in (curve.fp, curve.tp, curve.threshold):
            with pytest.raises(ValueError):
                column[0] = 1

    @given(sample_sets(tie_heavy=True))
    def test_points_are_the_zipped_rates_and_thresholds(self, s):
        # The benchmark's per-layer trace counts a curve's points with len(curve.points).
        curve = roc_points(scored_columns(s))
        assert len(curve.points) == curve.threshold.size
        assert curve.points == tuple(zip(curve.fpr.tolist(), curve.tpr.tolist(), curve.threshold.tolist()))

    def test_nan_threshold_and_ragged_columns_rejected(self):
        with pytest.raises(ValueError, match="strictly decreasing"):
            RocCurve(fp=[0, 1], tp=[0, 1], threshold=[math.inf, math.nan])
        with pytest.raises(ValueError, match="one length"):
            RocCurve(fp=[0, 1], tp=[0, 1, 2], threshold=[math.inf, 0.5])
        with pytest.raises(ValueError, match="at least the initial and final point"):
            RocCurve(fp=[0], tp=[0], threshold=[math.inf])

    def test_infinite_threshold_after_the_first_rejected(self):
        with pytest.raises(ValueError, match="after the first must be finite"):
            RocCurve(fp=[0, 1], tp=[0, 1], threshold=[math.inf, -math.inf])

    @pytest.mark.parametrize(
        "cls, make_columns",
        [
            (ScoredColumns, lambda: {"score": np.array([0.5, 0.25]), "positive": np.array([True, False])}),
            (LabeledColumns, lambda: {"actual": np.array([True, False]), "predicted": np.array([True, True])}),
            (RocCurve, lambda: {"fp": np.array([0, 1]), "tp": np.array([0, 2]), "threshold": np.array([math.inf, 0.5])}),
        ],
        ids=["ScoredColumns", "LabeledColumns", "RocCurve"],
    )
    def test_constructor_copies_and_the_own_array_hand_over_does_not(self, cls, make_columns):
        columns = make_columns()
        built = cls(**columns)
        for name, column in columns.items():
            assert np.array_equal(getattr(built, name), column)
            assert not np.shares_memory(getattr(built, name), column)
            assert column.flags.writeable
        own = _of_own_arrays(cls, **columns)
        assert type(own) is cls
        for name, column in columns.items():
            assert getattr(own, name) is column
            assert not column.flags.writeable


class TestAucTrapezoid:
    def test_worked_four_sample_area(self):
        assert auc_trapezoid(roc_points(FOUR_SAMPLES)) == pytest.approx(0.75, abs=1e-12)

    def test_two_point_tie_curve_is_random_guessing(self):
        assert auc_trapezoid(roc_points(samples((0.5, P), (0.5, N)))) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_perfect_curve_covers_the_unit_square(self):
        curve = roc_points(samples((0.9, P), (0.1, N)))
        assert auc_trapezoid(curve) == 1.0

    def test_curve_auc_field_matches(self):
        curve = roc_points(FOUR_SAMPLES)
        assert curve.auc == auc_trapezoid(curve)

    @given(st.data())
    def test_area_is_the_exact_sum_of_the_doubled_trapezoids(self, data):
        # Counts near the two sides of 2·P·N = 2**63, where the int64 dots give way to Python ints.
        negatives = data.draw(st.integers(1, 50) | st.integers(1, 2**40), label="negatives")
        positives = data.draw(
            st.integers(1, 50) | st.sampled_from([(2**62 - 1) // negatives, (2**62 - 1) // negatives + 1]),
            label="positives",
        )
        inner = data.draw(st.integers(0, 8), label="inner points")
        fp = [0, *sorted(data.draw(st.lists(st.integers(0, negatives), min_size=inner, max_size=inner))), negatives]
        tp = [0, *sorted(data.draw(st.lists(st.integers(0, positives), min_size=inner, max_size=inner))), positives]
        curve = RocCurve(fp=fp, tp=tp, threshold=[math.inf, *range(inner + 1, 0, -1)])
        doubled_area = sum((f1 - f0) * (t0 + t1) for f0, f1, t0, t1 in zip(fp, fp[1:], tp, tp[1:]))
        assert auc_trapezoid(curve) == float(Fraction(doubled_area, 2 * negatives * positives))

    def test_area_beyond_int64_is_summed_exactly(self):
        # 2·P·N is about 2**68 here: an int64 sum of the doubled trapezoids would wrap.
        fp, tp = [0, 3 * 2**32 + 1, 2**33 + 2**32 + 7], [0, 2**33 - 5, 2**33 + 3]
        curve = RocCurve(fp=fp, tp=tp, threshold=[math.inf, 1.0, 0.0])
        assert 2 * fp[-1] * tp[-1] >= 2**63
        expected = sum(
            Fraction((f1 - f0) * (t0 + t1), 2 * fp[-1] * tp[-1])
            for f0, f1, t0, t1 in zip(fp, fp[1:], tp, tp[1:])
        )
        assert auc_trapezoid(curve) == curve.auc == float(expected)


class TestAucPairCount:
    def test_worked_four_sample_pairs(self):
        assert auc_pair_count(FOUR_SAMPLES) == pytest.approx(0.75, abs=1e-12)

    def test_single_fully_tied_pair_gets_half_credit(self):
        assert auc_pair_count(samples((0.5, P), (0.5, N))) == 0.5

    def test_perfect_ordering_scores_one(self):
        assert auc_pair_count(samples((0.9, P), (0.8, P), (0.3, N))) == 1.0

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="need both classes"):
            auc_pair_count(samples((0.9, P)))

    @given(
        st.lists(st.floats(-50, 50, allow_nan=False).map(lambda v: round(v, 1)), min_size=1, max_size=40),
        st.lists(st.floats(-50, 50, allow_nan=False).map(lambda v: round(v, 1)), min_size=1, max_size=40),
    )
    def test_brute_and_ranked_tallies_agree(self, pos, neg):
        pos_arr = np.asarray(pos, dtype=np.float64)
        neg_arr = np.asarray(neg, dtype=np.float64)
        assert pair_tallies_brute(pos_arr, neg_arr) == _pair_tallies_ranked(pos_arr.copy(), neg_arr)

    # Few distinct values, so most pairs tie, -0.0 among them: it ties 0.0.
    tie_heavy = st.lists(st.sampled_from([-1.5, -0.0, 0.0, 0.25, 1.0, math.inf]), min_size=1, max_size=60)

    @given(tie_heavy, tie_heavy)
    def test_ranked_tallies_match_brute_with_ties_and_signed_zeros(self, pos, neg):
        pos_arr, neg_arr = np.array(pos), np.array(neg)
        assert pair_tallies_brute(pos_arr, neg_arr) == _pair_tallies_ranked(pos_arr.copy(), neg_arr)

    @given(st.sampled_from([-0.0, 0.0, 0.5]), tie_heavy)
    def test_ranked_tallies_match_brute_with_a_one_sample_class(self, one, many):
        one_arr, many_arr = np.array([one]), np.array(many)
        assert pair_tallies_brute(one_arr, many_arr) == _pair_tallies_ranked(one_arr.copy(), many_arr)
        assert pair_tallies_brute(many_arr, one_arr) == _pair_tallies_ranked(many_arr.copy(), one_arr)

    def test_signed_zeros_tie_in_the_pair_count(self):
        assert auc_pair_count(samples((-0.0, P), (0.0, N))) == 0.5
        assert auc_pair_count(samples((0.0, P), (-0.0, N), (-0.0, P), (0.0, N))) == 0.5

    def test_ranked_tallies_sort_the_positives_in_place(self):
        pos, neg = np.array([0.9, 0.1, 0.5]), np.array([0.5, 0.2])
        assert _pair_tallies_ranked(pos, neg) == (3, 1)
        assert pos.tolist() == [0.1, 0.5, 0.9]

    def test_large_input_uses_ranked_route_and_matches_brute(self):
        rng = np.random.default_rng(3)
        scores = rng.integers(0, 40, size=1200) / 8.0
        positive = rng.integers(0, 2, size=1200).astype(bool)
        pos, neg = scores[positive], scores[~positive]
        assert pos.size * neg.size > 250_000
        greater, equal = pair_tallies_brute(pos, neg)
        expected = (2 * greater + equal) / (2 * pos.size * neg.size)
        assert auc_pair_count(ScoredColumns(scores, positive)) == expected


class TestOracleEquivalence:
    @given(sample_sets(tie_heavy=True))
    def test_trapezoid_equals_pair_count_with_ties(self, s):
        columns = scored_columns(s)
        assert auc_trapezoid(roc_points(columns)) == pytest.approx(auc_pair_count(columns), abs=1e-12)

    @given(sample_sets())
    def test_trapezoid_equals_pair_count_continuous(self, s):
        columns = scored_columns(s)
        assert auc_trapezoid(roc_points(columns)) == pytest.approx(auc_pair_count(columns), abs=1e-12)

    @pytest.mark.parametrize(
        "scores", [CONTINUOUS, TIE_HEAVY, INTEGER, EDGES], ids=["continuous", "tie-heavy", "integer", "edges"]
    )
    @given(data=st.data())
    def test_trapezoid_equals_pair_count_exactly(self, scores, data):
        columns = scored_columns(data.draw(scored_sets(scores)))
        assert roc_points(columns).auc == auc_pair_count(columns)

    def test_one_third_is_the_nearest_float_by_both_routes(self):
        # A float trapezoid sum gave the next float above 1/3 here.
        s = samples((0.0, P), (0.0, N), (0.0, N), (1.0, N))
        assert roc_points(s).auc == auc_pair_count(s) == 1 / 3

    @given(sample_sets(tie_heavy=True))
    def test_label_flip_reverses_auc(self, s):
        flipped = scored_columns((x, not positive) for x, positive in s)
        assert roc_points(flipped).auc == pytest.approx(1.0 - roc_points(scored_columns(s)).auc, abs=1e-12)

    @given(sample_sets(tie_heavy=True))
    def test_score_negation_with_label_flip_preserves_auc(self, s):
        mirrored = scored_columns((-x, not positive) for x, positive in s)
        assert roc_points(mirrored).auc == pytest.approx(roc_points(scored_columns(s)).auc, abs=1e-12)


class TestCurveTypes:
    def test_curve_must_start_at_origin_with_infinite_threshold(self):
        with pytest.raises(ValueError, match="start"):
            RocCurve(fp=[0, 1], tp=[0, 1], threshold=[5.0, 0.5])

    def test_curve_must_end_at_one_one(self):
        with pytest.raises(ValueError, match="end"):
            RocCurve(fp=[0, 1], tp=[0, 0], threshold=[math.inf, 0.5])
        with pytest.raises(ValueError, match="must end with fp > 0 and tp > 0, got fp=0 and tp=1"):
            RocCurve(fp=[0, 0], tp=[0, 1], threshold=[math.inf, 0.5])

    def test_curve_rejects_decreasing_rates(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            RocCurve(fp=[0, 5, 4, 10], tp=[0, 4, 5, 5], threshold=[math.inf, 0.7, 0.6, 0.5])

    def test_curve_rejects_non_decreasing_thresholds(self):
        with pytest.raises(ValueError, match="strictly decreasing"):
            RocCurve(fp=[0, 1, 2], tp=[0, 1, 2], threshold=[math.inf, 0.5, 0.5])

    @pytest.mark.parametrize(
        "fp, tp, match",
        [
            ([0, 0.5], [0, 1], r"fp must hold integers in \[0, 2\*\*63\), got dtype float64"),
            ([0, 1.0], [0, 1], "fp must hold integers in .*, got dtype float64"),
            ([0, 1], [0, -1], r"tp must hold integers in .*, got -1\Z"),
            (np.array([0, 2**63], dtype=np.uint64), [0, 1], r"fp must hold integers in .*, got 9223372036854775808\Z"),
            # numpy reads these lists of Python ints as float64 and as object.
            ([0, 2**63], [0, 1], "fp must hold integers in .*, got dtype float64"),
            ([0, 1], [0, 2**64], "tp must hold integers in .*, got dtype object"),
        ],
        ids=["fraction", "float", "negative", "beyond-int64", "beyond-int64-list", "beyond-uint64-list"],
    )
    def test_curve_rejects_counts_that_are_not_counts(self, fp, tp, match):
        with pytest.raises(ValueError, match=match):
            RocCurve(fp=fp, tp=tp, threshold=[math.inf, 0.5])

    @pytest.mark.parametrize("threshold", [
        ["inf", "0.5"], np.array(["inf", "0.5"]), [math.inf, "0.5"], np.array([math.inf, "0.5"], dtype=object),
        [math.inf, True], [math.inf, np.True_], np.array([True, False]), [math.inf, None],
    ], ids=["text-list", "str-dtype", "text-in-a-float-list", "text-in-an-object-array", "bool-in-a-list",
            "numpy-bool-in-a-list", "bool-dtype", "none"])
    def test_curve_rejects_thresholds_that_are_not_numbers(self, threshold):
        with pytest.raises(ValueError, match="^threshold must hold integers or floats, not booleans or text$"):
            RocCurve(fp=[0, 1], tp=[0, 1], threshold=threshold)

    def test_curve_reads_a_big_integer_threshold_as_an_infinity(self):
        assert RocCurve(fp=[0, 1], tp=[0, 1], threshold=[10**400, Fraction(1, 2)]).threshold.tolist() == [math.inf, 0.5]
        with pytest.raises(ValueError, match="strictly decreasing"):
            RocCurve(fp=[0, 1], tp=[0, 1], threshold=[math.inf, 10**400])
