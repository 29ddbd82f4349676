"""Metric values, undefined handling, aliases, and algebraic identities."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from binaryeval.counts import ConfusionCounts, LabeledColumns, from_predictions
from binaryeval.metrics import (
    accuracy,
    all_metrics,
    error_rate,
    f1_score,
    false_positive_rate,
    matthews_corrcoef,
    precision,
    recall,
    sensitivity,
    specificity,
    true_negative_rate,
    true_positive_rate,
)

C_STAR = ConfusionCounts(tp=4, fp=1, fn=2, tn=3)
PERFECT = ConfusionCounts(tp=5, fp=0, fn=0, tn=5)
INVERTED = ConfusionCounts(tp=0, fp=5, fn=5, tn=0)
EMPTY = ConfusionCounts(tp=0, fp=0, fn=0, tn=0)

ONE_ULP = 2**-52

counts_strategy = st.builds(
    ConfusionCounts,
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
)


def pearson_r_binary(actual: np.ndarray, predicted: np.ndarray) -> float | None:
    """Direct-definition Pearson correlation of two 0/1 vectors; None when degenerate."""
    a = np.asarray(actual, dtype=np.float64)
    p = np.asarray(predicted, dtype=np.float64)
    ac = a - a.mean()
    pc = p - p.mean()
    denominator = math.sqrt(float((ac * ac).sum()) * float((pc * pc).sum()))
    if denominator == 0.0:
        return None
    return float((ac * pc).sum()) / denominator


class TestWorkedValues:
    def test_error_rate(self):
        assert error_rate(C_STAR) == pytest.approx(0.3, abs=1e-12)

    def test_accuracy(self):
        assert accuracy(C_STAR) == pytest.approx(0.7, abs=1e-12)

    def test_false_positive_rate(self):
        assert false_positive_rate(C_STAR) == pytest.approx(0.25, abs=1e-12)

    def test_true_positive_rate(self):
        assert true_positive_rate(C_STAR) == pytest.approx(2 / 3, abs=1e-12)

    def test_precision(self):
        assert precision(C_STAR) == pytest.approx(0.8, abs=1e-12)

    def test_f1(self):
        assert f1_score(C_STAR) == pytest.approx(8 / 11, abs=1e-12)

    def test_specificity(self):
        assert specificity(C_STAR) == pytest.approx(0.75, abs=1e-12)

    def test_mcc(self):
        assert matthews_corrcoef(C_STAR) == pytest.approx(10 / math.sqrt(600), abs=1e-12)

    def test_perfect_classifier(self):
        assert error_rate(PERFECT) == 0.0
        assert accuracy(PERFECT) == 1.0
        assert f1_score(PERFECT) == 1.0
        assert matthews_corrcoef(PERFECT) == 1.0

    def test_inverted_classifier_mcc(self):
        assert matthews_corrcoef(INVERTED) == -1.0

    def test_precision_with_no_false_positives(self):
        assert precision(ConfusionCounts(tp=3, fp=0, fn=1, tn=6)) == 1.0

    def test_fpr_with_no_false_alarms(self):
        assert false_positive_rate(ConfusionCounts(tp=0, fp=0, fn=3, tn=7)) == 0.0


class TestUndefined:
    def test_empty_tally_makes_everything_undefined(self):
        ms = all_metrics(EMPTY)
        assert all(value is None for value in ms.as_dict().values())

    def test_error_rate_and_accuracy_undefined_on_empty(self):
        assert error_rate(EMPTY) is None
        assert accuracy(EMPTY) is None

    def test_fpr_undefined_without_actual_negatives(self):
        assert false_positive_rate(ConfusionCounts(tp=2, fp=0, fn=1, tn=0)) is None

    def test_tpr_undefined_without_actual_positives(self):
        assert true_positive_rate(ConfusionCounts(tp=0, fp=1, fn=0, tn=1)) is None

    def test_precision_undefined_when_nothing_predicted_positive(self):
        assert precision(ConfusionCounts(tp=0, fp=0, fn=2, tn=8)) is None

    def test_f1_undefined_when_pre_and_rec_are_zero(self):
        assert f1_score(ConfusionCounts(tp=0, fp=2, fn=3, tn=5)) is None

    def test_specificity_undefined_without_actual_negatives(self):
        assert specificity(ConfusionCounts(tp=1, fp=0, fn=1, tn=0)) is None

    def test_mcc_undefined_when_any_marginal_is_zero(self):
        assert matthews_corrcoef(ConfusionCounts(tp=1, fp=1, fn=0, tn=0)) is None
        assert matthews_corrcoef(ConfusionCounts(tp=0, fp=0, fn=1, tn=1)) is None


class TestExactRates:
    RATES = [
        (error_rate, lambda c: (c.fp + c.fn, c.total)),
        (accuracy, lambda c: (c.tp + c.tn, c.total)),
        (false_positive_rate, lambda c: (c.fp, c.fp + c.tn)),
        (true_positive_rate, lambda c: (c.tp, c.tp + c.fn)),
        (precision, lambda c: (c.tp, c.tp + c.fp)),
        (specificity, lambda c: (c.tn, c.fp + c.tn)),
    ]

    @pytest.mark.parametrize("rate, terms", RATES, ids=[rate.__name__ for rate, _ in RATES])
    def test_each_rate_is_its_correctly_rounded_ratio_or_none_on_a_zero_denominator(self, rate, terms):
        for cells in itertools.product(range(5), repeat=4):
            c = ConfusionCounts(*cells)
            numerator, denominator = terms(c)
            expected = None if denominator == 0 else float(Fraction(numerator, denominator))
            assert rate(c) == expected, c


class TestAliases:
    def test_function_aliases_are_the_same_callable(self):
        assert recall is true_positive_rate
        assert sensitivity is true_positive_rate
        assert true_negative_rate is specificity

    def test_alias_values_identical_on_worked_tally(self):
        assert recall(C_STAR) == sensitivity(C_STAR) == true_positive_rate(C_STAR)

    @given(counts_strategy)
    def test_metric_set_aliases_bit_identical(self, c):
        ms = all_metrics(c)
        assert ms.rec is ms.tpr or ms.rec == ms.tpr
        assert ms.sen is ms.tpr or ms.sen == ms.tpr
        assert ms.tnr is ms.spc or ms.tnr == ms.spc


class TestAllMetrics:
    def test_matches_single_metric_functions_on_worked_tally(self):
        ms = all_metrics(C_STAR)
        assert ms.acc == accuracy(C_STAR)
        assert ms.pre == precision(C_STAR)
        assert ms.f1 == f1_score(C_STAR)
        assert ms.mcc == matthews_corrcoef(C_STAR)
        assert ms.counts == C_STAR

    def test_perfect_classifier_set(self):
        ms = all_metrics(PERFECT)
        assert (ms.acc, ms.err, ms.f1, ms.mcc) == (1.0, 0.0, 1.0, 1.0)

    @given(counts_strategy)
    def test_every_field_agrees_with_its_function(self, c):
        ms = all_metrics(c)
        assert ms.err == error_rate(c)
        assert ms.acc == accuracy(c)
        assert ms.fpr == false_positive_rate(c)
        assert ms.tpr == true_positive_rate(c)
        assert ms.pre == precision(c)
        assert ms.f1 == f1_score(c)
        assert ms.spc == specificity(c)
        assert ms.mcc == matthews_corrcoef(c)


class TestIdentities:
    @given(counts_strategy)
    def test_error_plus_accuracy_is_one(self, c):
        err, acc = error_rate(c), accuracy(c)
        if err is not None and acc is not None:
            assert abs(err + acc - 1.0) <= ONE_ULP

    @given(counts_strategy)
    def test_fpr_complements_specificity(self, c):
        fpr, spc = false_positive_rate(c), specificity(c)
        assert (fpr is None) == (spc is None)
        if fpr is not None:
            assert abs(fpr - (1.0 - spc)) <= 1e-15

    @given(counts_strategy)
    def test_defined_ratios_stay_in_unit_interval(self, c):
        ms = all_metrics(c)
        for name, value in ms.as_dict().items():
            if value is None:
                continue
            if name == "mcc":
                assert -1.0 <= value <= 1.0
            else:
                assert 0.0 <= value <= 1.0

    @given(counts_strategy)
    def test_f1_equals_counts_form_when_defined(self, c):
        f1 = f1_score(c)
        if f1 is not None:
            assert f1 == pytest.approx(2 * c.tp / (2 * c.tp + c.fp + c.fn), abs=1e-12)

    @given(counts_strategy)
    def test_prediction_flip_negates_mcc(self, c):
        flipped = ConfusionCounts(tp=c.fn, fp=c.tn, fn=c.tp, tn=c.fp)
        mcc = matthews_corrcoef(c)
        if mcc is not None:
            assert matthews_corrcoef(flipped) == -mcc

    @given(counts_strategy)
    def test_class_role_swap(self, c):
        swapped = ConfusionCounts(tp=c.tn, fp=c.fn, fn=c.fp, tn=c.tp)
        assert matthews_corrcoef(swapped) == matthews_corrcoef(c)
        assert accuracy(swapped) == accuracy(c)
        assert true_positive_rate(swapped) == true_negative_rate(c)
        if c.positives:
            # FPR of the swapped tally is the original miss rate fn/positives.
            assert false_positive_rate(swapped) == c.fn / c.positives
        else:
            assert false_positive_rate(swapped) is None

    @given(counts_strategy.filter(lambda c: c.total > 0), st.integers(1, 1000))
    def test_scale_invariance(self, c, k):
        scaled = ConfusionCounts(tp=c.tp * k, fp=c.fp * k, fn=c.fn * k, tn=c.tn * k)
        for name, value in all_metrics(c).as_dict().items():
            scaled_value = getattr(all_metrics(scaled), name)
            if value is None:
                assert scaled_value is None
            else:
                assert scaled_value == pytest.approx(value, abs=1e-12)


class TestMccOracles:
    def test_agrees_with_pearson_on_random_binary_vectors(self):
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(500):
            n = int(rng.integers(2, 60))
            actual = rng.integers(0, 2, size=n)
            predicted = rng.integers(0, 2, size=n)
            mcc = matthews_corrcoef(from_predictions(LabeledColumns(actual == 1, predicted == 1)))
            r = pearson_r_binary(actual, predicted)
            assert (mcc is None) == (r is None)
            if mcc is not None:
                assert mcc == pytest.approx(r, abs=1e-12)
                checked += 1
        assert checked > 100

    def test_wide_cells_do_not_lose_precision(self):
        import mpmath

        rng = np.random.default_rng(11)
        mpmath.mp.dps = 60
        for _ in range(200):
            tp, fp, fn, tn = (int(v) for v in rng.integers(2**30, 2**31, size=4))
            c = ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn)
            expected = (mpmath.mpf(tp) * tn - mpmath.mpf(fp) * fn) / mpmath.sqrt(
                mpmath.mpf(tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
            )
            assert matthews_corrcoef(c) == pytest.approx(float(expected), abs=1e-12)

    @pytest.mark.parametrize("exponent", [80, 200])
    def test_cells_beyond_the_float_range_match_a_decimal_oracle(self, exponent):
        from decimal import Context

        ctx = Context(prec=50)
        scale = 10**exponent
        for tp, fp, fn, tn in ((3, 1, 2, 5), (7, 3, 3, 1), (1, 9, 8, 2), (5, 5, 5, 5)):
            c = ConfusionCounts(tp=tp * scale + 1, fp=fp * scale, fn=fn * scale + 3, tn=tn * scale)
            numerator = ctx.create_decimal(c.tp * c.tn - c.fp * c.fn)
            product = ctx.create_decimal((c.tp + c.fp) * (c.tp + c.fn) * (c.tn + c.fp) * (c.tn + c.fn))
            expected = float(ctx.divide(numerator, ctx.sqrt(product)))
            assert abs(matthews_corrcoef(c) - expected) <= 2 * math.ulp(expected)

    def test_never_leaves_the_unit_band_near_perfection(self):
        c = ConfusionCounts(tp=(2**31) - 1, fp=0, fn=0, tn=(2**31) - 7)
        assert matthews_corrcoef(c) == 1.0
