"""Acceptance suite: one test per criterion, each printing a PASS line.

Run standalone with ``pytest tests/test_acceptance.py -v -s``. Every
criterion uses its stated tolerance; random data is seeded so runs are
reproducible.
"""

from __future__ import annotations

import io
import math
from functools import reduce
from pathlib import Path

import numpy as np

from binaryeval.cli import run
from binaryeval.counts import ConfusionCounts, LabeledColumns, ScoredColumns, empty, from_predictions, merge
from binaryeval.metrics import all_metrics, matthews_corrcoef
from binaryeval.roc import auc_pair_count, auc_trapezoid, roc_points

GOLDEN = Path(__file__).parent / "golden"

ONE_ULP = 2**-52


def _random_cells(rng: np.random.Generator, size: int) -> np.ndarray:
    """Cell magnitudes mixed so zero denominators and huge products both occur."""
    small = rng.integers(0, 9, size=(size, 4))
    medium = rng.integers(0, 10**3, size=(size, 4))
    large = rng.integers(0, 2**31, size=(size, 4))
    choice = rng.integers(0, 3, size=size)
    cells = np.where(
        (choice == 0)[:, None], small, np.where((choice == 1)[:, None], medium, large)
    )
    return cells


def _pearson_r_binary(actual: np.ndarray, predicted: np.ndarray) -> float | None:
    a = actual.astype(np.float64)
    p = predicted.astype(np.float64)
    ac = a - a.mean()
    pc = p - p.mean()
    denominator = math.sqrt(float((ac * ac).sum()) * float((pc * pc).sum()))
    if denominator == 0.0:
        return None
    return float((ac * pc).sum()) / denominator


def _random_sample_set(rng: np.random.Generator, tie_grid: bool) -> ScoredColumns:
    n_pos = int(rng.integers(1, 41))
    n_neg = int(rng.integers(1, 41))
    total = n_pos + n_neg
    if tie_grid:
        scores = rng.integers(0, 11, size=total) / 8.0
    else:
        scores = rng.uniform(-100.0, 100.0, size=total)
    positive = np.arange(total) < n_pos
    order = rng.permutation(total)
    return ScoredColumns(scores[order], positive[order])


def test_worked_example_suite():
    """C* = (tp=4, fp=1, fn=2, tn=3): all metric values within 1e-6."""
    ms = all_metrics(ConfusionCounts(tp=4, fp=1, fn=2, tn=3))
    expected = {
        "err": 0.3,
        "acc": 0.7,
        "fpr": 0.25,
        "tpr": 0.666667,
        "pre": 0.8,
        "rec": 0.666667,
        "f1": 0.727273,
        "sen": 0.666667,
        "spc": 0.75,
        "tnr": 0.75,
        "mcc": 0.408248,
    }
    for name, want in expected.items():
        got = getattr(ms, name)
        assert got is not None, name
        assert abs(got - want) <= 1e-6, (name, got, want)
    print("ACCEPTANCE worked-example suite: PASS")


def test_identity_suite_over_random_counts():
    """1e5 random tallies: complements, literal aliases, metric ranges."""
    rng = np.random.default_rng(20240901)
    cells = _random_cells(rng, 100_000)
    for tp, fp, fn, tn in cells:
        ms = all_metrics(ConfusionCounts(tp=int(tp), fp=int(fp), fn=int(fn), tn=int(tn)))
        if ms.err is not None:
            assert abs(ms.err + ms.acc - 1.0) <= ONE_ULP
        assert ms.rec == ms.tpr and ms.sen == ms.tpr  # None == None included
        assert ms.tnr == ms.spc
        if ms.fpr is not None:
            assert abs(ms.fpr - (1.0 - ms.spc)) <= 1e-15
        for name, value in ms.as_dict().items():
            if value is None:
                continue
            if name == "mcc":
                assert -1.0 <= value <= 1.0
            else:
                assert 0.0 <= value <= 1.0
    print("ACCEPTANCE identity suite (1e5 random counts): PASS")


def test_mcc_equals_pearson_r_oracle():
    """1e4 random prediction sequences: MCC == Pearson r of the 0/1 vectors, 1e-12."""
    rng = np.random.default_rng(5150)
    defined = 0
    for _ in range(10_000):
        n = int(rng.integers(2, 201))
        bias = rng.choice([0.1, 0.5, 0.9])
        actual = rng.random(n) < bias
        predicted = rng.random(n) < rng.choice([0.1, 0.5, 0.9])
        mcc = matthews_corrcoef(from_predictions(LabeledColumns(actual, predicted)))
        r = _pearson_r_binary(actual, predicted)
        assert (mcc is None) == (r is None)
        if mcc is not None:
            assert abs(mcc - r) <= 1e-12
            defined += 1
    assert defined > 5_000
    print(f"ACCEPTANCE MCC-Pearson oracle (1e4 sequences, {defined} defined): PASS")


def test_auc_oracle_equivalence():
    """1e4 random score sets with forced ties: trapezoid == pair count, 1e-12."""
    rng = np.random.default_rng(31415)
    for i in range(10_000):
        samples = _random_sample_set(rng, tie_grid=(i % 2 == 0))
        curve = roc_points(samples)
        assert abs(auc_trapezoid(curve) - auc_pair_count(samples)) <= 1e-12
    print("ACCEPTANCE AUC oracle equivalence (1e4 score sets): PASS")


def test_roc_structural_suite():
    """Curve shape, perfect separation, label-flip reversal, chance band."""
    rng = np.random.default_rng(2718)

    for i in range(300):
        samples = _random_sample_set(rng, tie_grid=(i % 2 == 0))
        curve = roc_points(samples)
        fpr, tpr = curve.fpr, curve.tpr
        assert (fpr[0], tpr[0]) == (0.0, 0.0)
        assert (fpr[-1], tpr[-1]) == (1.0, 1.0)
        assert (np.diff(fpr) >= 0).all() and (np.diff(tpr) >= 0).all()
        flipped = ScoredColumns(samples.score, ~samples.positive)
        assert abs(roc_points(flipped).auc - (1.0 - curve.auc)) <= 1e-12

    perfect = ScoredColumns(np.r_[60:90, 0:30].astype(float), np.arange(60) < 30)
    perfect_curve = roc_points(perfect)
    assert perfect_curve.auc == 1.0
    assert (0.0, 1.0) in set(zip(perfect_curve.fpr.tolist(), perfect_curve.tpr.tolist()))

    labels = rng.integers(0, 2, size=100_000)
    iid = ScoredColumns(rng.random(100_000), labels == 1)
    chance_auc = roc_points(iid).auc
    assert 0.49 <= chance_auc <= 0.51, chance_auc
    print(f"ACCEPTANCE ROC structural suite (chance AUC {chance_auc:.4f}): PASS")


def test_accumulation_suite():
    """Sharded merge is bit-exact against sequential folding; monoid laws hold."""
    rng = np.random.default_rng(99)
    for _ in range(300):
        n = int(rng.integers(0, 400))
        actual, predicted = rng.integers(0, 2, n) == 0, rng.integers(0, 2, n) == 0
        # One pair at a time, as a single worker would record them.
        sequential = reduce(
            merge, (from_predictions(LabeledColumns(actual[i : i + 1], predicted[i : i + 1])) for i in range(n)), empty()
        )
        assert from_predictions(LabeledColumns(actual, predicted)) == sequential

        n_cuts = int(rng.integers(0, 6))
        cuts = sorted(int(c) for c in rng.integers(0, n + 1, size=n_cuts))
        bounds = [0, *cuts, n]
        shards = [LabeledColumns(actual[lo:hi], predicted[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
        sharded = reduce(merge, map(from_predictions, shards), empty())
        assert sharded == sequential

    for _ in range(1_000):
        a, b, c = (
            ConfusionCounts(*(int(v) for v in rng.integers(0, 10**6, size=4)))
            for _ in range(3)
        )
        assert merge(a, b) == merge(b, a)
        assert merge(merge(a, b), c) == merge(a, merge(b, c))
        assert merge(a, empty()) == a
    print("ACCEPTANCE accumulation suite: PASS")


def test_end_to_end_golden(tmp_path, monkeypatch):
    """The two CLI worked examples reproduce their golden bytes exactly."""
    (tmp_path / "preds.csv").write_text(
        "1,1\n1,1\n1,1\n1,1\n1,0\n1,0\n0,1\n0,0\n0,0\n0,0\n", newline=""
    )
    (tmp_path / "scores.csv").write_text("1,0.9\n0,0.8\n1,0.7\n0,0.6\n", newline="")
    monkeypatch.chdir(tmp_path)

    out, err = io.StringIO(), io.StringIO()
    assert run(["evaluate", "preds.csv"], stdout=out, stderr=err) == 0
    assert out.getvalue().encode() == (GOLDEN / "evaluate_c_star.txt").read_bytes()
    assert "ACC 0.700000" in out.getvalue()

    out, err = io.StringIO(), io.StringIO()
    assert run(["roc", "scores.csv", "--svg", "out.svg"], stdout=out, stderr=err) == 0
    assert out.getvalue().encode() == (GOLDEN / "roc_four_sample.txt").read_bytes()
    assert out.getvalue().rstrip().endswith("AUC 0.750000")

    svg = (tmp_path / "out.svg").read_bytes()
    assert svg == (GOLDEN / "roc_four_sample.svg").read_bytes()
    assert b"stroke-dasharray" in svg
    assert b"AUC = 0.750" in svg
    print("ACCEPTANCE end-to-end golden tests: PASS")
