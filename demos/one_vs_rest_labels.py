#!/usr/bin/env python3
"""Evaluate one class of a multi-class problem by one-vs-rest binarization."""

from binaryeval import LabeledColumns, all_metrics, from_predictions

# Multi-class ground truth and predictions from some animal classifier.
actual = ["cat", "dog", "cat", "bird", "cat", "dog", "bird", "cat"]
predicted = ["cat", "cat", "cat", "bird", "dog", "dog", "bird", "cat"]

hits = 0
for positive in ("cat", "dog", "bird"):
    # Every class other than the positive one collapses to the negative label.
    counts = from_predictions(LabeledColumns(
        actual=[a == positive for a in actual],
        predicted=[p == positive for p in predicted],
    ))
    hits += counts.tp
    ms = all_metrics(counts)
    pre = "undefined" if ms.pre is None else f"{ms.pre:.3f}"
    rec = "undefined" if ms.rec is None else f"{ms.rec:.3f}"
    f1 = "undefined" if ms.f1 is None else f"{ms.f1:.3f}"
    print(f"{positive:>5} vs rest: tp={counts.tp} fp={counts.fp} fn={counts.fn} tn={counts.tn}"
          f"  pre={pre} rec={rec} f1={f1}")

# Each correct prediction is a true positive of exactly one class.
assert hits == sum(a == p for a, p in zip(actual, predicted))
