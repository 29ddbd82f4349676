#!/usr/bin/env python3
"""Tally a batch of predictions and walk through every metric."""

from binaryeval import ConfusionCounts, LabeledColumns, all_metrics, from_predictions

# Ten predictions: four hits, two misses, one false alarm, three correct rejections.
# Each column is true where that label is positive.
pairs = LabeledColumns(
    actual=[True] * 6 + [False] * 4,
    predicted=[True] * 4 + [False] * 2 + [True] + [False] * 3,
)
counts = from_predictions(pairs)
assert counts == ConfusionCounts(tp=4, fp=1, fn=2, tn=3)
print(f"tally: tp={counts.tp} fp={counts.fp} fn={counts.fn} tn={counts.tn}")
print(f"totals: {counts.total} samples, {counts.positives} positive, {counts.negatives} negative")
print()

for name, value in all_metrics(counts).as_dict().items():
    print(f"{name.upper():>4}  {value:.6f}")
print()

# Zero-denominator cases return None instead of a quiet 0 or NaN.
degenerate = ConfusionCounts(tp=0, fp=0, fn=2, tn=8)
ms = all_metrics(degenerate)
print("nothing predicted positive:")
print(f"  precision -> {ms.pre}  (undefined, not 0)")
print(f"  recall    -> {ms.rec:.6f}")
print(f"  accuracy  -> {ms.acc:.6f}")
