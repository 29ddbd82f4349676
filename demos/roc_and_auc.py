#!/usr/bin/env python3
"""Sweep a synthetic classifier's scores into a ROC curve and plot it.

Writes roc_demo.svg next to this script.
"""

from pathlib import Path

import numpy as np

from binaryeval import ScoredColumns, auc_pair_count, auc_trapezoid, roc_points, write_svg

rng = np.random.default_rng(42)

# Positives score higher on average; overlap makes the curve interesting.
pos_scores = rng.normal(loc=0.65, scale=0.18, size=400)
neg_scores = rng.normal(loc=0.35, scale=0.18, size=600)
samples = ScoredColumns(
    score=np.concatenate([pos_scores, neg_scores]),
    positive=np.arange(pos_scores.size + neg_scores.size) < pos_scores.size,
)

curve = roc_points(samples)
print(f"curve has {curve.threshold.size} points "
      f"(one per distinct score, plus the (0,0) start)")

# Two independent AUC algorithms divide the same integer ratio once: the floats are equal.
trapezoid = auc_trapezoid(curve)
pair_count = auc_pair_count(samples)
assert trapezoid == pair_count
print(f"AUC by trapezoidal rule: {trapezoid:.12f}")
print(f"AUC by pair counting:    {pair_count:.12f}")
print(f"difference:              {abs(trapezoid - pair_count):.2e}")

out = Path(__file__).with_name("roc_demo.svg")
with open(out, "w", encoding="utf-8") as svg:
    write_svg(curve, "Synthetic classifier", svg)
print(f"wrote {out}")
