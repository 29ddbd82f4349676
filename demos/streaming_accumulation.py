#!/usr/bin/env python3
"""Accumulate confusion counts shard by shard and merge, as a worker pool would."""

from functools import reduce

import numpy as np

from binaryeval import LabeledColumns, empty, from_predictions, merge

rng = np.random.default_rng(7)
actual, predicted = rng.integers(0, 2, 10_000) == 1, rng.integers(0, 2, 10_000) == 1

# Pretend four workers each saw a contiguous slice of the stream.
partials = [
    from_predictions(LabeledColumns(a, p))
    for a, p in zip(np.array_split(actual, 4), np.array_split(predicted, 4))
]
for worker, partial in enumerate(partials):
    print(f"worker {worker}: tp={partial.tp} fp={partial.fp} fn={partial.fn} tn={partial.tn}")

combined = reduce(merge, partials, empty())
# The sequential tally records one pair at a time, as a single worker would.
one_pair_tallies = (from_predictions(LabeledColumns(actual[i : i + 1], predicted[i : i + 1])) for i in range(actual.size))
sequential = reduce(merge, one_pair_tallies, empty())
assert combined == sequential
print(f"merged:    {combined}")
print(f"sequential: {sequential}")
print(f"bit-identical: {combined == sequential}")
