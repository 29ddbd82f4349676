#!/usr/bin/env python3
"""Accumulate confusion counts shard by shard and merge, as a worker pool would."""

from functools import reduce

import numpy as np

from binaryeval import Label, LabeledPrediction, empty, from_predictions, merge, record

rng = np.random.default_rng(7)
labels = (Label.NEGATIVE, Label.POSITIVE)

stream = [
    LabeledPrediction(actual=labels[a], predicted=labels[p])
    for a, p in zip(rng.integers(0, 2, 10_000), rng.integers(0, 2, 10_000))
]

# Pretend four workers each saw a contiguous slice of the stream.
shards = np.array_split(np.arange(len(stream)), 4)
partials = [from_predictions([stream[i] for i in shard]) for shard in shards]
for worker, partial in enumerate(partials):
    print(f"worker {worker}: tp={partial.tp} fp={partial.fp} fn={partial.fn} tn={partial.tn}")

combined = reduce(merge, partials, empty())
# The sequential tally records one pair at a time, as a single worker would.
sequential = reduce(record, stream, empty())
print(f"merged:    {combined}")
print(f"sequential: {sequential}")
print(f"bit-identical: {combined == sequential}")
