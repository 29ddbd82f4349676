#!/usr/bin/env python3
"""Accumulate confusion counts shard by shard and merge, as a worker pool would, and chunk by chunk as a parse reads."""

from functools import reduce

import numpy as np

from binaryeval import InputConfig, LabeledColumns, empty, from_predictions, merge, parse_hard_labels

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

# The parser can hand over its rows chunk by chunk as it reads them, so a
# file is tallied while the parse holds only one chunk of it, never the columns.
rows = np.random.default_rng(8).integers(0, 2, (100_000, 2))
text = "".join(f"{a},{p}\n" for a, p in rows.tolist())
cfg = InputConfig()
chunk_tallies = []
_, report = parse_hard_labels(text, cfg, each_chunk=lambda chunk: chunk_tallies.append(from_predictions(chunk)))
streamed = reduce(merge, chunk_tallies, empty())
whole = from_predictions(parse_hard_labels(text, cfg)[0])
assert streamed == whole and report.records_accepted == rows.shape[0]
print(f"streamed:   {streamed} over {len(chunk_tallies)} chunks")
print(f"equals the whole-column tally: {streamed == whole}")
