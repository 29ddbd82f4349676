"""A fixed pure-Python job whose run time tracks how fast the host is right now.

run.py runs it before and after every timed CLI child and scales that
child's times by it (see ``REFERENCE_CALIBRATION_S`` there). The job does
the kind of work the CLI does, in a loop of its own: it formats, splits,
matches and parses a fixed CSV text, builds a slotted object per row,
sorts them and sweeps a running tally. It imports neither binaryeval nor
numpy, and its work never depends on the seed, so no change to the
program can change it.

Run as ``python3 -I bench/calibrate.py``; it prints one checksum line.
"""

import re

ROWS = 60_000
_NUMBER = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?\Z")


class _Row:
    __slots__ = ("actual", "score")

    def __init__(self, actual: bool, score: float) -> None:
        self.actual = actual
        self.score = score


def job(rows: int) -> int:
    """Parse, sort and sweep ``rows`` generated rows; return a checksum of the output."""
    text = "\n".join(f"{i % 3 == 0:d},{(i * 2654435761 % 1000003) / 1000003!r}" for i in range(rows))
    parsed = []
    for line in text.splitlines():
        actual, score = line.split(",")
        if not _NUMBER.match(score):
            raise ValueError(f"unparseable score in {line!r}")
        parsed.append(_Row(actual == "1", float(score)))
    parsed.sort(key=lambda row: row.score, reverse=True)
    tp = fp = 0
    points = []
    for row in parsed:
        if row.actual:
            tp += 1
        else:
            fp += 1
        points.append((tp, fp))
    return len("\n".join(f"{tp},{fp}" for tp, fp in points[::50]))


if __name__ == "__main__":
    print(job(ROWS))
