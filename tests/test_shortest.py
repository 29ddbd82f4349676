"""The column formatter writes what ``repr`` writes, for every double."""

from __future__ import annotations

import io
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from binaryeval import _shortest
from binaryeval._shortest import repr_codes
from binaryeval.counts import ScoredColumns
from binaryeval.report import EvaluationReport, write_json, write_text
from binaryeval.roc import roc_points


def texts(values: np.ndarray) -> list[str]:
    """``repr_codes`` of ``values`` as one string per value, its NULs dropped."""
    codes = repr_codes(values)
    lines = np.concatenate([codes, np.full((codes.shape[0], 1), ord("\n"), dtype=np.uint8)], axis=1)
    return lines.tobytes().replace(b"\0", b"").decode("ascii").split("\n")[:-1]


def assert_reprs(values) -> None:
    column = np.asarray(values, dtype=np.float64)
    assert texts(column) == list(map(repr, column.tolist()))


def doubles(bits) -> np.ndarray:
    return np.array(bits, dtype=np.uint64).view(np.float64)


# A double from its sign, biased exponent and fraction, so that every exponent
# (0 for zeros and subnormals, 2047 for infinities and NaNs) is drawn as often.
FIELDS = st.builds(
    lambda sign, exponent, fraction: sign << 63 | exponent << 52 | fraction,
    st.integers(0, 1),
    st.integers(0, 2047),
    st.integers(0, 2**52 - 1) | st.sampled_from([0, 1, 2**52 - 1]),
)
# Doubles within 2**20 steps of the edges of repr's fixed notation, 1e-4 and
# 1e16, and of the powers of ten beside them.
EDGES = st.builds(
    lambda edge, steps: int(np.float64(edge).view(np.uint64)) + steps,
    st.sampled_from([1e-5, 1e-4, 1e15, 1e16, 1e17]),
    st.integers(-(2**20), 2**20),
)
INTEGERS = st.integers(-(2**53), 2**53).map(float)
RATES = st.integers(1, 2**40).flatmap(lambda n: st.integers(0, n).map(lambda k: k / n))
SIGNED_ZEROS = st.sampled_from([0.0, -0.0])


class TestDifferentialAgainstRepr:
    @given(st.lists(st.integers(0, 2**64 - 1) | FIELDS | EDGES, min_size=1, max_size=50))
    def test_raw_bit_patterns(self, bits):
        assert_reprs(doubles(bits))

    @given(st.lists(INTEGERS | RATES | SIGNED_ZEROS, min_size=1, max_size=50))
    def test_integers_rates_and_signed_zeros(self, values):
        assert_reprs(values)

    @given(st.lists(st.tuples(INTEGERS | RATES | SIGNED_ZEROS | FIELDS.map(lambda b: doubles([b])[0]),
                              st.integers(1, 5)), min_size=1, max_size=20))
    def test_runs_of_equal_values(self, runs):
        assert_reprs([value for value, count in runs for _ in range(count)])

    def test_minus_zero_next_to_zero(self):
        assert texts(np.array([0.0, -0.0, -0.0, 0.0, 1.0, -0.0])) == ["0.0", "-0.0", "-0.0", "0.0", "1.0", "-0.0"]

    def test_a_million_random_bit_patterns_in_the_fixed_range(self):
        rng = np.random.default_rng(20)
        low, high = (int(np.float64(edge).view(np.uint64)) for edge in (1e-4, 1e16))
        bits = rng.integers(low, high, 10**6, dtype=np.uint64) | rng.integers(0, 2, 10**6, dtype=np.uint64) << 63
        for chunk in np.array_split(doubles(bits), 64):
            assert_reprs(chunk)

    def test_every_power_of_two_and_of_ten(self):
        # Below a power of two the spacing of doubles halves; the formatter keeps
        # the regular interval there, which is right for each power of two in range.
        assert_reprs(np.ldexp(1.0, np.arange(-1074, 1024)))
        assert_reprs([float(f"1e{e}") for e in range(-323, 309)])

    def test_every_rate_of_a_prime_denominator(self):
        assert_reprs(np.arange(139_999 + 1) / 139_999)

    def test_the_neighbours_of_the_fixed_range_edges(self):
        for edge in (1e-4, 1e16):
            middle = int(np.float64(edge).view(np.uint64))
            assert_reprs(doubles(np.arange(middle - 5000, middle + 5000)))


def benchmark_curve(rows: int, seed: int):
    """The ROC curve of the benchmark's ``distinct`` input: 30% positives, logistic scores of N(0, 1) + label."""
    rng = np.random.default_rng(seed)
    actual = np.zeros(rows, dtype=bool)
    actual[rng.permutation(rows)[: round(0.3 * rows)]] = True
    return roc_points(ScoredColumns(1.0 / (1.0 + np.exp(-(rng.standard_normal(rows) + actual))), actual))


class TestFallback:
    def test_only_values_outside_the_fixed_range_are_written_by_repr(self):
        values = np.array([0.0, -0.0, 1e-4, 0.5, -2.5, 9999999999999998.0, 5e-05, 1e16, -np.inf, np.nan, 5e-324])
        with mock.patch.object(_shortest, "repr", create=True, side_effect=repr) as fallback:
            assert texts(values) == list(map(repr, values.tolist()))
        assert [call.args[0] for call in fallback.call_args_list][:3] == [5e-05, 1e16, -np.inf]
        assert fallback.call_count == 5

    def test_how_many_values_of_the_benchmark_curve_take_the_fallback(self):
        # The rates below 1e-4: fp/140000 for fp < 14 and tp/60000 for tp < 6, once
        # per run of equal values; in the text report also the initial "inf".
        curve = benchmark_curve(200_000, 1)
        for write, calls in ((write_json, 18), (write_text, 1)):
            with mock.patch.object(_shortest, "repr", create=True, side_effect=repr) as fallback:
                write(EvaluationReport(curve=curve), io.StringIO())
            assert fallback.call_count == calls


def test_the_tables_are_built_on_the_first_curve_written_only(tmp_path):
    data = tmp_path / "labels.csv"
    data.write_text("1,1\n0,0\n1,0\n")
    script = (
        "import sys; from binaryeval import _shortest, cli\n"
        f"cli.run(['evaluate', {str(data)!r}])\n"
        "assert _shortest._tables.cache_info().currsize == 0\n"
        f"cli.run(['roc', {str(data).replace('labels', 'scores')!r}])\n"
        "assert _shortest._tables.cache_info().currsize == 1\n"
    )
    (tmp_path / "scores.csv").write_text("1,0.9\n0,0.1\n1,0.4\n")
    subprocess.run([sys.executable, "-c", script], check=True, stdout=subprocess.DEVNULL)


@pytest.mark.parametrize("seed", [1, 7])
def test_a_large_curve_is_written_as_by_repr(seed):
    curve = benchmark_curve(20_000, seed)
    for column in (curve.fpr, curve.tpr, curve.threshold):
        assert_reprs(column)


@given(st.lists(st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)), min_size=1, max_size=50))
def test_the_product_is_exact_for_any_two_words(pairs):
    a, b = (np.array(column, dtype=np.uint64) for column in zip(*pairs))
    high, low = _shortest._product(a, b)
    assert [(h << 64) | l for h, l in zip(high.tolist(), low.tolist())] == [x * y for x, y in pairs]
    top = np.array([2**64 - 1], dtype=np.uint64)
    assert [int(half[0]) for half in _shortest._product(top, top)] == [2**64 - 2, 1]


def test_the_powers_of_five_are_those_of_fast_float():
    high, low = _shortest._fives()
    # The first entries of fast_float's power_of_five_128 for q = 0, -1, -2.
    assert [hex(h) for h in high[:3].tolist()] == ["0x8000000000000000", "0xcccccccccccccccc", "0xa3d70a3d70a3d70a"]
    assert [hex(l) for l in low[:3].tolist()] == ["0x0", "0xcccccccccccccccd", "0x3d70a3d70a3d70a4"]
    # Each is one above 5**-k truncated, so times 5**k it lies just above a power of two.
    for k, (h, l) in enumerate(zip(high.tolist(), low.tolist())):
        excess = ((h << 64) | l) * 5**k - (1 << (127 + (5**k - 1).bit_length()))
        assert (k == 0 and excess == 0) or 0 < excess <= 5**k
