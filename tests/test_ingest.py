"""Prediction-file parsing: mapping, failure accounting, strict mode."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import re
import time
import tracemalloc
from decimal import Decimal
from functools import reduce
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, given
from hypothesis import strategies as st

from binaryeval import _decimals, ingest
from binaryeval.counts import empty, from_predictions, merge, threshold_counts
from binaryeval.ingest import (
    InputConfig,
    ParseError,
    ParseReport,
    parse_hard_labels,
    parse_scores,
)
from oracles import MAX_QUOTED, SCORE_PATTERN, parse_hard_labels_rows, parse_scores_rows, utf8_failure

CFG = InputConfig()


def _blocks(chars: int | None):
    """Read sources in slices or blocks of ``chars`` characters, each read's last LF ending a chunk; None keeps the sizes."""
    if chars is None:
        return contextlib.nullcontext()
    return mock.patch.multiple(ingest, _READ_CHARS=chars, _CHUNK_CHARS=chars)


label_text = st.text(
    alphabet=st.characters(blacklist_characters=",\r\n", blacklist_categories=("Cs",)),
    min_size=1,
    max_size=8,
)


def pairs_of(columns) -> list[tuple[bool, bool]]:
    """The parsed label pairs as (actual, predicted), each true where that label is positive."""
    return list(zip(columns.actual.tolist(), columns.predicted.tolist()))


class TestConfig:
    def test_multi_character_delimiter_rejected(self):
        with pytest.raises(ValueError):
            InputConfig(delimiter="ab")

    def test_newline_delimiter_rejected(self):
        with pytest.raises(ValueError):
            InputConfig(delimiter="\n")

    @pytest.mark.parametrize("field", ["positive_label", "negative_label"])
    @pytest.mark.parametrize("label", ["1,", ",", "a\nb", "0\r"])
    def test_label_holding_the_delimiter_or_a_line_break_rejected(self, field, label):
        with pytest.raises(ValueError, match=f"^{field} must not contain the delimiter or a line break"):
            InputConfig(**{field: label})

    @pytest.mark.parametrize("field", ["delimiter", "positive_label", "negative_label"])
    @pytest.mark.parametrize("text", ["\udcff", "\ud800"])
    def test_a_surrogate_is_rejected(self, field, text):
        # Argv decoded with surrogateescape holds U+DCFF for byte 0xff, which UTF-8 input can never match.
        with pytest.raises(ValueError, match=f"^{field} must be UTF-8 text"):
            InputConfig(**{field: text})

    def test_labels_must_be_distinct(self):
        with pytest.raises(ValueError):
            InputConfig(positive_label="x", negative_label="x")


class TestParseReport:
    def test_accounting_invariant_enforced(self):
        # The counts by kind, not the rows put into words, account for the rows skipped.
        for skipped in ((), (("boom", 2),)):
            with pytest.raises(ValueError, match="accepted \\+ skipped counts must equal records read"):
                ParseReport(records_read=2, records_accepted=1, failures=((1, "boom"),), skipped=skipped)

    def test_valid_report(self):
        report = ParseReport(records_read=3, records_accepted=2, failures=((2, "bad"),), skipped=(("bad", 1),))
        assert report.records_read == 3
        # A report holds the first rows in words, and counts them all.
        assert ParseReport(25, 0, ((1, "bad"),) * 20, (("bad", 25),)).records_accepted == 0


class TestHardLabels:
    def test_default_zero_one_mapping(self):
        pairs, report = parse_hard_labels("1,1\n1,0\n0,1\n", CFG)
        assert pairs_of(pairs) == [(True, True), (True, False), (False, True)]
        assert report == ParseReport(3, 3, ())

    def test_custom_positive_label(self):
        cfg = InputConfig(positive_label="spam")
        pairs, _ = parse_hard_labels("spam,ham\n", cfg)
        assert pairs_of(pairs) == [(True, False)]

    def test_one_vs_rest_maps_every_other_label_negative(self):
        cfg = InputConfig(positive_label="cat")
        pairs, report = parse_hard_labels("cat,dog\nbird,cat\n", cfg)
        assert pairs_of(pairs) == [(True, False), (False, True)]
        assert report.failures == ()

    def test_declared_negative_label_makes_others_failures(self):
        cfg = InputConfig(positive_label="1", negative_label="0")
        pairs, report = parse_hard_labels("1,0\n1,2\n0,1\n", cfg)
        assert len(pairs) == 2
        assert report.records_read == 3
        assert report.failures[0][0] == 2
        assert "unknown label" in report.failures[0][1]

    def test_malformed_row_recorded_with_line_number(self):
        pairs, report = parse_hard_labels("1,1\n1\n0,0\n", CFG)
        assert len(pairs) == 2
        assert report.failures == ((2, "expected 2 fields, got 1"),)

    def test_three_fields_is_malformed(self):
        _, report = parse_hard_labels("1,1,1\n", CFG)
        assert report.failures[0][0] == 1

    def test_strict_mode_raises_at_first_failure(self):
        with pytest.raises(ParseError) as exc_info:
            parse_hard_labels("1,1\nbroken\n0,0\n", CFG, strict=True)
        assert exc_info.value.line_number == 2

    def test_header_is_skipped_and_counted_in_line_numbers(self):
        cfg = InputConfig(has_header=True)
        pairs, report = parse_hard_labels("actual,predicted\n1,1\nbad\n", cfg)
        assert len(pairs) == 1
        assert report.records_read == 2
        assert report.failures == ((3, "expected 2 fields, got 1"),)

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize(
        ("text", "has_header", "error"),
        [("1,1\n\ud800,1\n", False, "line 2: lone surrogate U+D800"),
         ("a\udcff,b\n1,1\n", True, "line 1: invalid UTF-8 byte 0xff")],
        ids=["one-vs-rest-label", "header"],
    )
    def test_a_surrogate_fails_the_parse_in_either_mode(self, text, has_header, error, strict):
        # One-vs-rest would otherwise read "\ud800" as a negative label, and a header is never parsed.
        with pytest.raises(ParseError, match=f"^{re.escape(error)}$"):
            parse_hard_labels(text, InputConfig(has_header=has_header), strict=strict)

    def test_custom_delimiter(self):
        cfg = InputConfig(delimiter=";")
        pairs, _ = parse_hard_labels("1;0\n", cfg)
        assert pairs_of(pairs) == [(True, False)]

    def test_accepts_file_like_streams(self, tmp_path):
        text = "1,1\n0,0\n\n"  # the empty last line is a malformed row
        (tmp_path / "pairs.csv").write_text(text.replace("\n", "\r\n"), newline="")
        with open(tmp_path / "pairs.csv", encoding="utf-8", newline="") as file:
            for source in (io.StringIO(text), io.StringIO(text.replace("\n", "\r\n")), file):
                pairs, report = parse_hard_labels(source, CFG)
                assert pairs_of(pairs) == [(True, True), (False, False)]
                assert report == ParseReport(3, 2, ((3, "expected 2 fields, got 1"),), (("expected 2 fields", 1),))

    def test_crlf_and_lf_parse_identically(self):
        assert _labeled("1,1\n0,1\n", CFG) == _labeled("1,1\r\n0,1\r\n", CFG)
        # A lone CR ends a line too, as it does in the CLI.
        for read, text in [(_scored, "1\r,0.5\n"), (_labeled, "a,b\r\rc\n")]:
            parsed = read(text, CFG)
            assert read(text.replace("\r", "\n"), CFG) == parsed
            assert parsed[2].failures

    def test_trailing_newline_is_irrelevant(self):
        with_newline, r1 = parse_hard_labels("1,1\n0,1\n", CFG)
        without, r2 = parse_hard_labels("1,1\n0,1", CFG)
        assert pairs_of(with_newline) == pairs_of(without)
        assert r1 == r2

    def test_empty_input(self):
        pairs, report = parse_hard_labels("", CFG)
        assert pairs_of(pairs) == []
        assert report == ParseReport(0, 0, ())


class TestScores:
    def test_basic_rows(self):
        scored, report = parse_scores("1,0.9\n0,0.8\n", CFG)
        assert (scored.score.tolist(), scored.positive.tolist()) == ([0.9, 0.8], [True, False])
        assert report.failures == ()

    def test_scientific_notation_accepted(self):
        scored, _ = parse_scores("1,9e-1\n", CFG)
        assert scored.score.tolist() == [0.9]

    @pytest.mark.parametrize(
        "token", ["nan", "NaN", "inf", "-inf", "Infinity", "1e999", "0x1p3", "1_0", " 0.9", "0,9", ""]
    )
    def test_non_finite_or_malformed_scores_fail(self, token):
        _, report = parse_scores(f"1,{token}\n", CFG)
        assert report.records_accepted == 0
        assert report.failures[0][0] == 1

    def test_digits_of_other_scripts_are_malformed(self):
        _, report = parse_scores("1,\u0660.\u0665\n0,0.5\n", CFG)
        assert report.records_accepted == 1
        assert report.failures[0][0] == 1
        assert "malformed score" in report.failures[0][1]

    def test_failure_reason_names_the_problem(self):
        _, report = parse_scores("1,nan\n", CFG)
        assert "score" in report.failures[0][1]

    def test_empty_stream_is_empty_sequence_not_error(self):
        scored, report = parse_scores("", CFG)
        assert len(scored) == 0
        assert report.records_read == 0

    def test_strict_mode_aborts(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_scores("1,oops\n", CFG, strict=True)

    def test_negative_and_extreme_scores(self):
        scored, _ = parse_scores("1,-3.5\n0,+2.25e2\n1,.5\n", CFG)
        assert scored.score.tolist() == [-3.5, 225.0, 0.5]

    def test_a_long_bad_field_is_quoted_cut_short(self):
        field = "5" * (1 << 20)  # a score float() reads as inf
        reason = f"non-finite score {field[:MAX_QUOTED]!r}..."
        _, report = parse_scores(f"1,0.5\n1,{field}\n", CFG)
        assert report.failures == ((2, reason),)
        with pytest.raises(ParseError) as exc_info:
            parse_scores(f"1,0.5\n1,{field}\n", CFG, strict=True)
        assert exc_info.value.reason == reason
        assert len(str(exc_info.value)) < 100
        cfg = InputConfig(negative_label="0")
        _, report = parse_hard_labels(f"{field}x,1\n", cfg)
        assert report.failures == ((1, f"unknown label {field[:MAX_QUOTED]!r}..."),)
        # A field of the cap's length is quoted whole.
        _, report = parse_scores(f"1,{'x' * MAX_QUOTED}\n", CFG)
        assert report.failures == ((1, f"non-finite or malformed score {'x' * MAX_QUOTED!r}"),)


def _decimal_texts():
    """Score texts around the plain decimals the bulk route reads, and past its edges.

    Mantissas of up to 25 digits with leading zeros, those around 2**53 and
    2**64, exact halfway cases between two doubles, a point anywhere or
    none, signs, exponents near the subnormal and overflow edges, and
    texts ``float()`` rejects.
    """
    mantissa = st.one_of(
        st.integers(0, 10**19).map(str),
        st.integers(2**53 - 2**10, 2**53 + 2**10).map(str),
        st.integers(2**64 - 2**10, 2**64 + 2**10).map(str),
        st.integers(1, 25).flatmap(lambda n: st.text(alphabet="0123456789", min_size=n, max_size=n)),
        st.tuples(st.integers(10**14, 10**19), st.integers(0, 4)).map(lambda pair: str(pair[0] * 5 ** pair[1])),
    )
    plain = st.tuples(st.sampled_from(["", "-", "+"]), mantissa, st.integers(-1, 25)).map(
        lambda parts: parts[0] + (parts[1] if parts[2] < 0 else parts[1][:parts[2]] + "." + parts[1][parts[2]:]))
    # Halfway between a double and the next one: its decimal is exact.
    halfway = st.floats(2.0**40, 2.0**64).map(lambda x: format(Decimal(x) + Decimal(math.ulp(x)) / 2, "f"))
    exponent = st.tuples(plain, st.sampled_from(["e", "E"]),
                         st.integers(-345, -300) | st.integers(300, 310) | st.integers(-5, 5)).map(
        lambda parts: f"{parts[0]}{parts[1]}{parts[2]}")
    edges = st.sampled_from(["4.9e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
                             "1.7976931348623157e308", "1.7976931348623159e308", "-0", "-0.0", "+0", "0.",
                             ".0", "-.5", "9007199254740993", "18446744073709551615", "18446744073709551616",
                             "1e", ".", "+-1", "1.2.3", "-", "+", "e5", "1e+", "..", "1..", "1.5."])
    return st.one_of(plain, plain, halfway, exponent, edges)


class TestDecimalRoute:
    """Scores read in bulk are bit for bit those ``float()`` reads; verdicts and reports those of the row loop."""

    @given(st.lists(st.tuples(st.sampled_from(["1", "0"]), _decimal_texts()), max_size=40), st.integers(8, 200))
    def test_scores_equal_the_row_loop(self, rows, chunk_chars):
        source = "".join(f"{label},{text}\n" for label, text in rows)
        with _blocks(chunk_chars):
            bulk = _scored(source, CFG)
        assert bulk == _scored(source, CFG, parse=parse_scores_rows)

    def test_generated_texts_read_as_float_reads_them(self):
        rng = np.random.default_rng(27)
        texts = [repr(x) for x in (10 ** rng.uniform(-4, 16, 20_000)).tolist()]
        texts += [str(x) for x in rng.integers(2**53 - 2**16, 2**53 + 2**16, 5_000).tolist()]
        texts += [f"{x}.{y:02d}" for x, y in zip(rng.integers(0, 2, 5_000).tolist(), rng.integers(0, 100, 5_000).tolist())]
        columns, report = parse_scores("".join(f"1,{text}\n" for text in texts), CFG)
        assert report == ParseReport(len(texts), len(texts))
        assert columns.score.tobytes() == np.array([float(text) for text in texts]).tobytes()

    @pytest.mark.parametrize("text", ["1.5", "-0", "1234567.89", "12345678.9", "1" * 19, "1" * 20, "1e5", "٣"])
    def test_only_plain_decimals_skip_float(self, text):
        with mock.patch.object(_decimals, "_floats", side_effect=_decimals._floats) as fallback:
            columns, _ = parse_scores(f"1,{text}\n", CFG)
        # The point must lie among the first 8 bytes after the sign, and 19 digits at most.
        assert fallback.call_args_list == ([mock.call([text])] if text in ("12345678.9", "1" * 20, "1e5", "٣") else [])
        assert columns.score.tobytes() == (np.array([float(text)]).tobytes() if text != "٣" else b"")

    def test_read_gives_nan_outside_the_grammar_and_an_infinity_past_the_range(self):
        texts = ["nan", "inf", "1_0", " 1", "\u0663", "1e", ".", "+-1", "0x1p-2", "1e400", "-1e400"]
        values = _read(texts)
        assert np.isnan(values[:-2]).all() and values[-2:].tolist() == [math.inf, -math.inf]

    def test_read_gives_float_bit_for_bit(self):
        texts = ["0.5", "-0", "+12.25", "1e-05", "-2.5E+3", "12345678.9", "9" * 19, "1234567890123456789012345",
                 "0.0000000000000000000001234567", "1e-400"]
        assert _read(texts).tobytes() == np.array([float(text) for text in texts]).tobytes()


def _read(texts: list[str]) -> np.ndarray:
    """``_decimals.read`` of ``texts``, each on a line of its own."""
    lengths = np.array([len(text) for text in texts])
    ends = np.cumsum(lengths + 1) - 1
    return _decimals.read("".join(f"{text}\n" for text in texts), ends - lengths, ends)


def test_the_powers_of_five_are_those_of_fast_float():
    high, low = _decimals._HIGH_FIVES, _decimals._LOW_FIVES
    # The first entries of fast_float's power_of_five_128 for q = 0, -1, -2.
    assert [hex(h) for h in high[:3].tolist()] == ["0x8000000000000000", "0xcccccccccccccccc", "0xa3d70a3d70a3d70a"]
    assert [hex(l) for l in low[:3].tolist()] == ["0x0", "0xcccccccccccccccd", "0x3d70a3d70a3d70a4"]
    # Each is one above 5**-k truncated, so times 5**k it lies just above a power of two.
    for k, (h, l) in enumerate(zip(high.tolist(), low.tolist())):
        excess = ((h << 64) | l) * 5**k - (1 << (127 + (5**k - 1).bit_length()))
        assert (k == 0 and excess == 0) or 0 < excess <= 5**k


# Bad rows far apart: a third field near the top, then NA, 1e999 and an
# unknown label under negative_label="0" further down, keyed by line index.
_BAD_ROWS = {10: "1,0.5,1", 20: "0,1,0", 20_000: "0,NA", 35_000: "1,1e999", 50_000: "2,1", 55_000: "1,NA"}


class TestSkippedByKind:
    """``ParseReport.skipped`` on 60,000 rows whose bad rows' kinds first appear in different chunks."""

    @pytest.mark.parametrize(("parse", "good", "skipped"), [
        (parse_scores, ("0,0.25", "1,0.5"), (("expected 2 fields", 2), ("non-finite or malformed score", 2),
                                             ("non-finite score", 1), ("unknown label", 1))),
        (parse_hard_labels, ("0,0", "1,1"), (("expected 2 fields", 2), ("unknown label", 4))),
    ], ids=["scores", "hard-labels"])
    def test_kinds_are_counted_in_order_of_first_occurrence(self, parse, good, skipped):
        text = "".join(_BAD_ROWS.get(i, good[i % 2]) + "\n" for i in range(60_000))
        chunk_ends = np.cumsum([chunk.count("\n") for chunk in ingest._chunks(text)])
        assert np.unique(np.searchsorted(chunk_ends, [10, 20_000, 35_000, 50_000], side="right")).size == 4
        _, report = parse(text, InputConfig(negative_label="0"))
        assert report.skipped == skipped
        assert [line for line, _ in report.failures] == [i + 1 for i in _BAD_ROWS]

    # Rows valid in both layouts, and bad rows of every kind either parser gives under negative_label="0":
    # "2,1" has an unknown actual label, and "1,2" an unknown predicted one (a good score row).
    # The number of bad rows is drawn first, so that about two draws in three skip more than 20.
    @given(st.integers(0, 60).flatmap(lambda bad: st.lists(
               st.tuples(st.lists(st.sampled_from(["1,1", "0,0"]), max_size=3),
                         st.sampled_from(["2,1", "1,2", "1", "1,0,1", "0,NA", "1,1e999", "x,0", "0,"])),
               min_size=bad, max_size=bad)),
           st.integers(4, 120))
    def test_the_first_twenty_are_put_into_words_and_all_are_counted(self, rows, chunk_chars):
        text = "".join(f"{line}\n" for good, bad in rows for line in (*good, bad))
        cfg = InputConfig(negative_label="0")
        for parse, oracle in ((parse_scores, parse_scores_rows), (parse_hard_labels, parse_hard_labels_rows)):
            with _blocks(chunk_chars):
                _, report = parse(text, cfg)
            assert report == oracle(text, cfg)[1]  # the first 20 failures, and the counts in order of first occurrence
            _check_skipped(report)  # the invariant, and 20 rows in words when as many were skipped

    @pytest.mark.parametrize("chunk_chars", [16, None])
    @pytest.mark.parametrize("parse", [parse_scores, parse_hard_labels])
    def test_a_line_not_utf8_after_the_worded_rows_still_fails_the_parse(self, parse, chunk_chars):
        text = "1,1\n" + "broken\n" * 25 + "1,\udcff\n0,0\n"
        with _blocks(chunk_chars), \
                pytest.raises(ParseError, match="^line 27: invalid UTF-8 byte 0xff$"):
            parse(text, CFG)

    def test_the_report_stays_small_however_many_rows_are_skipped(self):
        text = "1,1,1\n" * 200_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            pairs, report = parse_hard_labels(text, CFG)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert (len(pairs), len(report.failures)) == (0, 20)
        assert report.skipped == (("expected 2 fields", 200_000),)
        # With one (line, reason) entry per skipped row, it would hold about 32 MiB.
        assert held < 64 * 1024


class TestProperties:
    @given(
        st.lists(st.tuples(st.booleans(), st.booleans()), max_size=30),
        label_text,
        label_text,
    )
    def test_hard_label_round_trip(self, flags, pos, neg):
        assume(pos != neg)
        cfg = InputConfig(positive_label=pos, negative_label=neg)
        rows = "\n".join(
            f"{pos if a else neg},{pos if p else neg}" for a, p in flags
        )
        parsed, report = parse_hard_labels(rows, cfg)
        assert report.failures == ()
        assert pairs_of(parsed) == flags
        serialized = "\n".join(f"{pos if a else neg},{pos if p else neg}" for a, p in pairs_of(parsed))
        assert serialized == rows
        reparsed, _ = parse_hard_labels(serialized, cfg)
        assert pairs_of(reparsed) == pairs_of(parsed)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=30))
    def test_score_round_trip_through_repr(self, values):
        rows = "\n".join(f"1,{value!r}" for value in values)
        parsed, report = parse_scores(rows, CFG)
        assert report.failures == ()
        assert parsed.score.tolist() == values
        reparsed, _ = parse_scores("\n".join(f"1,{score!r}" for score in parsed.score.tolist()), CFG)
        assert (reparsed.score.tolist(), reparsed.positive.tolist()) == (values, [True] * len(values))

    # characters() leaves out surrogates (category Cs) unless asked for
    # them, so half the soups are drawn with them added.
    @given(st.lists(st.text(alphabet=st.characters(blacklist_characters="\r\n"), max_size=12), max_size=30)
           | st.lists(st.text(alphabet=st.characters(blacklist_characters="\r\n")
                              | st.characters(whitelist_categories=("Cs",)), max_size=12), max_size=30))
    def test_accounting_identity_on_arbitrary_line_soup(self, lines):
        source = "\n".join(lines)
        # The first line holding a surrogate fails the parse, in lenient mode too.
        utf8_failures = [(n, utf8_failure(line)) for n, line in enumerate(lines, start=1) if utf8_failure(line)]
        for parse in (parse_hard_labels, parse_scores):
            if utf8_failures:
                with pytest.raises(ParseError) as exc_info:
                    parse(source, CFG)
                assert (exc_info.value.line_number, exc_info.value.reason) == utf8_failures[0]
            else:
                columns, report = parse(source, CFG)
                _check_skipped(report)
                # The parser hands its scores to ScoredColumns unchecked: it must accept finite ones only.
                assert parse is parse_hard_labels or np.isfinite(columns.score).all()


# Line soup for the bulk/row differential: mostly valid rows, so that many
# chunks hold no flagged row, plus each kind of row the checks flag.
_valid_line = st.one_of(
    st.tuples(st.sampled_from(["1", "0"]),
              st.floats(allow_nan=False, allow_infinity=False).map(repr)).map(",".join),
    st.sampled_from(["1,0", "0,1", "1,-.5e-3", "0,+7.", "1,1E+2", "0,00.50"]),
)
_odd_line = st.sampled_from([
    "", "1", "1,0.5,0.5", "0,,1", "2,0.5", ",0.5", "x,1", "1,nan", "0,inf", "1,1e999", "0,1_0",
    "1, 0.5", "1,0.5\r", "\r", "1,\u0665", "1,0x1p3", "\u00e9,1",
    # Score characters that float() rejects, and a row whose label and score are both bad.
    "1,1e", "0,.", "1,", "0,+-1", "1,e5", "2,nan",
])
_soup = st.lists(st.one_of(*[_valid_line] * 9, _odd_line), max_size=25)
_line_ends = st.sampled_from(["\n", "\r\n", "\r"])
# Delimiters of one, two and four UTF-8 bytes, whitespace among them.
_delimiters = st.sampled_from([",", ";", "\t", " ", "\u00a7", "\U0001f600"])
_configs = st.tuples(st.sampled_from([
    {},
    {"negative_label": "0"},
    {"has_header": True},
    {"negative_label": "0", "has_header": True},
]), _delimiters).map(lambda pair: {**pair[0], "delimiter": pair[1]})


def _source(lines, line_end, final_newline, delimiter):
    """``lines``, their comma-separated fields joined by ``delimiter``; the last ended only if ``final_newline``."""
    text = line_end.join(delimiter.join(line.split(",")) for line in lines)
    return text + (line_end if final_newline and lines else "")


def _check_skipped(report):
    """The report's counts per kind add up to the rows it skipped, of which it holds the first 20 in words."""
    skipped = sum(count for _, count in report.skipped)
    assert report.records_accepted + skipped == report.records_read
    assert len(report.failures) == min(skipped, 20)


def _scored(source, cfg, strict=False, parse=parse_scores):
    """Scores as float.hex, the positive mask and the report, or the strict-mode failure."""
    try:
        columns, report = parse(source, cfg, strict=strict)
    except ParseError as exc:
        return ("error", exc.line_number, exc.reason)
    assert np.isfinite(columns.score).all()  # ScoredColumns does not check the parser's own scores again
    _check_skipped(report)
    return [s.hex() for s in columns.score.tolist()], columns.positive.tolist(), report


def _labeled(source, cfg, strict=False, parse=parse_hard_labels):
    """The actual and predicted masks and the report, or the strict-mode failure."""
    try:
        columns, report = parse(source, cfg, strict=strict)
    except ParseError as exc:
        return ("error", exc.line_number, exc.reason)
    _check_skipped(report)
    return columns.actual.tolist(), columns.predicted.tolist(), report


# Labels for the hard-label differential: multi-character ones, ones that
# are prefixes of each other, the empty field, NUL and a character outside
# the BMP.
_LABELS = ["1", "0", "10", "01", "", "\x00", "1\x00", "\U0001f600", "0\U0001f600"]
_label_configs = st.fixed_dictionaries({
    "positive_label": st.sampled_from(_LABELS),
    "negative_label": st.none() | st.sampled_from(_LABELS),
    "delimiter": _delimiters,
    "has_header": st.booleans(),
}).filter(lambda options: options["positive_label"] != options["negative_label"]
          and options["delimiter"] not in options["positive_label"] + (options["negative_label"] or ""))


class TestBulkPath:
    """The chunked parser against the row loop over the whole text in ``oracles``.

    A ``str`` is read in slices of ``_READ_CHARS`` characters, which may
    end inside a line or between the CR and the LF of a CRLF.
    """

    @given(_soup, _line_ends, st.booleans(), _configs, st.integers(1, 40), st.booleans())
    def test_scores_equal_the_row_loop(self, lines, line_end, final_newline, options, chunk_chars, strict):
        source = _source(lines, line_end, final_newline, options["delimiter"])
        cfg = InputConfig(**options)
        with _blocks(chunk_chars):
            bulk = _scored(source, cfg, strict)
        assert bulk == _scored(source, cfg, strict, parse_scores_rows)

    @given(_soup, _line_ends, st.booleans(), _configs, st.integers(1, 40), st.booleans())
    def test_hard_labels_equal_the_row_loop(self, lines, line_end, final_newline, options, chunk_chars, strict):
        source = _source([line.replace(".", "") for line in lines], line_end, final_newline, options["delimiter"])
        cfg = InputConfig(**options)
        with _blocks(chunk_chars):
            bulk = _labeled(source, cfg, strict)
        assert bulk == _labeled(source, cfg, strict, parse_hard_labels_rows)

    @given(_label_configs, st.data(), st.booleans(), st.integers(1, 40), st.booleans())
    def test_declared_labels_equal_the_row_loop(self, options, data, final_newline, chunk_chars, strict):
        declared = [options["positive_label"], options["negative_label"]]
        field = st.sampled_from([label for label in declared if label is not None]) | st.sampled_from(_LABELS)
        odd = st.sampled_from(_LABELS) | st.tuples(field, field, field).map(",".join)
        lines = data.draw(st.lists(st.one_of(*[st.tuples(field, field).map(",".join)] * 9, odd), max_size=25))
        source = _source(lines, "\n", final_newline, options["delimiter"])
        cfg = InputConfig(**options)
        with _blocks(chunk_chars):
            bulk = _labeled(source, cfg, strict)
        assert bulk == _labeled(source, cfg, strict, parse_hard_labels_rows)

    @given(
        st.lists(st.tuples(st.sampled_from(["1", "0"]), st.floats(-1e6, 1e6).map(repr)), max_size=30),
        _configs,
    )
    def test_valid_text_is_read_in_full(self, rows, options):
        scores = _source([f"{label},{score}" for label, score in rows], "\n", True, options["delimiter"])
        labels = _source([f"{label},{label}" for label, _ in rows], "\n", True, options["delimiter"])
        columns, report = parse_scores(scores, InputConfig(**options))
        pairs, _ = parse_hard_labels(labels, InputConfig(**options))
        data_rows = rows[1:] if options.get("has_header") else rows
        assert report == ParseReport(len(data_rows), len(data_rows))
        assert columns.positive.tolist() == [label == "1" for label, _ in data_rows]
        assert pairs_of(pairs) == [(label == "1",) * 2 for label, _ in data_rows]

    @given(st.text(alphabet="0123456789.+-eE_infa \u0665", max_size=10))
    def test_score_characters_and_float_accept_the_score_pattern(self, text):
        try:
            float(text)
            converts = True
        except ValueError:
            converts = False
        in_charset = set(text.encode("utf-8")) <= set(_decimals._SCORE_CHARS)
        assert (in_charset and converts) == bool(SCORE_PATTERN.match(text))

    @pytest.mark.parametrize("chunk_chars", [1, 2, 3, 5, 8, 13])
    def test_chunk_boundaries_change_nothing(self, chunk_chars):
        source = "label,score\n1,0.25\n0,12.5\n1,-3e-2\n0,7\n1,0.125\n0,1e300"
        cfg = InputConfig(negative_label="0", has_header=True)
        whole = _scored(source, cfg)
        assert whole[2] == ParseReport(6, 6, ())
        with _blocks(chunk_chars):
            assert _scored(source, cfg) == whole
            labels = _labeled(source.replace(".", ""), InputConfig(has_header=True))
        assert labels == _labeled(source.replace(".", ""), InputConfig(has_header=True))


def _lines_back(result):
    """A parse's outcome with each line number it names one less."""
    if result[0] == "error":
        return ("error", result[1] - 1, result[2])
    *columns, report = result
    return (*columns, dataclasses.replace(report, failures=tuple((line - 1, why) for line, why in report.failures)))


class TestTwoViews:
    """One judge reads an ASCII chunk one byte per character and any other as its UCS-4 code points.

    The same rows are parsed from an ASCII source and from one made
    non-ASCII by a header line holding é; each source is one chunk.
    """

    HEADER = "\u00e9,\u00e9\n"

    @given(st.lists(st.one_of(*[_valid_line] * 3, _odd_line).filter(str.isascii), max_size=25),
           st.sampled_from([{}, {"negative_label": "0"}, {"positive_label": "0", "negative_label": "1"}]),
           st.booleans())
    @pytest.mark.parametrize("outcome", [_scored, _labeled], ids=["scores", "hard_labels"])
    def test_both_views_judge_alike(self, outcome, lines, options, strict):
        text = "".join(f"{line}\n" for line in lines)
        narrow = outcome(text, InputConfig(**options), strict)
        wide = outcome(self.HEADER + text, InputConfig(**options, has_header=True), strict)
        assert _lines_back(wide) == narrow

    @pytest.mark.parametrize("header", ["", HEADER], ids=["ascii", "ucs4"])
    def test_a_label_outside_ascii_matches_no_ascii_field(self, header):
        has_header = bool(header)
        text = header + "1,0\n0,1\n0,0\n"
        pairs, report = parse_hard_labels(text, InputConfig(positive_label="\U0001f600", has_header=has_header))
        assert pairs_of(pairs) == [(False, False)] * 3 and report == ParseReport(3, 3)
        # A negative label whose first character is a field of every row matches none of them either.
        cfg = InputConfig(positive_label="\U0001f600", negative_label="0\U0001f600", has_header=has_header)
        pairs, report = parse_hard_labels(text, cfg)
        assert len(pairs) == 0 and report.skipped == (("unknown label", 3),)
        columns, report = parse_scores(header + "1,0.5\n0,0.25\n", cfg)
        assert len(columns) == 0 and report.skipped == (("unknown label", 2),)

    @pytest.mark.parametrize("header", ["", HEADER], ids=["ascii", "ucs4"])
    def test_an_empty_label_matches_only_empty_fields(self, header):
        text = header + ",1\n1,\n,\n0,1\n10,01\n"
        pairs, report = parse_hard_labels(text, InputConfig(positive_label="", has_header=bool(header)))
        assert pairs_of(pairs) == [(True, False), (False, True), (True, True), (False, False), (False, False)]
        cfg = InputConfig(positive_label="1", negative_label="", has_header=bool(header))
        pairs, report = parse_hard_labels(text, cfg)
        assert pairs_of(pairs) == [(False, True), (True, False), (False, False)]
        assert report.failures == ((4 + bool(header), "unknown label '0'"), (5 + bool(header), "unknown label '10'"))


class TestStreaming:
    """A source read as a text stream against the same text as one ``str``."""

    @given(_soup, _line_ends, st.booleans(), _configs, st.integers(1, 40), st.booleans())
    def test_a_text_stream_reads_as_the_whole_text(self, lines, line_end, final_newline, options, chunk_chars, strict):
        text = _source(lines, line_end, final_newline, options["delimiter"])
        cfg = InputConfig(**options)
        with _blocks(chunk_chars):
            # A stream's blocks of chunk_chars characters may end inside a line or a CRLF.
            assert _scored(io.StringIO(text, newline=""), cfg, strict) == _scored(text, cfg, strict)
            assert _labeled(io.StringIO(text, newline=""), cfg, strict) == _labeled(text, cfg, strict)

    @pytest.mark.parametrize("source", [["1,1\n", "0,0\n"], (line for line in ["1,1\n"])], ids=["list", "generator"])
    def test_a_source_neither_str_nor_stream_is_a_type_error(self, source):
        for parse in (parse_scores, parse_hard_labels):
            with pytest.raises(TypeError, match="^source must be a str or a text stream"):
                parse(source, CFG)

    @pytest.mark.parametrize("data", [b"", b"1,0.5\n"], ids=["empty", "one-row"])
    def test_a_byte_stream_is_a_type_error(self, data):
        # An empty one too: it is no text stream, not a text with no rows.
        for parse in (parse_scores, parse_hard_labels):
            with pytest.raises(TypeError, match="^source must be a str or a text stream"):
                parse(io.BytesIO(data), CFG)

    def test_cr_only_text_is_read_in_several_chunks(self):
        lf_text = "".join(f"{i % 2},{i / 7!r}\n" for i in range(200))
        cr_text = lf_text.replace("\n", "\r")
        with _blocks(64):
            assert len(list(ingest._chunks(cr_text))) > 1
            # A CR that ends a block waits for the next one, which may start with LF.
            assert len(list(ingest._chunks(io.StringIO(cr_text, newline="")))) > 1
            assert _scored(cr_text, CFG) == _scored(lf_text, CFG)
        assert _scored(cr_text, CFG)[2] == ParseReport(200, 200)

    def test_a_line_of_many_blocks_is_joined_once(self):
        # Joined again at each block, a line of n blocks would cost about n * n / 2 block copies.
        line = "1," + "5" * (1 << 20) + "\n"
        seconds = []
        with _blocks(64):
            for text in (line, "1,5\n" * (len(line) // 4)):  # one line, then as many characters in short lines
                start = time.perf_counter()
                chunks = list(ingest._chunks(io.StringIO(text, newline="")))
                seconds.append(time.perf_counter() - start)
                assert "".join(chunks) == text
        assert seconds[0] < 5 * seconds[1] + 0.05

    def test_an_open_file_is_never_held_whole(self, tmp_path):
        rows = 200_000
        path = tmp_path / "scores.csv"
        path.write_text("".join(f"{i % 3 == 0:d},{i * 7919 % 100_003 / 100_003!r}\n" for i in range(rows)))
        tracemalloc.start()
        try:
            with open(path, encoding="utf-8", newline="") as file:
                columns, report = parse_scores(file, CFG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report == ParseReport(rows, rows)
        # Read whole, the file's text alone would take about twice the columns.
        assert peak < 2.5 * (columns.score.nbytes + columns.positive.nbytes)


# Rows of every kind for the each_chunk differential: good in either layout
# under some configuration, a header, a wrong field count, a malformed, empty
# or non-finite score, a label neither of two declared ones, and not UTF-8.
_ANY_ROW = st.sampled_from([
    "1,1", "0,0", "1,0", "é,ñ", "ñ,é", "1,0.5", "0,0.25", "é,-3e2", "ñ,0.75",
    "actual,predicted", "1", "1,0,1", "", "1,NA", "0,", "1,1e999", "2,1", "1,2", "x,0.5", "1,\udcff",
])
_CONFIGS = [InputConfig(), InputConfig(negative_label="0"), InputConfig(positive_label="é"),
            InputConfig(positive_label="é", negative_label="ñ")]


class TestEachChunk:
    """``each_chunk`` is handed, chunk by chunk, what the parse without it returns, with the same report or failure."""

    @given(st.lists(st.tuples(_ANY_ROW, st.sampled_from(["\n", "\r\n", "\r"])).map("".join), max_size=60).map("".join),
           st.sampled_from(_CONFIGS), st.booleans(), st.integers(1, 16), st.integers(4, 60), st.integers(1, 8))
    def test_the_chunks_join_to_the_columns_and_fold_to_the_tally(self, text, cfg, header, read_chars, chunk_chars, chunk_rows):
        cfg = dataclasses.replace(cfg, has_header=header)
        sizes = mock.patch.multiple(ingest, _READ_CHARS=read_chars, _CHUNK_CHARS=chunk_chars, _CHUNK_ROWS=chunk_rows)
        with sizes:
            rows = [chunk.count("\n") for chunk in ingest._chunks(text)]
        # _chunks' bound for rows of 1 character or more.
        assert max(rows, default=0) <= chunk_rows + read_chars
        for cut in rows[:-1]:
            event("a chunk cut by rows" if cut >= chunk_rows else "a chunk cut by characters")
        for parse, fields, tally in ((parse_scores, ("score", "positive"), lambda c: threshold_counts(c, 0.5)),
                                     (parse_hard_labels, ("actual", "predicted"), from_predictions)):
            for strict in (False, True):
                chunks = []
                with sizes:
                    whole = _outcome(parse, text, cfg, strict)
                    handed = _outcome(parse, text, cfg, strict, each_chunk=chunks.append)
                if isinstance(whole, ParseError):
                    assert isinstance(handed, ParseError) and (str(handed), handed.line_number) == (str(whole), whole.line_number)
                    continue
                (columns, report), (rest, handed_report) = whole, handed
                assert handed_report == report and len(rest) == 0
                for field in fields:
                    joined = np.concatenate([getattr(columns, field)[:0], *(getattr(chunk, field) for chunk in chunks)])
                    assert (joined.dtype, joined.tobytes()) == (getattr(columns, field).dtype, getattr(columns, field).tobytes())
                    assert not any(getattr(chunk, field).flags.writeable for chunk in chunks)
                assert reduce(merge, map(tally, chunks), empty()) == tally(columns)

    @pytest.mark.parametrize("stream", [False, True], ids=["str", "text-stream"])
    def test_no_chunk_of_short_rows_passes_the_row_bound(self, stream):
        text = "1,0\n" * 10_000
        sizes = []
        _, report = parse_hard_labels(io.StringIO(text) if stream else text, CFG, each_chunk=lambda chunk: sizes.append(len(chunk)))
        assert report == ParseReport(10_000, 10_000) and sum(sizes) == 10_000
        # _chunks' bound for rows of 4 characters or more.
        assert max(sizes) <= ingest._CHUNK_ROWS + ingest._READ_CHARS // 4


def _outcome(parse, text, cfg, strict, **each_chunk):
    """The parse's columns and report, or the ParseError it raised."""
    try:
        return parse(text, cfg, strict=strict, **each_chunk)
    except ParseError as exc:
        return exc
