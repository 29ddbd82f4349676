"""Prediction-file parsing: mapping, failure accounting, strict mode."""

from __future__ import annotations

import io
from unittest import mock

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from binaryeval import ingest
from binaryeval.counts import Label
from binaryeval.ingest import (
    InputConfig,
    InputMode,
    ParseError,
    ParseReport,
    parse_hard_labels,
    parse_scores,
)
from oracles import parse_hard_labels_rows, parse_scores_rows

P = Label.POSITIVE
N = Label.NEGATIVE

HARD_CFG = InputConfig(mode=InputMode.HARD_LABELS)
SCORE_CFG = InputConfig(mode=InputMode.SCORES)

label_text = st.text(
    alphabet=st.characters(blacklist_characters=",\r\n", blacklist_categories=("Cs",)),
    min_size=1,
    max_size=8,
)


class TestConfig:
    def test_multi_character_delimiter_rejected(self):
        with pytest.raises(ValueError):
            InputConfig(mode=InputMode.HARD_LABELS, delimiter="ab")

    def test_newline_delimiter_rejected(self):
        with pytest.raises(ValueError):
            InputConfig(mode=InputMode.HARD_LABELS, delimiter="\n")

    @pytest.mark.parametrize("field", ["positive_label", "negative_label"])
    @pytest.mark.parametrize("label", ["1,", ",", "a\nb", "0\r"])
    def test_label_holding_the_delimiter_or_a_line_break_rejected(self, field, label):
        with pytest.raises(ValueError, match=f"^{field} must not contain the delimiter or a line break"):
            InputConfig(mode=InputMode.HARD_LABELS, **{field: label})

    def test_labels_must_be_distinct(self):
        with pytest.raises(ValueError):
            InputConfig(mode=InputMode.HARD_LABELS, positive_label="x", negative_label="x")

    def test_mode_mismatch_rejected(self):
        with pytest.raises(ValueError):
            parse_hard_labels("1,1\n", SCORE_CFG)
        with pytest.raises(ValueError):
            parse_scores("1,0.5\n", HARD_CFG)


class TestParseReport:
    def test_accounting_invariant_enforced(self):
        with pytest.raises(ValueError):
            ParseReport(records_read=2, records_accepted=2, failures=((1, "boom"),))

    def test_valid_report(self):
        report = ParseReport(records_read=3, records_accepted=2, failures=((2, "bad"),))
        assert report.records_read == 3


class TestHardLabels:
    def test_default_zero_one_mapping(self):
        pairs, report = parse_hard_labels("1,1\n1,0\n0,1\n", HARD_CFG)
        assert [(p.actual, p.predicted) for p in pairs] == [(P, P), (P, N), (N, P)]
        assert report == ParseReport(3, 3, ())

    def test_custom_positive_label(self):
        cfg = InputConfig(mode=InputMode.HARD_LABELS, positive_label="spam")
        pairs, _ = parse_hard_labels("spam,ham\n", cfg)
        assert [(p.actual, p.predicted) for p in pairs] == [(P, N)]

    def test_one_vs_rest_maps_every_other_label_negative(self):
        cfg = InputConfig(mode=InputMode.HARD_LABELS, positive_label="cat")
        pairs, report = parse_hard_labels("cat,dog\nbird,cat\n", cfg)
        assert [(p.actual, p.predicted) for p in pairs] == [(P, N), (N, P)]
        assert report.failures == ()

    def test_declared_negative_label_makes_others_failures(self):
        cfg = InputConfig(mode=InputMode.HARD_LABELS, positive_label="1", negative_label="0")
        pairs, report = parse_hard_labels("1,0\n1,2\n0,1\n", cfg)
        assert len(pairs) == 2
        assert report.records_read == 3
        assert report.failures[0][0] == 2
        assert "unknown label" in report.failures[0][1]

    def test_malformed_row_recorded_with_line_number(self):
        pairs, report = parse_hard_labels("1,1\n1\n0,0\n", HARD_CFG)
        assert len(pairs) == 2
        assert report.failures == ((2, "expected 2 fields, got 1"),)

    def test_three_fields_is_malformed(self):
        _, report = parse_hard_labels("1,1,1\n", HARD_CFG)
        assert report.failures[0][0] == 1

    def test_strict_mode_raises_at_first_failure(self):
        with pytest.raises(ParseError) as exc_info:
            parse_hard_labels("1,1\nbroken\n0,0\n", HARD_CFG, strict=True)
        assert exc_info.value.line_number == 2

    def test_header_is_skipped_and_counted_in_line_numbers(self):
        cfg = InputConfig(mode=InputMode.HARD_LABELS, has_header=True)
        pairs, report = parse_hard_labels("actual,predicted\n1,1\nbad\n", cfg)
        assert len(pairs) == 1
        assert report.records_read == 2
        assert report.failures == ((3, "expected 2 fields, got 1"),)

    def test_custom_delimiter(self):
        cfg = InputConfig(mode=InputMode.HARD_LABELS, delimiter=";")
        pairs, _ = parse_hard_labels("1;0\n", cfg)
        assert [(p.actual, p.predicted) for p in pairs] == [(P, N)]

    def test_accepts_file_like_streams(self):
        text = "1,1\n0,0\n\n"  # the empty last line is a malformed row
        for source in (io.StringIO(text), ["1,1", "0,0", ""], io.StringIO(text.replace("\n", "\r\n"))):
            pairs, report = parse_hard_labels(source, HARD_CFG)
            assert [(p.actual, p.predicted) for p in pairs] == [(P, P), (N, N)]
            assert report == ParseReport(3, 2, ((3, "expected 2 fields, got 1"),))

    def test_crlf_and_lf_parse_identically(self):
        unix, _ = parse_hard_labels("1,1\n0,1\n", HARD_CFG)
        dos, _ = parse_hard_labels("1,1\r\n0,1\r\n", HARD_CFG)
        assert list(unix) == list(dos)
        # A lone CR ends a line too, as it does in the CLI.
        for parse, cfg, text in [(parse_scores, SCORE_CFG, "1\r,0.5\n"), (parse_hard_labels, HARD_CFG, "a,b\r\rc\n")]:
            columns, report = parse(text, cfg)
            lf_columns, lf_report = parse(text.replace("\r", "\n"), cfg)
            assert (list(columns), report) == (list(lf_columns), lf_report)
            assert report.failures

    def test_trailing_newline_is_irrelevant(self):
        with_newline, r1 = parse_hard_labels("1,1\n0,1\n", HARD_CFG)
        without, r2 = parse_hard_labels("1,1\n0,1", HARD_CFG)
        assert list(with_newline) == list(without)
        assert r1 == r2

    def test_empty_input(self):
        pairs, report = parse_hard_labels("", HARD_CFG)
        assert list(pairs) == []
        assert report == ParseReport(0, 0, ())


class TestScores:
    def test_basic_rows(self):
        scored, report = parse_scores("1,0.9\n0,0.8\n", SCORE_CFG)
        assert [(s.score, s.actual) for s in scored] == [(0.9, P), (0.8, N)]
        assert report.failures == ()

    def test_scientific_notation_accepted(self):
        scored, _ = parse_scores("1,9e-1\n", SCORE_CFG)
        assert scored[0].score == 0.9

    @pytest.mark.parametrize(
        "token", ["nan", "NaN", "inf", "-inf", "Infinity", "1e999", "0x1p3", "1_0", " 0.9", "0,9", ""]
    )
    def test_non_finite_or_malformed_scores_fail(self, token):
        _, report = parse_scores(f"1,{token}\n", SCORE_CFG)
        assert report.records_accepted == 0
        assert report.failures[0][0] == 1

    def test_digits_of_other_scripts_are_malformed(self):
        _, report = parse_scores("1,\u0660.\u0665\n0,0.5\n", SCORE_CFG)
        assert report.records_accepted == 1
        assert report.failures[0][0] == 1
        assert "malformed score" in report.failures[0][1]

    def test_failure_reason_names_the_problem(self):
        _, report = parse_scores("1,nan\n", SCORE_CFG)
        assert "score" in report.failures[0][1]

    def test_empty_stream_is_empty_sequence_not_error(self):
        scored, report = parse_scores("", SCORE_CFG)
        assert len(scored) == 0
        assert report.records_read == 0

    def test_strict_mode_aborts(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_scores("1,oops\n", SCORE_CFG, strict=True)

    def test_negative_and_extreme_scores(self):
        scored, _ = parse_scores("1,-3.5\n0,+2.25e2\n1,.5\n", SCORE_CFG)
        assert [s.score for s in scored] == [-3.5, 225.0, 0.5]


class TestProperties:
    @given(
        st.lists(st.tuples(st.booleans(), st.booleans()), max_size=30),
        label_text,
        label_text,
    )
    def test_hard_label_round_trip(self, flags, pos, neg):
        assume(pos != neg)
        cfg = InputConfig(mode=InputMode.HARD_LABELS, positive_label=pos, negative_label=neg)
        rows = "\n".join(
            f"{pos if a else neg},{pos if p else neg}" for a, p in flags
        )
        parsed, report = parse_hard_labels(rows, cfg)
        assert report.failures == ()
        assert [(p.actual is P, p.predicted is P) for p in parsed] == flags
        serialized = "\n".join(
            f"{pos if p.actual is P else neg},{pos if p.predicted is P else neg}"
            for p in parsed
        )
        assert serialized == rows
        reparsed, _ = parse_hard_labels(serialized, cfg)
        assert list(reparsed) == list(parsed)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=30))
    def test_score_round_trip_through_repr(self, values):
        rows = "\n".join(f"1,{value!r}" for value in values)
        parsed, report = parse_scores(rows, SCORE_CFG)
        assert report.failures == ()
        assert [s.score for s in parsed] == values
        reparsed, _ = parse_scores("\n".join(f"1,{s.score!r}" for s in parsed), SCORE_CFG)
        assert list(reparsed) == list(parsed)

    @given(st.lists(st.text(alphabet=st.characters(blacklist_characters="\r\n"), max_size=12), max_size=30))
    def test_accounting_identity_on_arbitrary_line_soup(self, lines):
        source = "\n".join(lines)
        for parse in (parse_hard_labels, parse_scores):
            cfg = HARD_CFG if parse is parse_hard_labels else SCORE_CFG
            _, report = parse(source, cfg)
            assert report.records_accepted + len(report.failures) == report.records_read


# Line soup for the bulk/row differential: mostly valid rows, so that many
# chunks pass the bulk checks, plus each kind of row that makes a chunk
# fail them.
_valid_line = st.one_of(
    st.tuples(st.sampled_from(["1", "0"]),
              st.floats(allow_nan=False, allow_infinity=False).map(repr)).map(",".join),
    st.sampled_from(["1,0", "0,1", "1,-.5e-3", "0,+7.", "1,1E+2", "0,00.50"]),
)
_odd_line = st.sampled_from([
    "", "1", "1,0.5,0.5", "0,,1", "2,0.5", ",0.5", "x,1", "1,nan", "0,inf", "1,1e999", "0,1_0",
    "1, 0.5", "1,0.5\r", "\r", "1,\u0665", "1,0x1p3", "\u00e9,1",
])
_soup = st.lists(st.one_of(*[_valid_line] * 9, _odd_line), max_size=25)
_configs = st.sampled_from([
    {},
    {"negative_label": "0"},
    {"has_header": True},
    {"negative_label": "0", "has_header": True},
])


def _scored(source, cfg, strict=False, parse=parse_scores):
    """Scores as float.hex, the positive mask and the report, or the strict-mode failure."""
    try:
        columns, report = parse(source, cfg, strict=strict)
    except ParseError as exc:
        return ("error", exc.line_number, exc.reason)
    return [s.hex() for s in columns.score.tolist()], columns.positive.tolist(), report


def _labeled(source, cfg, strict=False, parse=parse_hard_labels):
    """The actual and predicted masks and the report, or the strict-mode failure."""
    try:
        columns, report = parse(source, cfg, strict=strict)
    except ParseError as exc:
        return ("error", exc.line_number, exc.reason)
    return columns.actual.tolist(), columns.predicted.tolist(), report


# Labels for the hard-label differential: multi-character ones, ones that
# are prefixes of each other, the empty field, NUL and a character outside
# the BMP.
_LABELS = ["1", "0", "10", "01", "", "\x00", "1\x00", "\U0001f600", "0\U0001f600"]
_label_configs = st.fixed_dictionaries({
    "positive_label": st.sampled_from(_LABELS),
    "negative_label": st.none() | st.sampled_from(_LABELS),
    "has_header": st.booleans(),
}).filter(lambda options: options["positive_label"] != options["negative_label"])


class TestBulkPath:
    """The chunked parser against the row loop over the whole text in ``oracles``."""

    @given(_soup, st.booleans(), _configs, st.integers(1, 40), st.booleans())
    def test_scores_equal_the_row_loop(self, lines, final_newline, options, chunk_chars, strict):
        source = "\n".join(lines) + ("\n" if final_newline and lines else "")
        cfg = InputConfig(mode=InputMode.SCORES, **options)
        with mock.patch.object(ingest, "_CHUNK_CHARS", chunk_chars):
            bulk = _scored(source, cfg, strict)
        assert bulk == _scored(source, cfg, strict, parse_scores_rows)

    @given(_soup, st.booleans(), _configs, st.integers(1, 40), st.booleans())
    def test_hard_labels_equal_the_row_loop(self, lines, final_newline, options, chunk_chars, strict):
        source = "\n".join(line.replace(".", "") for line in lines) + ("\n" if final_newline and lines else "")
        cfg = InputConfig(mode=InputMode.HARD_LABELS, **options)
        with mock.patch.object(ingest, "_CHUNK_CHARS", chunk_chars):
            bulk = _labeled(source, cfg, strict)
        assert bulk == _labeled(source, cfg, strict, parse_hard_labels_rows)

    @given(_label_configs, st.data(), st.booleans(), st.integers(1, 40), st.booleans())
    def test_labels_equal_the_row_loop_which_runs_only_on_invalid_rows(
        self, options, data, final_newline, chunk_chars, strict
    ):
        """The row converter sees only chunks that hold an invalid row."""
        declared = [options["positive_label"], options["negative_label"]]
        field = st.sampled_from([label for label in declared if label is not None]) | st.sampled_from(_LABELS)
        odd = st.sampled_from(_LABELS) | st.tuples(field, field, field).map(",".join)
        lines = data.draw(st.lists(st.one_of(*[st.tuples(field, field).map(",".join)] * 9, odd), max_size=25))
        source = "\n".join(lines) + ("\n" if final_newline and lines else "")
        cfg = InputConfig(mode=InputMode.HARD_LABELS, **options)
        with mock.patch.object(ingest, "_CHUNK_CHARS", chunk_chars), \
                mock.patch.object(ingest, "_explain_chunk", wraps=ingest._explain_chunk) as row_loop:
            bulk = _labeled(source, cfg, strict)
        assert bulk == _labeled(source, cfg, strict, parse_hard_labels_rows)

        def valid(row):
            return row.count(",") == 1 and (declared[1] is None or set(row.split(",")) <= set(declared))

        rows = source.split("\n")[1 if options["has_header"] else 0:]
        if rows and rows[-1] == "":
            rows.pop()
        if all(map(valid, rows)):
            assert not row_loop.called
        for call in row_loop.call_args_list:
            assert not all(map(valid, call.args[0].split("\n")[:-1]))

    @given(
        st.lists(st.tuples(st.sampled_from(["1", "0"]), st.floats(-1e6, 1e6).map(repr)), max_size=30),
        _configs,
    )
    def test_valid_text_never_reaches_the_row_loop(self, rows, options):
        scores = "".join(f"{label},{score}\n" for label, score in rows)
        labels = "".join(f"{label},{label}\n" for label, _ in rows)
        with mock.patch.object(ingest, "_explain_chunk", side_effect=AssertionError("row loop ran")):
            columns, report = parse_scores(scores, InputConfig(mode=InputMode.SCORES, **options))
            pairs, _ = parse_hard_labels(labels, InputConfig(mode=InputMode.HARD_LABELS, **options))
        data_rows = rows[1:] if options.get("has_header") else rows
        assert report == ParseReport(len(data_rows), len(data_rows))
        assert columns.positive.tolist() == [label == "1" for label, _ in data_rows]
        assert [(p.actual is P, p.predicted is P) for p in pairs] == [(label == "1",) * 2 for label, _ in data_rows]

    @given(st.text(alphabet="0123456789.+-eE_infa \u0665", max_size=10))
    def test_score_characters_and_float_accept_the_score_pattern(self, text):
        try:
            float(text)
            converts = True
        except ValueError:
            converts = False
        in_charset = set(text.encode("utf-8")) <= set(ingest._SCORE_CHARS)
        assert (in_charset and converts) == bool(ingest._SCORE_PATTERN.match(text))

    @pytest.mark.parametrize("chunk_chars", [1, 2, 3, 5, 8, 13])
    def test_chunk_boundaries_change_nothing(self, chunk_chars):
        source = "label,score\n1,0.25\n0,12.5\n1,-3e-2\n0,7\n1,0.125\n0,1e300"
        cfg = InputConfig(mode=InputMode.SCORES, negative_label="0", has_header=True)
        whole = _scored(source, cfg)
        assert whole[2] == ParseReport(6, 6, ())
        with mock.patch.object(ingest, "_CHUNK_CHARS", chunk_chars), \
                mock.patch.object(ingest, "_explain_chunk", side_effect=AssertionError("row loop ran")):
            assert _scored(source, cfg) == whole
            labels = _labeled(source.replace(".", ""), InputConfig(mode=InputMode.HARD_LABELS, has_header=True))
        assert labels == _labeled(source.replace(".", ""), InputConfig(mode=InputMode.HARD_LABELS, has_header=True))
