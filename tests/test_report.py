"""Text, JSON, and SVG rendering contracts."""

from __future__ import annotations

import io
import json
import math
import re
import tracemalloc
import xml.etree.ElementTree as ET
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from binaryeval import report as report_module
from binaryeval.counts import ConfusionCounts, ScoredColumns
from binaryeval.metrics import all_metrics
from binaryeval.report import write_json, write_svg, write_text
from binaryeval.roc import RocCurve, roc_points

from oracles import render_json, render_svg, render_text, roc_json, roc_svg, roc_text

C_STAR = ConfusionCounts(tp=4, fp=1, fn=2, tn=3)
C_STAR_METRICS = all_metrics(C_STAR)
EMPTY_METRICS = all_metrics(ConfusionCounts(tp=0, fp=0, fn=0, tn=0))

FOUR_SAMPLE_CURVE = roc_points(ScoredColumns(score=[0.9, 0.8, 0.7, 0.6], positive=[True, False, True, False]))


def svg_elements(svg: str) -> list[ET.Element]:
    root = ET.fromstring(svg)
    return [root] + list(root.iter())


def local_name(element: ET.Element) -> str:
    return element.tag.rsplit("}", 1)[-1]


# Curve points per written chunk, small enough that runs of equal rates
# and the last point fall across chunk boundaries.
CHUNK_POINTS = st.integers(1, 7)


def written(write, *args, chunk_points: int, **kwargs) -> str:
    """What ``write`` writes to a text stream, with ``chunk_points`` points per chunk."""
    out = io.StringIO()
    with mock.patch.object(report_module, "_CHUNK_POINTS", chunk_points):
        write(*args, out, **kwargs)
    return out.getvalue()


class TestRenderText:
    def test_contains_worked_metric_lines(self):
        text = render_text(metrics=C_STAR_METRICS)
        assert "ACC 0.700000" in text
        assert "MCC 0.408248" in text
        assert "TPR 0.666667" in text

    def test_matrix_layout_rows_actual_columns_predicted(self):
        lines = render_text(metrics=C_STAR_METRICS).splitlines()
        start = lines.index("confusion matrix (rows actual, columns predicted)")
        assert lines[start + 2] == "P  4  2"
        assert lines[start + 3] == "N  1  3"

    def test_metric_order_is_fixed(self):
        names = [
            line.split()[0]
            for line in render_text(metrics=C_STAR_METRICS).splitlines()
            if line[:3] in {"ERR", "ACC", "FPR", "TPR", "PRE", "REC", "F1 ", "SEN", "SPC", "TNR", "MCC"}
        ]
        assert names == ["ERR", "ACC", "FPR", "TPR", "PRE", "REC", "F1", "SEN", "SPC", "TNR", "MCC"]

    def test_undefined_metrics_render_as_undefined(self):
        text = render_text(metrics=EMPTY_METRICS)
        for name in ("ERR", "ACC", "FPR", "TPR", "PRE", "REC", "F1", "SEN", "SPC", "TNR", "MCC"):
            assert f"{name} undefined" in text

    def test_meta_block_comes_first(self):
        meta = {"input": "x.csv", "threshold": None, "header": False}
        lines = render_text(metrics=C_STAR_METRICS, meta=meta).splitlines()
        assert lines[0] == "input x.csv"
        assert lines[1] == "threshold -"
        assert lines[2] == "header false"

    def test_byte_identical_across_calls(self):
        parts = {"metrics": C_STAR_METRICS, "meta": {"input": "x.csv"}}
        assert render_text(**parts) == render_text(**parts)

    def test_auc_line_present_when_curve_attached(self):
        assert render_text(metrics=C_STAR_METRICS, curve=FOUR_SAMPLE_CURVE).rstrip().endswith("AUC 0.750000")


class TestRenderJson:
    def test_worked_values(self):
        payload = json.loads(render_json(metrics=C_STAR_METRICS))
        assert payload["metrics"]["acc"] == 0.7
        assert payload["metrics"]["pre"] == 0.8

    def test_counts_round_trip_exactly(self):
        payload = json.loads(render_json(metrics=C_STAR_METRICS))
        assert payload["counts"] == {"tp": 4, "fp": 1, "fn": 2, "tn": 3}

    def test_defined_metrics_round_trip_exactly(self):
        payload = json.loads(render_json(metrics=C_STAR_METRICS))
        for name, value in C_STAR_METRICS.as_dict().items():
            assert payload["metrics"][name] == value

    def test_undefined_encoded_as_null(self):
        payload = json.loads(render_json(metrics=EMPTY_METRICS))
        assert all(value is None for value in payload["metrics"].values())

    def test_key_order_is_documented_and_fixed(self):
        payload = json.loads(render_json(metrics=C_STAR_METRICS, curve=FOUR_SAMPLE_CURVE, meta={"input": "x"}))
        assert list(payload) == ["counts", "metrics", "roc", "meta"]
        assert list(payload["counts"]) == ["tp", "fp", "fn", "tn"]
        assert list(payload["metrics"]) == [
            "err", "acc", "fpr", "tpr", "pre", "rec", "f1", "sen", "spc", "tnr", "mcc",
        ]

    def test_roc_block_with_null_initial_threshold(self):
        payload = json.loads(render_json(metrics=C_STAR_METRICS, curve=FOUR_SAMPLE_CURVE))
        points = payload["roc"]["points"]
        assert points[0] == {"fpr": 0.0, "tpr": 0.0, "threshold": "inf"}
        assert points[1]["threshold"] == 0.9
        assert payload["roc"]["auc"] == 0.75

    def test_no_roc_key_without_curve(self):
        assert "roc" not in json.loads(render_json(metrics=C_STAR_METRICS))

    def test_output_is_strict_json(self):
        # Would raise on NaN/Infinity literals; parses under the standard grammar.
        text = render_json(metrics=C_STAR_METRICS, meta={"threshold": math.inf})
        payload = json.loads(text)
        assert payload["meta"]["threshold"] == "inf"

    def test_unencodable_meta_raises_before_the_first_write(self):
        out = io.StringIO()
        with pytest.raises(TypeError):
            write_json(out, metrics=C_STAR_METRICS, curve=FOUR_SAMPLE_CURVE, meta={"input": object()})
        assert out.getvalue() == ""

    @pytest.mark.parametrize("parts", [
        {},
        {"metrics": C_STAR_METRICS, "curve": FOUR_SAMPLE_CURVE, "meta": {"input": "x.csv"}},
        # Meta holding the text json writes for the curve's placeholder, inside and outside a string.
        {"curve": FOUR_SAMPLE_CURVE, "meta": {"list": [1, None], "points": None, "text": ",\n      null"}},
        {"meta": {"list": [1, None], "points": None, "text": ",\n      null"}},
    ])
    def test_layout_is_one_json_dumps_indent_2(self, parts):
        for chunk_points in (1, 2, 4096):
            text = written(write_json, chunk_points=chunk_points, **parts)
            payload = json.loads(text)
            assert text == json.dumps(payload, indent=2) + "\n"
            assert payload.get("meta", {}) == parts.get("meta", {})
            if "curve" in parts:
                assert len(payload["roc"]["points"]) == parts["curve"].threshold.size


# Meta text, often with the characters JSON must escape, non-ASCII and
# surrogates (an undecodable byte of a file name is one).
META_TEXT = st.text(max_size=12) | st.text(alphabet='"\\/\'é€😀\u2028\x00\x1f\t\n\udcff\ud800', max_size=12)


@st.composite
def curve_and_meta(draw):
    """A curve over tie-heavy, continuous or all-equal scores, with the roc subcommand's meta echo.

    All-equal scores give the two-point curve.
    """
    scores = draw(st.sampled_from([
        st.integers(0, 6).map(lambda v: v / 4),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.just(0.5),
    ]))
    pos = draw(st.lists(scores, min_size=1, max_size=25))
    neg = draw(st.lists(scores, min_size=1, max_size=25))
    curve = roc_points(ScoredColumns(pos + neg, [True] * len(pos) + [False] * len(neg)))
    meta = {
        "input": draw(META_TEXT),
        "mode": "scores",
        "positive_label": draw(META_TEXT),
        "negative_label": draw(st.none() | st.just("0")),
        "delimiter": ",",
        "header": draw(st.booleans()),
        "strict": draw(st.booleans()),
        "records_read": len(pos) + len(neg),
        "records_accepted": len(pos) + len(neg),
    }
    return curve, meta


class TestCurveOnlyReport:
    @given(curve_and_meta(), CHUNK_POINTS)
    def test_text_matches_the_reference_roc_renderer(self, case, chunk_points):
        curve, meta = case
        expected = roc_text(curve, meta)
        assert written(write_text, curve=curve, meta=meta, chunk_points=chunk_points) == expected
        assert render_text(curve=curve, meta=meta) == expected

    @given(curve_and_meta(), CHUNK_POINTS)
    def test_json_matches_the_reference_roc_renderer(self, case, chunk_points):
        curve, meta = case
        expected = roc_json(curve, meta)
        assert written(write_json, curve=curve, meta=meta, chunk_points=chunk_points) == expected
        assert render_json(curve=curve, meta=meta) == expected

    @given(curve_and_meta(), CHUNK_POINTS)
    def test_json_with_metrics_matches_one_json_dumps(self, case, chunk_points):
        curve, meta = case
        parts = {"metrics": C_STAR_METRICS, "curve": curve, "meta": meta}
        expected = {
            "counts": {"tp": 4, "fp": 1, "fn": 2, "tn": 3},
            "metrics": C_STAR_METRICS.as_dict(),
            "roc": json.loads(roc_json(curve, {}))["roc"],
            "meta": meta,
        }
        assert written(write_json, chunk_points=chunk_points, **parts) == json.dumps(expected, indent=2) + "\n"
        assert render_json(**parts) == json.dumps(expected, indent=2) + "\n"

    @given(curve_and_meta(), CHUNK_POINTS)
    def test_svg_matches_the_reference_renderer(self, case, chunk_points):
        curve, meta = case
        expected = roc_svg(curve, meta["input"])
        assert written(write_svg, curve, meta["input"], chunk_points=chunk_points) == expected
        assert render_svg(curve, meta["input"]) == expected

    @given(curve_and_meta(), CHUNK_POINTS)
    def test_chunked_rates_and_pixels_equal_the_whole_columns(self, case, chunk_points):
        curve, _ = case
        fpr, tpr = curve.fpr.tolist(), curve.tpr.tolist()
        svg = written(write_svg, curve, "t", chunk_points=chunk_points)
        polyline = re.search(r'<polyline points="([^"]*)"', svg).group(1)
        assert polyline == " ".join(f"{50 + f * 540:.2f},{430 - t * 380:.2f}" for f, t in zip(fpr, tpr))
        text = written(write_text, curve=curve, chunk_points=chunk_points)
        table = [line.split()[:2] for line in text.split("fpr tpr threshold\n")[1].splitlines()[:-1]]
        assert table == [[f"{f:.6f}", f"{t:.6f}"] for f, t in zip(fpr, tpr)]
        payload = written(write_json, curve=curve, chunk_points=chunk_points)
        assert re.findall(r'"fpr": (.*),', payload) == list(map(repr, fpr))
        assert re.findall(r'"tpr": (.*),', payload) == list(map(repr, tpr))

    def test_signed_zero_rates_keep_their_own_strings(self):
        # -0.0 == 0.0, but a -0.0 threshold is formatted as itself, as the references do.
        curve = RocCurve(fp=[0, 1, 1, 2], tp=[0, 0, 1, 1], threshold=[math.inf, 0.75, -0.0, -0.25])
        meta = {"input": "zeros.csv"}
        assert "\n0.500000 0.000000 0.75\n0.500000 1.000000 -0.0\n" in render_text(curve=curve, meta=meta)
        assert '"threshold": -0.0\n' in render_json(curve=curve, meta=meta)
        for chunk_points in (1, 2, 4096):
            assert written(write_text, curve=curve, meta=meta, chunk_points=chunk_points) == roc_text(curve, meta)
            assert written(write_json, curve=curve, meta=meta, chunk_points=chunk_points) == roc_json(curve, meta)
            assert written(write_svg, curve, "t", chunk_points=chunk_points) == roc_svg(curve, "t")

    def test_metrics_and_curve_render_both_blocks(self):
        text = render_text(metrics=C_STAR_METRICS, curve=FOUR_SAMPLE_CURVE)
        assert "MCC 0.408248\n\nfpr tpr threshold\n0.000000 0.000000 inf\n" in text


# Counts a curve can end on: up to about 2**40, so rates carry long digit
# strings, or one of three totals whose points land on decimal ties. k/128
# is an exact .6f tie for odd k; 50 + 540*k/432000 = 50 + k/800 and
# 430 - 380*k/76000 = 430 - k/200 are .2f near-ties for odd k. The counts
# 39996 of 432000 and 66001 of 76000 put a pixel at 99.995, which rounds
# across 100.
CURVE_TOTALS = st.integers(1, 2**40) | st.sampled_from([128, 432_000, 76_000])
AIMED_COUNTS = [1, 63, 64, 65, 39_996, 66_001]


@st.composite
def large_count_curve(draw) -> RocCurve:
    """A curve built from its counts, up to 22 points, with totals from ``CURVE_TOTALS``."""
    size = draw(st.integers(0, 20))

    def counts(total: int) -> list[int]:
        inside = st.integers(0, total) | st.sampled_from([c for c in AIMED_COUNTS if c <= total])
        return [0, *sorted(draw(st.lists(inside, min_size=size, max_size=size))), total]

    fp, tp = counts(draw(CURVE_TOTALS)), counts(draw(CURVE_TOTALS))
    thresholds = draw(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=size + 1, max_size=size + 1,
                               unique=True))
    return RocCurve(fp=fp, tp=tp, threshold=[math.inf, *sorted(thresholds, reverse=True)])


class TestLargeCountCurves:
    @given(large_count_curve(), st.sampled_from([1, 2, 3, 7, 4096]))
    def test_text_matches_the_reference_roc_renderer(self, curve, chunk_points):
        meta = {"input": "big.csv", "records_read": int(curve.fp[-1] + curve.tp[-1])}
        assert written(write_text, curve=curve, meta=meta, chunk_points=chunk_points) == roc_text(curve, meta)

    @given(large_count_curve(), st.sampled_from([1, 2, 3, 7, 4096]))
    def test_svg_matches_the_reference_renderer(self, curve, chunk_points):
        assert written(write_svg, curve, "big", chunk_points=chunk_points) == roc_svg(curve, "big")


def beside(values: st.SearchStrategy[float]) -> st.SearchStrategy[float]:
    """A value from ``values``, or its neighbour one ulp below or above; never negative."""
    return st.tuples(values, st.sampled_from([None, -math.inf, math.inf])).map(
        lambda pair: pair[0] if pair[1] is None else float(np.nextafter(pair[0], pair[1]))
    ).filter(lambda value: value >= 0)


# Rates as the sweep divides them, k/N with N up to about 2**40.
RATES = st.integers(1, 2**40).flatmap(lambda total: st.integers(0, total).map(lambda k: k / total))
# Per column shape (places, integer digits): values of any kind, values at
# or beside a decimal tie, and values far from every tie. k/128 and k/8 are
# exact binary ties at 6 and 2 places; a float nearest a decimal tie, such
# as (2k + 1) / 200, has a product that rounds onto the tie about half the
# time; 99.995 rounds across 100.
FIXED_COLUMNS = {
    "rates": (6, 1, st.one_of(RATES, st.sampled_from([0.0, 1.0]))),
    "pixels": (2, 3, st.one_of(RATES.map(lambda f: 50 + f * 540), RATES.map(lambda t: 430 - t * 380),
                               st.sampled_from([0.0, 1.0, 50.0, 430.0, 590.0]))),
}
NEAR_TIES = {
    "rates": beside(st.integers(0, 128).map(lambda k: k / 128)
                    | st.integers(0, 10**6 - 1).map(lambda k: (2 * k + 1) / (2 * 10**6))
                    | st.sampled_from([1 / 128, 3 / 128])),
    "pixels": beside(st.integers(0, 590 * 8).map(lambda k: k / 8)
                     | st.integers(0, 590 * 100).map(lambda k: (2 * k + 1) / 200)
                     | st.sampled_from([50.125, 99.995, 9.995, 0.005, 429.995, 589.995])),
}
FAR_FROM_TIES = {
    "rates": st.integers(0, 10**6).map(lambda k: k / 10**6),
    "pixels": st.integers(0, 590 * 100).map(lambda k: k / 100),
}


def fixed_point_text(values: list[float], places: int, digits: int) -> str:
    """``report._decimal_rows`` of ``values`` with a space before each, as the text it writes."""
    return report_module._joined([report_module._decimal_rows(" {}", (np.array(values, dtype=np.float64),), places, digits)])


class TestDecimalRows:
    @pytest.mark.parametrize("shape", ["rates", "pixels"])
    @given(data=st.data())
    def test_digits_equal_format(self, shape, data):
        places, digits, values = FIXED_COLUMNS[shape]
        chunk = data.draw(st.one_of(
            st.lists(st.one_of(values, NEAR_TIES[shape]), min_size=1, max_size=40),
            st.lists(NEAR_TIES[shape], min_size=1, max_size=40),
            st.lists(FAR_FROM_TIES[shape], min_size=1, max_size=40),
        ))
        assert fixed_point_text(chunk, places, digits) == "".join(f" {value:.{places}f}" for value in chunk)

    @pytest.mark.parametrize(
        ("places", "halves", "values"),
        [
            (2, st.integers(0, 590 * 200).map(lambda n: n / 200), st.floats(0, 590)),
            (6, st.integers(0, 10**6 - 1).map(lambda n: (n + 0.5) * 1e-6), st.floats(0, 1)),
        ],
        ids=["pixels", "rates"],
    )
    @given(data=st.data())
    def test_scaled_rounds_exact_halves_as_format_does(self, places, halves, values, data):
        drawn = data.draw(st.lists(st.one_of(halves, values, st.sampled_from([50.125, 2.5e-6])), min_size=1))
        expected = [int(format(value, f".{places}f").replace(".", "")) for value in drawn]
        assert report_module._scaled(np.array(drawn), places).tolist() == expected

    @pytest.mark.parametrize(
        ("value", "places", "text"),
        [
            (50.125, 2, "50.12"),
            (50.375, 2, "50.38"),
            (1 / 128, 6, "0.007812"),
            (3 / 128, 6, "0.023438"),
            (99.995, 2, "100.00"),
            (float(np.nextafter(99.995, 0)), 2, "99.99"),
            (0.0, 2, "0.00"),
            (590.0, 2, "590.00"),
            (1.0, 6, "1.000000"),
        ],
    )
    def test_ties_round_half_even_and_leading_zeros_follow_the_rounded_value(self, value, places, text):
        assert format(value, f".{places}f") == text
        assert fixed_point_text([value], places, 3 if places == 2 else 1) == " " + text


class TestRenderSvg:
    def test_well_formed_xml_and_allowed_elements_only(self):
        svg = render_svg(FOUR_SAMPLE_CURVE, title="demo")
        names = {local_name(e) for e in svg_elements(svg)}
        assert names <= {"svg", "rect", "line", "polyline", "text"}

    def test_fixed_canvas_size(self):
        root = ET.fromstring(render_svg(FOUR_SAMPLE_CURVE, title="demo"))
        assert root.get("width") == "640"
        assert root.get("height") == "480"

    def test_dashed_diagonal_spans_the_data_unit_square(self):
        root = ET.fromstring(render_svg(FOUR_SAMPLE_CURVE, title="demo"))
        dashed = [
            e for e in root.iter()
            if local_name(e) == "line" and e.get("stroke-dasharray")
        ]
        assert len(dashed) == 1
        line = dashed[0]
        # Data (0,0) -> bottom-left (50,430); data (1,1) -> top-right (590,50).
        assert (float(line.get("x1")), float(line.get("y1"))) == (50.0, 430.0)
        assert (float(line.get("x2")), float(line.get("y2"))) == (590.0, 50.0)

    def test_axis_labels_present(self):
        svg = render_svg(FOUR_SAMPLE_CURVE, title="demo")
        assert "False Positive Rate" in svg
        assert "True Positive Rate" in svg

    def test_auc_legend_to_three_decimals(self):
        assert "AUC = 0.750" in render_svg(FOUR_SAMPLE_CURVE, title="demo")

    def test_perfect_curve_reaches_the_top_left_data_corner(self):
        curve = roc_points(ScoredColumns([0.9, 0.1], [True, False]))
        root = ET.fromstring(render_svg(curve, title="perfect"))
        polyline = next(e for e in root.iter() if local_name(e) == "polyline")
        assert "50.00,50.00" in polyline.get("points").split()

    def test_two_point_tie_curve_coincides_with_the_diagonal(self):
        curve = RocCurve(fp=[0, 1], tp=[0, 1], threshold=[math.inf, 0.5])
        root = ET.fromstring(render_svg(curve, title="tie"))
        polyline = next(e for e in root.iter() if local_name(e) == "polyline")
        assert polyline.get("points") == "50.00,430.00 590.00,50.00"
        assert "AUC = 0.500" in render_svg(curve, title="tie")

    def test_title_is_escaped(self):
        svg = render_svg(FOUR_SAMPLE_CURVE, title='<&"title>')
        ET.fromstring(svg)
        assert "&lt;&amp;&quot;title&gt;" in svg

    @given(st.text(st.characters(exclude_categories=()) | st.sampled_from("\x00\x0b\ud800\udfff\ufffe\uffff"),
                   max_size=20))
    def test_any_title_gives_well_formed_utf8_xml(self, title):
        svg = render_svg(FOUR_SAMPLE_CURVE, title=title)
        root = ET.fromstring(svg.encode("utf-8"))
        shown = next(e for e in root.iter() if local_name(e) == "text").text or ""
        allowed = "".join(
            c if c in "\t\n\r" or " " <= c <= "\ud7ff" or "\ue000" <= c <= "\ufffd" or c >= "\U00010000"
            else "\ufffd"
            for c in title
        )
        # An XML parser reads CRLF and CR as LF.
        assert shown == allowed.replace("\r\n", "\n").replace("\r", "\n")

    def test_identical_across_runs(self):
        assert render_svg(FOUR_SAMPLE_CURVE, "t") == render_svg(FOUR_SAMPLE_CURVE, "t")


class _Discard(io.TextIOBase):
    """A text stream that keeps nothing it is given."""

    def write(self, text: str) -> int:
        return len(text)


@pytest.fixture(scope="module")
def distinct_curve() -> RocCurve:
    n = 200_000
    return roc_points(ScoredColumns(np.random.default_rng(5).permutation(n) / n, np.arange(n) % 3 == 0))


def on_a_half(counts: np.ndarray, scale: int) -> int:
    """How many distinct values of ``counts * scale / counts[-1]``, taken exactly, lie on a half."""
    total = int(counts[-1])
    return np.unique(counts[2 * scale * counts % (2 * total) == total]).size


class TestFixedWidthColumns:
    def test_curve_on_decimal_ties_matches_format_without_calling_it(self):
        # Totals 432000 and 76000 put many rates and pixels exactly on
        # decimal ties (see CURVE_TOTALS), each tie value at one point only.
        tp = np.arange(76_001)
        fp = np.minimum(27 * tp, 432_000)
        curve = RocCurve(fp=fp, tp=tp, threshold=[math.inf, *range(76_000, 0, -1)])
        # A rate times 10**6; a pixel times 100 is 5000 + fpr * 54000 and 43000 - tpr * 38000.
        assert on_a_half(fp, 10**6) + on_a_half(tp, 10**6) > 0
        assert on_a_half(fp, 54_000) + on_a_half(tp, 38_000) > 0
        with mock.patch.object(report_module, "format", create=True, side_effect=format) as fmt:
            text = render_text(curve=curve, meta={"input": "t"})
            svg = render_svg(curve, "t")
        assert fmt.call_count == 0
        # As lists: a failure names the first line or point that differs, with no diff of the whole report.
        assert text.split("\n") == roc_text(curve, {"input": "t"}).split("\n")
        assert svg.split(" ") == roc_svg(curve, "t").split(" ")


class TestWriterMemory:
    @pytest.mark.parametrize(
        "write",
        [
            lambda curve, out: write_text(out, curve=curve),
            lambda curve, out: write_json(out, curve=curve),
            lambda curve, out: write_svg(curve, "t", out),
        ],
        ids=["text", "json", "svg"],
    )
    def test_writer_adds_less_than_half_the_curve(self, distinct_curve, write):
        curve = distinct_curve
        tracemalloc.start()
        try:
            write(curve, _Discard())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Above the curve it was given, a writer holds one chunk of points and the
        # AUC's step buffer; a whole rate or pixel column takes it past this.
        assert peak < 0.5 * (curve.fp.nbytes + curve.tp.nbytes + curve.threshold.nbytes)
