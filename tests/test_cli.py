"""End-to-end command-line behavior, golden outputs, exit codes."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from binaryeval.cli import run

GOLDEN = Path(__file__).parent / "golden"

C_STAR_ROWS = "1,1\n1,1\n1,1\n1,1\n1,0\n1,0\n0,1\n0,0\n0,0\n0,0\n"
FOUR_SCORE_ROWS = "1,0.9\n0,0.8\n1,0.7\n0,0.6\n"


def invoke(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def worked_files(tmp_path, monkeypatch):
    (tmp_path / "preds.csv").write_text(C_STAR_ROWS, newline="")
    (tmp_path / "scores.csv").write_text(FOUR_SCORE_ROWS, newline="")
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestGolden:
    def test_evaluate_matches_golden_bytes(self, worked_files):
        code, out, err = invoke("evaluate", "preds.csv")
        assert code == 0
        assert err == ""
        assert out.encode() == (GOLDEN / "evaluate_c_star.txt").read_bytes()
        assert "ACC 0.700000" in out

    def test_roc_matches_golden_bytes_and_writes_svg(self, worked_files):
        code, out, err = invoke("roc", "scores.csv", "--svg", "out.svg")
        assert code == 0
        assert err == ""
        assert out.encode() == (GOLDEN / "roc_four_sample.txt").read_bytes()
        assert out.rstrip().endswith("AUC 0.750000")
        written = (worked_files / "out.svg").read_bytes()
        assert written == (GOLDEN / "roc_four_sample.svg").read_bytes()
        assert b"stroke-dasharray" in written
        assert b"AUC = 0.750" in written

    def test_identical_argv_and_input_give_identical_bytes(self, worked_files):
        first = invoke("evaluate", "preds.csv")
        second = invoke("evaluate", "preds.csv")
        assert first == second


class TestEvaluate:
    def test_json_output(self, worked_files):
        code, out, _ = invoke("evaluate", "preds.csv", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["counts"] == {"tp": 4, "fp": 1, "fn": 2, "tn": 3}
        assert payload["metrics"]["acc"] == 0.7
        assert payload["meta"]["records_read"] == 10

    def test_scores_mode_with_threshold(self, worked_files):
        code, out, _ = invoke(
            "evaluate", "scores.csv", "--mode", "scores", "--threshold", "0.75",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        # 0.9 and 0.8 clear the bar; actual labels are P,N,P,N.
        assert payload["counts"] == {"tp": 1, "fp": 1, "fn": 1, "tn": 1}

    def test_scores_threshold_matches_external_hard_labelling(self, worked_files, tmp_path):
        threshold = 0.75
        hard_rows = []
        for line in FOUR_SCORE_ROWS.strip().split("\n"):
            actual, score = line.split(",")
            hard_rows.append(f"{actual},{1 if float(score) >= threshold else 0}")
        (tmp_path / "hard.csv").write_text("\n".join(hard_rows) + "\n", newline="")

        _, via_scores, _ = invoke(
            "evaluate", "scores.csv", "--mode", "scores",
            "--threshold", str(threshold), "--format", "json",
        )
        _, via_hard, _ = invoke("evaluate", "hard.csv", "--format", "json")
        scores_payload = json.loads(via_scores)
        hard_payload = json.loads(via_hard)
        assert scores_payload["counts"] == hard_payload["counts"]
        assert scores_payload["metrics"] == hard_payload["metrics"]

    def test_reads_standard_input(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1,1\n0,0\n"))
        code, out, _ = invoke("evaluate", "-")
        assert code == 0
        assert "ACC 1.000000" in out
        assert "input -" in out

    def test_header_flag_skips_first_line(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "with_header.csv").write_text("actual,predicted\n1,1\n", newline="")
        code, out, _ = invoke("evaluate", "with_header.csv", "--header", "--format", "json")
        assert code == 0
        assert json.loads(out)["counts"]["tp"] == 1

    def test_custom_labels_and_delimiter(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "animals.csv").write_text("cat;dog\ncat;cat\n", newline="")
        code, out, _ = invoke(
            "evaluate", "animals.csv", "--positive-label", "cat",
            "--delimiter", ";", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["counts"] == {"tp": 1, "fp": 0, "fn": 1, "tn": 0}

    def test_zero_division_zero_on_empty_input(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "empty.csv").write_text("", newline="")
        code, out, _ = invoke("evaluate", "empty.csv", "--zero-division", "zero")
        assert code == 0
        assert "MCC 0.000000" in out
        assert "undefined" not in out.split("zero_division")[1]

    def test_lenient_mode_warns_and_continues(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "messy.csv").write_text("1,1\nbroken\n0,0\n", newline="")
        code, out, err = invoke("evaluate", "messy.csv", "--format", "json")
        assert code == 0
        assert "warning: line 2" in err
        payload = json.loads(out)
        assert payload["meta"]["records_read"] == 3
        assert payload["meta"]["records_accepted"] == 2

    def test_lenient_warnings_are_capped_and_summarised(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "junk.csv").write_text("1,1\n" + "broken\n" * 1000 + "0,0\n", newline="")
        code, out, err = invoke("evaluate", "junk.csv", "--format", "json")
        assert code == 0
        lines = err.splitlines()
        assert lines[:20] == [f"warning: line {n}: expected 2 fields, got 1" for n in range(2, 22)]
        assert lines[20:] == ["warning: 1000 of 1002 rows skipped (1000 expected 2 fields)"]
        assert json.loads(out)["meta"]["records_accepted"] == 2


class TestRoc:
    def test_json_output(self, worked_files):
        code, out, _ = invoke("roc", "scores.csv", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["roc"]["auc"] == 0.75
        assert payload["roc"]["points"][0]["threshold"] == "inf"
        assert payload["meta"]["records_read"] == 4

    def test_single_class_input_fails_with_exit_one(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "one_class.csv").write_text("1,0.9\n1,0.4\n", newline="")
        code, out, err = invoke("roc", "one_class.csv")
        assert code == 1
        assert out == ""
        assert "need both classes" in err

    def test_explicit_scores_mode_accepted(self, worked_files):
        code, _, _ = invoke("roc", "scores.csv", "--mode", "scores")
        assert code == 0

    def test_unwritable_svg_fails_before_any_report_output(self, worked_files):
        code, out, err = invoke("roc", "scores.csv", "--svg", "no_such_dir/out.svg")
        assert code == 1
        assert out == ""
        assert err.startswith("error: cannot write --svg file")

    def test_svg_path_that_is_a_directory_fails_before_any_json_output(self, worked_files):
        (worked_files / "plots").mkdir()
        code, out, err = invoke("roc", "scores.csv", "--format", "json", "--svg", "plots")
        assert code == 1
        assert out == ""
        assert err.startswith("error: cannot write --svg file 'plots'")

    @pytest.mark.parametrize(
        ("name", "shown"),
        [(os.fsdecode(b"\xff.csv"), "\ufffd.csv"), ("ctl\x01.csv", "ctl\ufffd.csv")],
        ids=["undecodable-byte", "control"],
    )
    def test_svg_title_from_any_file_name_is_well_formed_utf8(self, worked_files, name, shown):
        (worked_files / name).write_text(FOUR_SCORE_ROWS, newline="")
        code, _, err = invoke("roc", name, "--svg", "out.svg")
        assert code == 0, err
        root = ET.fromstring((worked_files / "out.svg").read_bytes())
        assert f"ROC curve ({shown})" in root.itertext()

    def test_closed_stdout_ends_the_run_with_exit_one_and_no_traceback(self, tmp_path):
        rng = np.random.default_rng(5)
        rows = 200_000
        lines = map("{},{!r}".format, (rng.random(rows) < 0.3).astype(int).tolist(), rng.random(rows).tolist())
        (tmp_path / "big.csv").write_text("\n".join(lines) + "\n")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        with subprocess.Popen(
            [sys.executable, "-m", "binaryeval", "roc", "big.csv", "--format", "json"],
            cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        ) as child:
            assert child.stdout.read(100).startswith(b'{\n  "roc": {')
            child.stdout.close()
            err = child.stderr.read()
            assert child.wait(timeout=120) == 1
        assert err == b""


class TestDecoding:
    BOM_ROWS = b"\xef\xbb\xbf1,1\n0,0\n1,0\n"

    def test_leading_bom_is_dropped_from_a_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bom.csv").write_bytes(self.BOM_ROWS)
        code, out, _ = invoke("evaluate", "bom.csv", "--format", "json")
        assert code == 0
        assert json.loads(out)["counts"] == {"tp": 1, "fp": 0, "fn": 1, "tn": 1}

    def test_leading_bom_is_dropped_from_standard_input(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(self.BOM_ROWS)))
        code, out, _ = invoke("evaluate", "-", "--format", "json")
        assert code == 0
        assert json.loads(out)["counts"] == {"tp": 1, "fp": 0, "fn": 1, "tn": 1}

    def test_invalid_utf8_is_an_error_line_not_a_traceback(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "latin1.csv").write_bytes(b"1,1\n\xff,0\n")
        code, out, err = invoke("evaluate", "latin1.csv")
        assert code == 1
        assert out == ""
        assert err == "error: line 2: invalid UTF-8 byte 0xff\n"


class TestUsageErrors:
    def test_unknown_flag(self, worked_files):
        code, _, err = invoke("evaluate", "preds.csv", "--bogus")
        assert code == 2
        assert "--bogus" in err

    def test_missing_file_names_the_path(self, worked_files):
        code, _, err = invoke("evaluate", "nope.csv")
        assert code == 2
        assert "nope.csv" in err

    def test_scores_mode_requires_threshold(self, worked_files):
        code, _, err = invoke("evaluate", "scores.csv", "--mode", "scores")
        assert code == 2
        assert "--threshold" in err

    def test_threshold_conflicts_with_hard_labels(self, worked_files):
        code, _, err = invoke("evaluate", "preds.csv", "--threshold", "0.5")
        assert code == 2
        assert "--threshold" in err

    def test_nan_threshold_rejected(self, worked_files):
        code, _, err = invoke(
            "evaluate", "scores.csv", "--mode", "scores", "--threshold", "nan"
        )
        assert code == 2
        assert "--threshold" in err

    def test_roc_rejects_hard_labels_mode(self, worked_files):
        code, _, err = invoke("roc", "preds.csv", "--mode", "hard-labels")
        assert code == 2
        assert "--mode" in err

    def test_multi_character_delimiter(self, worked_files):
        code, _, err = invoke("evaluate", "preds.csv", "--delimiter", "ab")
        assert code == 2
        assert "--delimiter" in err

    def test_equal_labels_rejected(self, worked_files):
        code, _, err = invoke(
            "evaluate", "preds.csv", "--positive-label", "x", "--negative-label", "x"
        )
        assert code == 2
        assert "--negative-label" in err

    def test_positive_label_holding_the_delimiter_rejected(self, worked_files):
        code, out, err = invoke("evaluate", "preds.csv", "--positive-label", "1,")
        assert (code, out) == (2, "")
        assert err.startswith("error: --positive-label must not contain the delimiter or a line break")

    def test_negative_label_holding_a_line_break_rejected(self, worked_files):
        code, out, err = invoke("evaluate", "preds.csv", "--negative-label", "0\n")
        assert (code, out) == (2, "")
        assert err.startswith("error: --negative-label must not contain the delimiter or a line break")

    def test_missing_subcommand(self):
        code, _, err = invoke()
        assert code == 2


class TestStrict:
    def test_strict_parse_failure_exits_one(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "messy.csv").write_text("1,1\nbroken\n", newline="")
        code, out, err = invoke("evaluate", "messy.csv", "--strict")
        assert code == 1
        assert out == ""
        assert "line 2" in err
