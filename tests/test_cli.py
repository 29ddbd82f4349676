"""End-to-end command-line behavior, golden outputs, exit codes."""

from __future__ import annotations

import dataclasses
import errno
import io
import json
import os
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from binaryeval import ingest
from binaryeval.cli import run
from binaryeval.counts import ConfusionCounts, threshold_counts
from binaryeval.ingest import InputConfig, ParseError, parse_scores
from binaryeval.metrics import all_metrics
from oracles import parse_hard_labels_rows, parse_scores_rows, render_json, render_text, tally_pairs

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

    def test_a_negative_threshold_is_passed_in_the_equals_form(self, tmp_path, monkeypatch):
        # A bare -1e-3 after --threshold would read as an option.
        rows = "1,-0.5\n0,-0.002\n1,-0.001\n0,0\n1,2e-4\n0,-3\n"
        (tmp_path / "logits.csv").write_text(rows, newline="")
        monkeypatch.chdir(tmp_path)
        expected = {"-inf": ConfusionCounts(tp=3, fp=3, fn=0, tn=0),
                    "-1e-3": threshold_counts(parse_scores(rows, InputConfig())[0], -1e-3)}
        assert expected["-1e-3"] == ConfusionCounts(tp=2, fp=1, fn=1, tn=2)
        for threshold, counts in expected.items():
            code, out, err = invoke("evaluate", "logits.csv", "--mode", "scores", f"--threshold={threshold}",
                                    "--format", "json")
            assert (code, err) == (0, "")
            assert json.loads(out)["counts"] == dataclasses.asdict(counts)

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

    def test_zero_division_zero_prints_undefined_metrics_as_zeros(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        # Actual positives only: FPR, SPC, TNR and MCC are undefined, the other metrics defined.
        (tmp_path / "positives.csv").write_text("1,1\n1,0\n", newline="")
        _, undefined, _ = invoke("evaluate", "positives.csv")
        code, zeros, err = invoke("evaluate", "positives.csv", "--zero-division", "zero")
        assert (code, err) == (0, "")
        assert [line for line in undefined.splitlines() if line.endswith(" undefined")] == [
            "zero_division undefined", "FPR undefined", "SPC undefined", "TNR undefined", "MCC undefined",
        ]
        assert zeros == undefined.replace("zero_division undefined\n", "zero_division zero\n").replace(
            " undefined\n", " 0.000000\n")

    def test_zero_division_zero_encodes_undefined_metrics_as_zeros(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "positives.csv").write_text("1,1\n1,0\n", newline="")
        payload = json.loads(invoke("evaluate", "positives.csv", "--format", "json")[1])
        code, out, err = invoke("evaluate", "positives.csv", "--format", "json", "--zero-division", "zero")
        assert (code, err) == (0, "")
        zeros = json.loads(out)
        assert [name for name, value in payload["metrics"].items() if value is None] == ["fpr", "spc", "tnr", "mcc"]
        assert zeros == {
            "counts": payload["counts"],
            "metrics": {name: 0.0 if value is None else value for name, value in payload["metrics"].items()},
            "meta": {**payload["meta"], "zero_division": "zero"},
        }

    @pytest.mark.parametrize("subcommand, data", [("evaluate", "preds.csv"), ("roc", "scores.csv")])
    def test_an_unknown_zero_division_mode_is_a_usage_error(self, worked_files, subcommand, data):
        code, out, err = invoke(subcommand, data, "--zero-division", "nan")
        assert (code, out) == (2, "")
        assert "--zero-division: invalid choice: 'nan'" in err

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

    def test_the_skip_summary_counts_each_kind_in_order_of_first_occurrence(self, tmp_path, monkeypatch):
        # The kinds first appear in different chunks of the parse.
        bad = {10: "1,0.5,1", 20: "0,1,0", 20_000: "0,NA", 35_000: "1,1e999", 50_000: "2,1", 55_000: "1,NA"}
        monkeypatch.chdir(tmp_path)
        (tmp_path / "mixed.csv").write_text("".join(bad.get(i, ("0,0.25", "1,0.5")[i % 2]) + "\n"
                                                    for i in range(60_000)), newline="")
        code, _, err = invoke("evaluate", "mixed.csv", "--mode", "scores", "--threshold", "0.5", "--negative-label", "0")
        assert code == 0
        assert err.splitlines() == [
            "warning: line 11: expected 2 fields, got 3",
            "warning: line 21: expected 2 fields, got 3",
            "warning: line 20001: non-finite or malformed score 'NA'",
            "warning: line 35001: non-finite score '1e999'",
            "warning: line 50001: unknown label '2'",
            "warning: line 55001: non-finite or malformed score 'NA'",
            "warning: 6 of 60000 rows skipped (2 expected 2 fields, 2 non-finite or malformed score, "
            "1 non-finite score, 1 unknown label)",
        ]



# Bad rows of several kinds, one in every 700 scored or 1,500 hard-label rows
# from the middle of the third chunk on, as ingest._chunks cuts the input
# without them: so the first bad row lies in the third chunk and the rest
# spread over the later ones, whatever the chunks' size in rows.
_SCORED_BAD = ("0,NA", "1,0.5,1", "", "1,1e999", "x")
_LABELED_BAD = ("2,1", "1,2", "1,0,1", "", "0,")


def _chunked_input(scored: bool) -> str:
    """Rows of one input for the chunked-tally test: scores on a 0.001 grid, 0.5 among them, or label pairs."""
    rows, bad, step = (40_000, _SCORED_BAD, 700) if scored else (80_000, _LABELED_BAD, 1_500)
    second = (lambda i: f"{i * 7919 % 1000 / 1000:.3f}") if scored else (lambda i: f"{i % 5 == 0:d}")
    lines = [f"{i % 3 == 0:d},{second(i)}\n" for i in range(rows)]
    chunk_ends = np.cumsum([chunk.count("\n") for chunk in ingest._chunks("".join(lines))])
    for j, i in enumerate(range((chunk_ends[1] + chunk_ends[2]) // 2, rows, step)):
        lines[i] = f"{bad[j % len(bad)]}\n"
    return "".join(lines)


def _reference_run(text: str, scored: bool, negative_label: str | None, strict: bool, fmt: str) -> tuple[int, str, str]:
    """What ``evaluate`` on ``rows.csv`` holding ``text`` gives, by the row-loop parser and one-pair-at-a-time tally."""
    cfg = InputConfig(negative_label=negative_label)
    try:
        columns, report = (parse_scores_rows if scored else parse_hard_labels_rows)(text, cfg, strict)
    except ParseError as exc:
        return 1, "", f"error: {exc}\n"
    if scored:
        counts = tally_pairs(zip(columns.positive.tolist(), (columns.score >= 0.5).tolist()))
    else:
        counts = tally_pairs(zip(columns.actual.tolist(), columns.predicted.tolist()))
    meta = {"input": "rows.csv", "mode": "scores" if scored else "hard-labels", "positive_label": "1",
            "negative_label": negative_label, "delimiter": ",", "header": False, "strict": strict,
            "records_read": report.records_read, "records_accepted": report.records_accepted,
            "threshold": 0.5 if scored else None, "zero_division": "undefined"}
    warnings = [f"warning: line {line}: {reason}\n" for line, reason in report.failures]
    why = ", ".join(f"{count} {kind}" for kind, count in report.skipped)
    skipped = report.records_read - report.records_accepted
    warnings.append(f"warning: {skipped} of {report.records_read} rows skipped ({why})\n")
    render = render_json if fmt == "json" else render_text
    return 0, render(metrics=all_metrics(counts), meta=meta), "".join(warnings)


class TestChunkedTally:
    """``evaluate`` on inputs of several chunks, with bad rows in several: the bytes of a whole-input parse and tally."""

    @pytest.mark.parametrize("strict, fmt", [(False, "text"), (False, "json"), (True, "text")],
                             ids=["lenient-text", "lenient-json", "strict"])
    @pytest.mark.parametrize("scored, negative_label", [(True, None), (False, "0")], ids=["scores", "hard-labels"])
    def test_output_equals_the_reference(self, tmp_path, monkeypatch, scored, negative_label, strict, fmt):
        monkeypatch.chdir(tmp_path)
        text = _chunked_input(scored)
        (tmp_path / "rows.csv").write_text(text, newline="")
        chunk_ends = np.cumsum([chunk.count("\n") for chunk in ingest._chunks(text)])
        bad_lines = [i for i, row in enumerate(text.split("\n")[:-1]) if row in (_SCORED_BAD if scored else _LABELED_BAD)]
        chunk_of_bad = np.searchsorted(chunk_ends, bad_lines, side="right")
        assert chunk_ends.size >= 4 and chunk_of_bad[0] == 2 and np.unique(chunk_of_bad).size >= 2
        argv = ["evaluate", "rows.csv", "--format", fmt, *(["--strict"] * strict)]
        argv += ["--mode", "scores", "--threshold", "0.5"] if scored else ["--negative-label", negative_label]
        expected = _reference_run(text, scored, negative_label, strict, fmt)
        assert expected[0] == strict  # the strict run fails at the first bad row, in the third chunk
        assert invoke(*argv) == expected


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
        assert (code, out, err) == (1, "", "error: need both classes: got 2 positive and 0 negative samples\n")

    def test_mode_is_not_an_option(self, worked_files):
        # roc reads only actual,score rows; --mode is evaluate's flag.
        code, out, err = invoke("roc", "scores.csv", "--mode", "scores")
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "usage: binaryeval [-h] {evaluate,roc} ...",
            "binaryeval: error: unrecognized arguments: --mode scores",
        ]

    def test_reports_echo_the_scores_mode_without_the_flag(self, worked_files):
        code, out, _ = invoke("roc", "scores.csv")
        assert code == 0
        assert out.splitlines()[1] == "mode scores"
        code, out, _ = invoke("roc", "scores.csv", "--format", "json")
        assert code == 0
        assert json.loads(out)["meta"]["mode"] == "scores"

    def test_unwritable_svg_fails_before_any_report_output(self, worked_files):
        for path, reason in [("no_such_dir/out.svg", "No such file or directory"), ("x\x00.svg", "embedded null byte")]:
            code, out, err = invoke("roc", "scores.csv", "--svg", path)
            assert (code, out, err) == (1, "", f"error: cannot write --svg file {path!r}: {reason}\n")

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

    @pytest.mark.parametrize(
        ("name", "shown"),
        [("a\nAUC 0.000000\rACC 1.000000\x0b\u2028.csv", "a\ufffdAUC 0.000000\ufffdACC 1.000000\ufffd\ufffd.csv"),
         (os.fsdecode(b"\xff.csv"), "\ufffd.csv")],
        ids=["line-breaks", "undecodable-byte"],
    )
    @pytest.mark.parametrize(
        ("subcommand", "rows"), [("roc", FOUR_SCORE_ROWS), ("evaluate", C_STAR_ROWS)], ids=["roc", "evaluate"]
    )
    def test_a_file_name_cannot_forge_a_line_of_the_text_report(self, worked_files, subcommand, rows, name, shown):
        (worked_files / name).write_text(rows, newline="")
        code, out, err = invoke(subcommand, name)
        assert code == 0, err
        # The only line breaks are the report's own LFs, the name stays on its
        # line, and the report is UTF-8 (an undecodable byte of the name reads U+FFFD).
        assert out.splitlines() == out.split("\n")[:-1]
        assert out.splitlines()[0] == f"input {shown}"
        assert [line for line in out.splitlines() if line.startswith(("AUC", "ACC"))] == (
            ["AUC 0.750000"] if subcommand == "roc" else ["ACC 0.700000"]
        )
        code, out, err = invoke(subcommand, name, "--format", "json")
        assert code == 0, err
        assert json.loads(out)["meta"]["input"] == name

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


    def test_a_stdout_closed_at_start_is_an_error_line(self, worked_files):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        child = subprocess.run(
            [sys.executable, "-m", "binaryeval", "roc", "scores.csv"], cwd=worked_files, env=env,
            stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1), timeout=120,
        )
        assert (child.returncode, child.stderr) == (1, b"error: standard output is closed\n")


class TestFailedStreams:
    """A stdout that fails to take the report, and a stderr closed at the start or full, in child processes."""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_a_full_stdout_is_an_error_line_and_exit_one(self, worked_files, unbuffered):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "w") as full:
            child = subprocess.run([sys.executable, "-m", "binaryeval", "evaluate", "preds.csv"], cwd=worked_files,
                                   env=env, stdout=full, stderr=subprocess.PIPE, timeout=120)
        message = f"error: cannot write output: {os.strerror(errno.ENOSPC)}\n"
        assert (child.returncode, child.stderr.decode()) == (1, message)

    @pytest.mark.parametrize("name, status", [("dirty.csv", 0), ("missing.csv", 2)])
    def test_a_closed_stderr_changes_neither_the_report_nor_the_exit_status(self, worked_files, name, status):
        (worked_files / "dirty.csv").write_text("1,0.9\n0,NA\n1,0.2\n0,1e400\n0,0.7\n")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        argv = [sys.executable, "-m", "binaryeval", "evaluate", name, "--mode", "scores", "--threshold", "0.5"]
        with_stderr = subprocess.run(argv, cwd=worked_files, env=env, capture_output=True, timeout=120)
        closed = subprocess.run(argv, cwd=worked_files, env=env, stdout=subprocess.PIPE,
                                preexec_fn=lambda: os.close(2), timeout=120)
        assert with_stderr.returncode == status and with_stderr.stderr.startswith((b"warning: ", b"error: "))
        assert (closed.returncode, closed.stdout) == (with_stderr.returncode, with_stderr.stdout)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("name, strict, status", [("dirty.csv", False, 0), ("missing.csv", False, 2),
                                                      ("dirty.csv", True, 1)])
    def test_a_full_stderr_changes_neither_the_report_nor_the_exit_status(self, worked_files, name, strict, status):
        (worked_files / "dirty.csv").write_text("1,0.9\n0,NA\n1,0.2\n0,0.7\n")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        argv = [sys.executable, "-m", "binaryeval", "evaluate", name, "--mode", "scores", "--threshold", "0.5",
                *["--strict"] * strict]
        with open(os.devnull, "w") as devnull:
            quiet = subprocess.run(argv, cwd=worked_files, env=env, stdout=subprocess.PIPE, stderr=devnull, timeout=120)
        with open("/dev/full", "w") as full:
            failing = subprocess.run(argv, cwd=worked_files, env=env, stdout=subprocess.PIPE, stderr=full, timeout=120)
        assert (quiet.returncode, bool(quiet.stdout)) == (status, status == 0)
        assert (failing.returncode, failing.stdout) == (quiet.returncode, quiet.stdout)


class TestStdoutPipe:
    def test_child_writes_a_report_larger_than_a_pipe_to_a_pipe_and_to_a_file(self, tmp_path, monkeypatch):
        # About 0.7 MB of JSON: more than a default 64 KiB pipe holds.
        rng = np.random.default_rng(7)
        rows = 5_000
        lines = map("{},{!r}".format, (rng.random(rows) < 0.3).astype(int).tolist(), rng.random(rows).tolist())
        (tmp_path / "scores.csv").write_text("\n".join(lines) + "\n")
        monkeypatch.chdir(tmp_path)
        code, expected, _ = invoke("roc", "scores.csv", "--format", "json")
        assert code == 0 and len(expected) > 1 << 16
        argv = [sys.executable, "-m", "binaryeval", "roc", "scores.csv", "--format", "json"]
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        with subprocess.Popen(argv, cwd=tmp_path, env=env, stdout=subprocess.PIPE) as child:
            # Drained in 4 KiB reads while the child writes into a pipe that holds less than the report.
            out = b"".join(iter(lambda: child.stdout.read1(4096), b""))
            assert child.wait(timeout=120) == 0
        assert out == expected.encode()
        with open(tmp_path / "report.json", "wb") as report:
            assert subprocess.run(argv, cwd=tmp_path, env=env, stdout=report, timeout=120).returncode == 0
        assert (tmp_path / "report.json").read_bytes() == expected.encode()


class TestStdoutEncoding:
    @pytest.mark.parametrize(
        ("subcommand", "rows"),
        [("roc", "é,0.9\nb,0.8\né,0.7\nb,0.6\n"), ("evaluate", "é,é\né,b\nb,é\nb,b\n")],
        ids=["roc", "evaluate"],
    )
    def test_a_text_report_is_utf8_whatever_the_stdout_encoding(self, tmp_path, monkeypatch, subcommand, rows):
        (tmp_path / "é.csv").write_text(rows, encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        argv = [subcommand, "é.csv", "--positive-label", "é"]
        code, expected, err = invoke(*argv)
        assert code == 0, err
        assert "positive_label é\n" in expected
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        env.pop("PYTHONIOENCODING", None)
        for encoding in (None, "ascii", "latin-1"):
            child = subprocess.run(
                [sys.executable, "-m", "binaryeval", *argv], cwd=tmp_path, capture_output=True, timeout=120,
                env=env if encoding is None else dict(env, PYTHONIOENCODING=encoding),
            )
            assert (child.returncode, child.stdout) == (0, expected.encode("utf-8")), (encoding, child.stderr)


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

    def test_a_lone_surrogate_in_a_text_stand_in_is_an_error_line(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("\ud800,1\n"))
        assert invoke("evaluate", "-") == (1, "", "error: line 1: lone surrogate U+D800\n")

    def test_invalid_utf8_is_an_error_line_not_a_traceback(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        # A line ends at LF, at a lone CR and at CRLF (counted once), as the parsers read it.
        for data, line in ((b"1,1\n\xff,0\n", 2), (b"1,1\r0,0\r\xff\n", 3), (b"1,1\r\n0,0\r\n\xff\n", 3)):
            (tmp_path / "latin1.csv").write_bytes(data)
            code, out, err = invoke("evaluate", "latin1.csv")
            assert code == 1
            assert out == ""
            assert err == f"error: line {line}: invalid UTF-8 byte 0xff\n"


def _read_in_blocks(monkeypatch: pytest.MonkeyPatch, chars: int) -> None:
    """Make the parsers read in blocks of ``chars`` characters, each block's last LF ending a chunk."""
    monkeypatch.setattr(ingest, "_READ_CHARS", chars)
    monkeypatch.setattr(ingest, "_CHUNK_CHARS", chars)


class TestStreamedInput:
    """The parsers read the input through the text layer in blocks of ``ingest._READ_CHARS`` characters.

    The block size is patched small here, and each block's last LF ends a chunk.
    """

    @pytest.mark.parametrize("block", [1, 2, 3, 4, 5])
    def test_a_character_split_between_blocks_decodes(self, tmp_path, monkeypatch, block):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "labels.csv").write_bytes("\ufeff\u00e9,\u00e9\nnon,\u00e9\r\n\u00e9,x\n".encode())
        _read_in_blocks(monkeypatch, block)
        code, out, err = invoke("evaluate", "labels.csv", "--positive-label", "\u00e9", "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["counts"] == {"tp": 1, "fp": 1, "fn": 1, "tn": 0}

    @pytest.mark.parametrize("block", [1, 2, 3, 4, 7])
    def test_an_invalid_byte_in_a_later_block_names_its_line(self, tmp_path, monkeypatch, block):
        monkeypatch.chdir(tmp_path)
        _read_in_blocks(monkeypatch, block)
        # With 4-character blocks, the first CRLF is split between the first two
        # blocks; the second input ends inside a two-byte character.
        for data, line, byte in ((b"1,1\r\n0,0\r\n1,0\r0,1\n\xff,0\n", 5, "ff"), (b"1,1\r\n\xc3\xa9,0\r\n\xc3", 3, "c3")):
            (tmp_path / "rows.csv").write_bytes(data)
            code, out, err = invoke("evaluate", "rows.csv")
            assert (code, out, err) == (1, "", f"error: line {line}: invalid UTF-8 byte 0x{byte}\n")

    def test_standard_input_and_a_text_stand_in_are_read_in_blocks(self, monkeypatch):
        _read_in_blocks(monkeypatch, 3)
        rows = "1,0.9\r\n0,0.8\n\u00e9,0.7\r0,0.6\n"
        for stdin in (io.TextIOWrapper(io.BytesIO(rows.encode())), io.StringIO(rows)):
            monkeypatch.setattr("sys.stdin", stdin)
            code, out, err = invoke("evaluate", "-", "--mode", "scores", "--threshold", "0.75", "--format", "json")
            assert (code, err) == (0, "")
            assert json.loads(out)["counts"] == {"tp": 1, "fp": 1, "fn": 0, "tn": 2}

    def test_a_failed_read_is_an_error_line(self, monkeypatch):
        class FailingStream(io.BytesIO):
            # The text layer reads through read1 and readinto as well as read.
            def read(self, size=-1):
                raise OSError(5, "Input/output error")

            read1 = readinto = read

        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(FailingStream()))
        assert invoke("evaluate", "-") == (2, "", "error: cannot read input '-': Input/output error\n")

    def test_a_stdin_already_read_from_is_an_error_line(self, monkeypatch):
        # The text layer cannot change the decoding of a stream it has read from.
        stdin = io.TextIOWrapper(io.BytesIO(b"x\n1,1\n0,0\n"))
        stdin.readline()
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = invoke("evaluate", "-")
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read input '-': ") and err.count("\n") == 1

    def test_a_stdin_closed_at_start_is_an_error_line(self):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        child = subprocess.run(
            [sys.executable, "-m", "binaryeval", "evaluate", "-"], env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, preexec_fn=lambda: os.close(0), timeout=120,
        )
        assert (child.returncode, child.stdout, child.stderr) == (
            2, b"", b"error: cannot read input '-': standard input is closed\n"
        )

    def test_a_strict_failure_mid_file_closes_the_input(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "rows.csv").write_text("1,0.5\n" * 50 + "1,oops\n" + "0,0.5\n" * 50)
        _read_in_blocks(monkeypatch, 16)
        opened = []

        def spy(*args, real_open=open, **kwargs):
            opened.append(real_open(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr("builtins.open", spy)
        code, out, err = invoke("evaluate", "rows.csv", "--mode", "scores", "--threshold", "0.5", "--strict")
        monkeypatch.undo()
        assert (code, out, err) == (1, "", "error: line 51: non-finite or malformed score 'oops'\n")
        assert len(opened) == 1 and opened[0].closed

    def test_evaluate_never_holds_the_whole_input(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "scores.csv"
        path.write_text("".join(f"{i % 3 == 0:d},{i * 7919 % 100_003 / 100_003!r}\n" for i in range(200_000)))
        tracemalloc.start()
        try:
            code, _, err = invoke("evaluate", "scores.csv", "--mode", "scores", "--threshold", "0.5")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, err) == (0, "")
        # The file's bytes and its decoded text would each take this much.
        assert peak < path.stat().st_size


# Rows of a byte file for the block-size test: valid in both layouts, malformed,
# and not UTF-8 (a stray continuation byte, 0xff, an encoded surrogate, a
# character cut off by the line end).
_byte_row = st.sampled_from([b"1,0.5", b"0,0.25", b"1,1", b"0,0", b"\xc3\xa9,0.75"]) | st.sampled_from([
    b"1,oops", b"broken", b"1,0,1", b"", b"0,nan", b"1,\xff", b"\x80,0.5", b"\xed\xa0\x80,1", b"1,0.5\xc3",
])
_byte_file = st.tuples(
    st.sampled_from([b"", b"\xef\xbb\xbf"]),
    st.lists(st.tuples(_byte_row, st.sampled_from([b"\n", b"\r\n", b"\r"])).map(b"".join), max_size=12),
    st.sampled_from([b"", b"1,0.5", b"\xe2\x82"]),  # the last line: none, no line end, a character cut at EOF
).map(lambda parts: parts[0] + b"".join(parts[1]) + parts[2])


class TestBlockSize:
    @given(_byte_file, st.booleans(), st.booleans())
    def test_the_first_bad_line_wins_at_any_block_size(self, data, scored, header):
        mode = ["--mode", "scores", "--threshold", "0.5"] if scored else []
        parse = parse_scores_rows if scored else parse_hard_labels_rows
        text = data.decode("utf-8-sig", "surrogateescape")
        for strict in (False, True):
            argv = ["evaluate", "-", *mode, *(["--header"] * header), *(["--strict"] * strict)]
            results = set()
            for block in (*range(1, 8), None):  # None reads in blocks of the default size
                with pytest.MonkeyPatch.context() as monkeypatch:
                    if block is not None:
                        _read_in_blocks(monkeypatch, block)
                    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
                    results.add(invoke(*argv))
            assert len(results) == 1
            (code, out, err), = results
            try:
                parse(text, InputConfig(has_header=header), strict)
            except ParseError as exc:
                # An invalid byte ends a lenient run too, before any report.
                assert (code, out, err) == (1, "", f"error: {exc}\n")
            else:
                assert code == 0, err


class TestUsageErrors:
    def test_unknown_flag(self, worked_files):
        code, _, err = invoke("evaluate", "preds.csv", "--bogus")
        assert code == 2
        assert "--bogus" in err

    def test_missing_file_names_the_path(self, worked_files):
        for path, reason in [("nope.csv", "No such file or directory"), ("a\x00b.csv", "embedded null byte")]:
            code, out, err = invoke("evaluate", path)
            assert (code, out, err) == (2, "", f"error: cannot open input {path!r}: {reason}\n")

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

    @pytest.mark.parametrize("flag", ["--delimiter", "--positive-label", "--negative-label"])
    def test_a_byte_that_is_not_utf8_in_an_option_rejected(self, worked_files, flag):
        # Argv is decoded with surrogateescape: the byte 0xff arrives as U+DCFF.
        code, out, err = invoke("evaluate", "preds.csv", flag, "\udcff")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {flag} must be UTF-8 text")

    def test_missing_subcommand(self):
        code, _, err = invoke()
        assert code == 2


class TestStrict:
    def test_a_long_bad_field_makes_a_short_line(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        field = "5" * (1 << 20)  # a score float() reads as inf
        (tmp_path / "long.csv").write_text(f"1,0.5\n0,{field}\n", newline="")
        reason = f"non-finite score {field[:40]!r}..."
        code, out, err = invoke("evaluate", "long.csv", "--mode", "scores", "--threshold", "0.5")
        assert (code, err.splitlines()[0]) == (0, f"warning: line 2: {reason}")
        code, out, err = invoke("evaluate", "long.csv", "--mode", "scores", "--threshold", "0.5", "--strict")
        assert (code, out, err) == (1, "", f"error: line 2: {reason}\n")

    def test_strict_parse_failure_exits_one(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "messy.csv").write_text("1,1\nbroken\n", newline="")
        code, out, err = invoke("evaluate", "messy.csv", "--strict")
        assert (code, out, err) == (1, "", "error: line 2: expected 2 fields, got 1\n")
