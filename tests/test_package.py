"""The package's public surface."""

from __future__ import annotations

import json
import re
from pathlib import Path

import binaryeval


def test_every_exported_name_resolves():
    assert [name for name in binaryeval.__all__ if not hasattr(binaryeval, name)] == []


def test_the_exported_names_are_these():
    # A change to the public API shows here as a diff.
    assert sorted(binaryeval.__all__) == [
        "ConfusionCounts",
        "InputConfig",
        "LabeledColumns",
        "MetricSet",
        "MetricValue",
        "ParseError",
        "ParseReport",
        "RocCurve",
        "ScoredColumns",
        "accuracy",
        "all_metrics",
        "auc_pair_count",
        "auc_trapezoid",
        "empty",
        "error_rate",
        "f1_score",
        "false_positive_rate",
        "from_predictions",
        "matthews_corrcoef",
        "merge",
        "parse_hard_labels",
        "parse_scores",
        "precision",
        "recall",
        "roc_points",
        "sensitivity",
        "specificity",
        "threshold_counts",
        "true_negative_rate",
        "true_positive_rate",
        "write_json",
        "write_svg",
        "write_text",
    ]


def test_the_row_types_are_gone():
    # Scored samples and label pairs have one form each, two columns.
    from binaryeval import counts, roc

    removed = ("Label", "LabeledPrediction", "ScoredSample", "RocPoint", "record", "binarize")
    assert [name for name in removed for module in (binaryeval, counts, roc) if hasattr(module, name)] == []


def test_the_readme_python_blocks_run_and_print_what_their_comments_state():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 2
    printed = []
    namespace = {"print": lambda *values: printed.append(values)}
    stated = []
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
        comments = re.findall(r"^print\(.*#(.*)$", block, flags=re.MULTILINE)
        stated += [re.findall(r"-?\d+\.\d+(?:\.\.\.)?", comment) for comment in comments]
    assert len(printed) == len(stated) == 3
    for values, texts in zip(printed, stated):
        assert len(values) == len(texts)
        for value, text in zip(values, texts):
            # "0.666..." states leading digits; any other number is the exact value.
            assert repr(value).startswith(text[:-3]) if text.endswith("...") else value == float(text)
    assert json.loads(namespace["report"])["metrics"]["mcc"] == 0.5
    assert set(namespace["undefined"].as_dict().values()) == {None}
    assert set(namespace["zeros"].as_dict().values()) == {0.0}
