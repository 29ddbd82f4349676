"""The package's public surface."""

from __future__ import annotations

import binaryeval


def test_every_exported_name_resolves():
    assert [name for name in binaryeval.__all__ if not hasattr(binaryeval, name)] == []


def test_the_exported_names_are_these():
    # A change to the public API shows here as a diff.
    assert sorted(binaryeval.__all__) == [
        "ConfusionCounts",
        "EvaluationReport",
        "InputConfig",
        "Label",
        "LabeledColumns",
        "LabeledPrediction",
        "MetricSet",
        "MetricValue",
        "ParseError",
        "ParseReport",
        "RocCurve",
        "RocPoint",
        "ScoredColumns",
        "ScoredSample",
        "accuracy",
        "all_metrics",
        "auc_pair_count",
        "auc_trapezoid",
        "binarize",
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
        "record",
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
