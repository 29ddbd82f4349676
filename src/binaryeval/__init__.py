"""Binary classifier evaluation: exact tallies, metrics, ROC/AUC, reports."""

from binaryeval.counts import (
    ConfusionCounts,
    LabeledColumns,
    ScoredColumns,
    empty,
    from_predictions,
    merge,
    threshold_counts,
)
from binaryeval.ingest import (
    InputConfig,
    ParseError,
    ParseReport,
    parse_hard_labels,
    parse_scores,
)
from binaryeval.metrics import (
    MetricSet,
    MetricValue,
    accuracy,
    all_metrics,
    error_rate,
    f1_score,
    false_positive_rate,
    matthews_corrcoef,
    precision,
    recall,
    sensitivity,
    specificity,
    true_negative_rate,
    true_positive_rate,
)
from binaryeval.report import (
    write_json,
    write_svg,
    write_text,
)
from binaryeval.roc import (
    RocCurve,
    auc_pair_count,
    auc_trapezoid,
    roc_points,
)

__version__ = "0.1.0"

__all__ = [
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
