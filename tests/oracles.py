"""Reference implementations that tests compare the package against.

They are the straightforward forms of code the package implements another
way, kept here so that a faster or merged production path can be checked
against them.
"""

from __future__ import annotations

import json
import math
from typing import Mapping

import numpy as np

from binaryeval.roc import RocCurve


def pair_tallies_brute(pos: np.ndarray, neg: np.ndarray) -> tuple[int, int]:
    """Outer comparison of every positive score against every negative one.

    Returns (pairs with the positive scored higher, tied pairs).
    """
    greater = int(np.sum(pos[:, None] > neg[None, :]))
    equal = int(np.sum(pos[:, None] == neg[None, :]))
    return greater, equal


def _format_meta_value(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def roc_text(curve: RocCurve, meta: Mapping[str, object]) -> str:
    """The ``roc`` subcommand's text report: meta echo, point table, AUC."""
    lines = [f"{key} {_format_meta_value(value)}" for key, value in meta.items()]
    lines.append("")
    lines.append("fpr tpr threshold")
    for p in curve.points:
        threshold = "inf" if math.isinf(p.threshold) else repr(p.threshold)
        lines.append(f"{p.fpr:.6f} {p.tpr:.6f} {threshold}")
    lines.append(f"AUC {curve.auc:.6f}")
    return "\n".join(lines) + "\n"


def roc_json(curve: RocCurve, meta: Mapping[str, object]) -> str:
    """The ``roc`` subcommand's JSON report: ``roc`` then ``meta``."""
    points = [
        {"fpr": p.fpr, "tpr": p.tpr, "threshold": None if math.isinf(p.threshold) else p.threshold}
        for p in curve.points
    ]
    return json.dumps({"roc": {"points": points, "auc": curve.auc}, "meta": dict(meta)},
                      indent=2, allow_nan=False) + "\n"
