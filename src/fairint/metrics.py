"""Evaluation metrics: group fairness gaps, ranking quality, reconstruction accuracy.

Fairness gaps are reported as magnitudes: which group is favored is a
labeling artifact, so signs carry no information. Group membership comes
from the true sensitive column by default; callers can evaluate against
reconstructed groups instead, and the report records which source was
used.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .errors import MetricError, UsageError, check_number

__all__ = [
    "FairnessReport",
    "threshold_labels",
    "delta_dp",
    "delta_eo",
    "auc_roc",
    "sar_accuracy",
    "evaluate",
]


def _validate_groups(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s)
    present = np.unique(s)
    if present.size < 2:
        raise MetricError(
            f"fairness gaps need both groups in the evaluation rows, found only group {present}"
        )
    if present.size > 2 or not np.all(np.isin(present, (0, 1))):
        raise MetricError(f"group vector must be binary 0/1, found values {present}")
    return s


def threshold_labels(scores, threshold: float = 0.5) -> np.ndarray:
    """Binarize probability scores; a score equal to the threshold is positive."""
    return (np.asarray(scores, dtype=np.float64).reshape(-1) >= threshold).astype(np.int64)


def delta_dp(pred_labels, s) -> float:
    """Demographic parity gap: |P(pred=1 | group 0) - P(pred=1 | group 1)|."""
    pred = np.asarray(pred_labels).reshape(-1)
    s = _validate_groups(np.asarray(s).reshape(-1))
    rate0 = pred[s == 0].mean()
    rate1 = pred[s == 1].mean()
    return float(abs(rate0 - rate1))


def _group_rates(pred: np.ndarray, y: np.ndarray, s: np.ndarray, group: int) -> dict:
    """Group ``group``'s positive_rate, tpr, fpr and row count; MetricError if its TPR or FPR is undefined."""
    rows = s == group
    pos = rows & (y == 1)
    neg = rows & (y == 0)
    if not pos.any():
        raise MetricError(f"group {group} has no positive ground-truth rows; TPR undefined")
    if not neg.any():
        raise MetricError(f"group {group} has no negative ground-truth rows; FPR undefined")
    return {"positive_rate": float(pred[rows].mean()), "tpr": float(pred[pos].mean()),
            "fpr": float(pred[neg].mean()), "count": int(rows.sum())}


def _eo_gap(pred: np.ndarray, y: np.ndarray, s: np.ndarray) -> tuple[float, dict]:
    """The equalized odds gap of validated groups ``s``, and the rates of each group (key "0" or "1")."""
    rates = {str(g): _group_rates(pred, y, s, g) for g in (0, 1)}
    r0, r1 = rates["0"], rates["1"]
    return abs(r0["tpr"] - r1["tpr"]) + abs(r0["fpr"] - r1["fpr"]), rates


def delta_eo(pred_labels, y, s) -> float:
    """Equalized odds gap: |TPR_0 - TPR_1| + |FPR_0 - FPR_1|."""
    pred = np.asarray(pred_labels).reshape(-1)
    y = np.asarray(y).reshape(-1)
    s = _validate_groups(np.asarray(s).reshape(-1))
    return _eo_gap(pred, y, s)[0]


def auc_roc(scores, y) -> float:
    """Probability a random positive outscores a random negative; ties count half.

    Each positive counts the negatives below it plus half of those it
    ties, found by binary search in the sorted negative scores (sorted
    positives keep the searches moving forward). The counts are
    integers, so the result is exact and invariant under any strictly
    increasing transform of the scores, and besides the two classes'
    scores it holds one count per positive.
    """
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    y = np.asarray(y).reshape(-1)
    negatives = scores[y == 0]
    positives = scores[y == 1]
    if positives.size == 0 or negatives.size == 0:
        raise MetricError(f"AUC needs both classes, got {positives.size} positives and {negatives.size} negatives")
    negatives.sort()
    positives.sort()
    below = int(np.searchsorted(negatives, positives, side="left").sum())
    below_or_tied = int(np.searchsorted(negatives, positives, side="right").sum())
    return float((below + below_or_tied) / 2.0 / (positives.size * negatives.size))


def sar_accuracy(pseudo_scores, s) -> float:
    """Fraction of rows whose thresholded reconstruction matches the true group."""
    scores = np.asarray(pseudo_scores, dtype=np.float64).reshape(-1)
    s = np.asarray(s).reshape(-1)
    if scores.size == 0:
        raise UsageError("reconstruction accuracy of an empty batch")
    return float((threshold_labels(scores) == s).mean())


@dataclass
class FairnessReport:
    """Everything one evaluation produced, JSON-ready.

    ``group_rates`` maps each group id (as a string key) to its
    positive_rate, tpr, fpr, and row count; ddp and deo are exactly
    reconstructible from those rates. ``sar_accuracy`` is None for models
    without a reconstructor. ``groups_from`` records whether gaps were
    computed against the true sensitive column or the reconstructed one.
    """

    auc: float
    ddp: float
    deo: float
    group_rates: dict
    sar_accuracy: float | None
    threshold: float
    groups_from: str

    def to_dict(self) -> dict:
        return asdict(self)


def evaluate(
    scores,
    y,
    s,
    threshold: float = 0.5,
    groups_from: str = "true",
) -> FairnessReport:
    """Compute the full report for one set of predictions.

    ``s`` is whatever group vector the caller wants gaps measured
    against; set ``groups_from`` to say where it came from ("true" or
    "reconstructed"). ``sar_accuracy`` is left None for the caller to
    fill in, since only the caller knows the true sensitive column.
    """
    if groups_from not in ("true", "reconstructed"):
        raise UsageError(f"groups_from must be 'true' or 'reconstructed', got {groups_from!r}")
    check_number("threshold", threshold)
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    y = np.asarray(y).reshape(-1)
    s = np.asarray(s).reshape(-1)
    pred = threshold_labels(scores, threshold)
    ddp = delta_dp(pred, s)  # checks the groups first, then the rates raise for an undefined TPR or FPR
    deo, group_rates = _eo_gap(pred, y, s)
    return FairnessReport(
        auc=auc_roc(scores, y),
        ddp=ddp,
        deo=deo,
        group_rates=group_rates,
        sar_accuracy=None,
        threshold=float(threshold),
        groups_from=groups_from,
    )
