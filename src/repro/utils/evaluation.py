"""Classification evaluation beyond top-1: confusion matrix, per-class
accuracy, macro-F1.

The paper reports top-1 only, but per-class views are what reveal *why*
heterogeneous clients diverge (a client missing class k collapses on it).
"""

from __future__ import annotations

import numpy as np


def confusion_matrix(pred: np.ndarray, labels: np.ndarray,
                     num_classes: int | None = None) -> np.ndarray:
    """(num_classes, num_classes) counts; rows = true, cols = predicted."""
    pred = np.asarray(pred, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if pred.shape != labels.shape:
        raise ValueError("pred/labels shape mismatch")
    k = num_classes or int(max(pred.max(initial=0), labels.max(initial=0))) + 1
    out = np.zeros((k, k), dtype=np.int64)
    np.add.at(out, (labels, pred), 1)
    return out


def per_class_accuracy(cm: np.ndarray) -> np.ndarray:
    """Recall per class from a confusion matrix (NaN for absent classes)."""
    cm = np.asarray(cm, dtype=np.float64)
    totals = cm.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(totals > 0, np.diag(cm) / totals, np.nan)


def macro_f1(cm: np.ndarray) -> float:
    """Unweighted mean F1 over classes present in the labels."""
    cm = np.asarray(cm, dtype=np.float64)
    tp = np.diag(cm)
    fp = cm.sum(axis=0) - tp
    fn = cm.sum(axis=1) - tp
    present = cm.sum(axis=1) > 0
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(tp + fp > 0, tp / (tp + fp), 0.0)
        recall = np.where(tp + fn > 0, tp / (tp + fn), 0.0)
        denom = precision + recall
        f1 = np.where(denom > 0, 2 * precision * recall / denom, 0.0)
    return float(f1[present].mean()) if present.any() else float("nan")
