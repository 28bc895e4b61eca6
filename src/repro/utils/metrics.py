"""Training-metric helpers: running averages, convergence detection."""

from __future__ import annotations

import numpy as np


class RunningAverage:
    """Weighted streaming mean (batch-size weighted loss/accuracy)."""

    def __init__(self):
        self.total = 0.0
        self.weight = 0.0

    def update(self, value: float, weight: float = 1.0) -> None:
        self.total += float(value) * weight
        self.weight += weight

    @property
    def value(self) -> float:
        if self.weight == 0:
            return float("nan")
        return self.total / self.weight

    def reset(self) -> None:
        self.total = 0.0
        self.weight = 0.0


class EarlyStopper:
    """Convergence detector over a metric stream.

    Declares convergence when the best value seen has not improved by at
    least ``min_delta`` for ``patience`` consecutive updates — this is the
    "train to converge" criterion used for Table II's converge-round
    numbers.
    """

    def __init__(self, patience: int = 20, min_delta: float = 1e-3, mode: str = "max"):
        if mode not in ("max", "min"):
            raise ValueError("mode must be 'max' or 'min'")
        self.patience = patience
        self.min_delta = min_delta
        self.mode = mode
        self.best = -np.inf if mode == "max" else np.inf
        self.best_step = -1
        self.num_bad = 0
        self.step_count = 0

    def update(self, value: float) -> bool:
        """Feed one value; returns True once converged/should stop."""
        improved = (value > self.best + self.min_delta if self.mode == "max"
                    else value < self.best - self.min_delta)
        if improved:
            self.best = value
            self.best_step = self.step_count
            self.num_bad = 0
        else:
            self.num_bad += 1
        self.step_count += 1
        return self.num_bad >= self.patience

    @property
    def converged(self) -> bool:
        return self.num_bad >= self.patience


def best_smoothed(series, window: int = 5) -> float:
    """Max of the moving average — robust "converged accuracy" readout."""
    series = np.asarray(series, dtype=np.float64)
    if series.size == 0:
        return float("nan")
    if series.size < window:
        return float(series.mean())
    kernel = np.ones(window) / window
    smooth = np.convolve(series, kernel, mode="valid")
    return float(smooth.max())


def rounds_to_target(series, target: float) -> int | None:
    """First 1-based index where the metric reaches ``target`` (Table I)."""
    for i, v in enumerate(series):
        if v >= target:
            return i + 1
    return None


def rounds_to_converge(series, patience: int) -> int | None:
    """First 1-based index at which :class:`EarlyStopper` declares
    convergence (Table II's stop rule), or ``None`` if it never does —
    as :meth:`~repro.fl.base.FederatedAlgorithm.run` applies it, where a
    patience of 0 means no rule."""
    if not patience:
        return None
    stopper = EarlyStopper(patience=patience)
    for i, v in enumerate(series):
        if stopper.update(v):
            return i + 1
    return None
