"""Ablation studies (§V-F: Fig. 4, Fig. 5a, Fig. 5b).

Each ablation runs SPATL with one mechanism toggled and returns both
accuracy series for comparison:

- Fig. 4  — salient parameter selection vs none (selection should not hurt,
  and can help);
- Fig. 5a — heterogeneous transfer (private predictor) vs shared predictor
  (without transfer SPATL degrades sharply on non-IID data);
- Fig. 5b — gradient control vs none (control stabilises training).

For Fig. 5b both arms run with identical optimizer settings (vanilla SGD)
so the comparison isolates the control variates rather than a momentum
confound.
"""

from __future__ import annotations

from repro.experiments.configs import ExperimentConfig
from repro.experiments.harness import train
from repro.utils.logging import ExperimentLog


def _run_spatl(cfg: ExperimentConfig, rounds: int | None = None,
               **spatl_kwargs) -> ExperimentLog:
    return train(cfg, "spatl", rounds or cfg.rounds, **spatl_kwargs).log


def ablation_selection(cfg: ExperimentConfig,
                       rounds: int | None = None) -> dict[str, ExperimentLog]:
    """Fig. 4: SPATL with vs without salient parameter selection."""
    return {
        "with_selection": _run_spatl(cfg, rounds),
        "without_selection": _run_spatl(cfg, rounds, use_selection=False),
    }


def ablation_transfer(cfg: ExperimentConfig,
                      rounds: int | None = None) -> dict[str, ExperimentLog]:
    """Fig. 5a: private predictor (transfer) vs shared predictor."""
    return {
        "with_transfer": _run_spatl(cfg, rounds),
        "without_transfer": _run_spatl(cfg, rounds, use_transfer=False),
    }


def ablation_gradient_control(cfg: ExperimentConfig,
                              rounds: int | None = None
                              ) -> dict[str, ExperimentLog]:
    """Fig. 5b: control variates vs none, optimizer settings held equal."""
    return {
        "with_gradient_control": _run_spatl(cfg, rounds, momentum=0.0),
        "without_gradient_control": _run_spatl(cfg, rounds, momentum=0.0,
                                               use_gradient_control=False),
    }


def stability(series) -> float:
    """Mean absolute round-to-round accuracy change (lower = smoother).

    The quantitative readout for the paper's "substantially more stable
    training process" claims.
    """
    import numpy as np
    s = np.asarray(series, dtype=np.float64)
    if len(s) < 2:
        return 0.0
    return float(np.abs(np.diff(s)).mean())
