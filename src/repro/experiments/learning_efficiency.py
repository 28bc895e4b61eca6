"""Learning efficiency (Fig. 3 and the vgg_cifar curve grid, §V-B).

Average top-1 accuracy over heterogeneous clients versus communication
round, for SPATL against the four baselines, across client-count settings
(the paper sweeps 10 / 30 / 50 / 100 clients with sample ratios 1.0 / 0.4 /
0.7 / 0.4).
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments.configs import ExperimentConfig
from repro.experiments.harness import run_algorithms
from repro.utils.logging import ExperimentLog

DEFAULT_METHODS = ("fedavg", "fedprox", "fednova", "scaffold", "spatl")

# The paper's (clients, sample ratio) grid.
PAPER_SETTINGS = ((10, 1.0), (30, 0.4), (50, 0.7), (100, 0.4))


def learning_efficiency_curves(cfg: ExperimentConfig,
                               methods=DEFAULT_METHODS,
                               rounds: int | None = None
                               ) -> dict[str, ExperimentLog]:
    """Accuracy-vs-round series for each method on one setting."""
    return run_algorithms(cfg, methods, rounds=rounds)


def converge_accuracy_summary(results: dict[str, ExperimentLog]) -> dict[str, float]:
    """Fig. 3's bar values: converged (best smoothed) accuracy per method."""
    from repro.utils.metrics import best_smoothed
    return {name: best_smoothed(log["val_acc"], window=3)
            for name, log in results.items()}


def multi_setting_curves(cfg: ExperimentConfig,
                         settings=((6, 1.0), (10, 0.4)),
                         methods=DEFAULT_METHODS
                         ) -> dict[tuple, dict[str, ExperimentLog]]:
    """The curve grid across (clients, sample-ratio) settings of ``cfg``."""
    return {(n_clients, ratio): learning_efficiency_curves(
                replace(cfg, n_clients=n_clients, sample_ratio=ratio), methods)
            for n_clients, ratio in settings}
