"""Learning efficiency (Fig. 3, §V-B): the converged-accuracy reader.

Average top-1 accuracy over heterogeneous clients versus communication
round, for SPATL against the four baselines (the ``fig3`` and ``femnist``
artifacts of :mod:`repro.experiments.registry`).
"""

from __future__ import annotations

from repro.utils.logging import ExperimentLog
from repro.utils.metrics import best_smoothed


def converge_accuracy_summary(results: dict[str, ExperimentLog]) -> dict[str, float]:
    """Fig. 3's bar values: converged (best smoothed) accuracy per method."""
    return {name: best_smoothed(log["val_acc"], window=3)
            for name, log in results.items()}
