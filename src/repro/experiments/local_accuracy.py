"""Per-client accuracy figure (§V-B, "fig:local_acc").

The paper trains ResNet-20 on 10 clients with SPATL and SCAFFOLD and plots
each client's final accuracy: SPATL's heterogeneous predictors give every
client similar accuracy, while the shared-model baseline shows high
variance across clients.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.configs import ExperimentConfig, make_algorithm, \
    make_setting


def local_accuracy_figure(cfg: ExperimentConfig,
                          methods=("spatl", "scaffold"),
                          rounds: int | None = None) -> dict[str, dict]:
    """Per-client accuracies plus mean/std per method."""
    rounds = rounds or cfg.rounds
    out = {}
    for method in methods:
        model_fn, clients = make_setting(cfg)
        algo = make_algorithm(method, cfg, model_fn, clients)
        try:
            algo.run(rounds)
        finally:
            algo.close()   # release executor pools
        accs = np.asarray(algo.per_client_accuracy())
        out[method] = {
            "per_client": accs.tolist(),
            "mean": float(accs.mean()),
            "std": float(accs.std()),
            "min": float(accs.min()),
            "max": float(accs.max()),
        }
    return out
