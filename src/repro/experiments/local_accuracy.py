"""Per-client accuracy figure (§V-B, "fig:local_acc").

The paper trains ResNet-20 on 10 clients with SPATL and SCAFFOLD and plots
each client's final accuracy: SPATL's heterogeneous predictors give every
client similar accuracy, while the shared-model baseline shows high
variance across clients.
"""

from __future__ import annotations

import numpy as np


def client_accuracy_stats(algo) -> dict:
    """The figure's reader: each client's accuracy under ``algo`` now,
    plus their mean / std / min / max."""
    accs = np.asarray(algo.per_client_accuracy())
    return {
        "per_client": accs.tolist(),
        "mean": float(accs.mean()),
        "std": float(accs.std()),
        "min": float(accs.min()),
        "max": float(accs.max()),
    }
