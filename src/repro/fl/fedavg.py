"""FedAvg (McMahan et al., AISTATS 2017) — the cost benchmark of Table I.

The simplest baseline the paper compares against, and the 1x reference
for every speed-up column: each sampled client downloads the full global
model, trains locally, uploads the full model back, and the server takes
the example-weighted average.  It carries no server-side optimizer state
and no per-client state, so its hooks double as the minimal example of
the :class:`~repro.fl.base.FederatedAlgorithm` contract.
"""

from __future__ import annotations

import numpy as np

from repro.fl.base import FederatedAlgorithm
from repro.fl.client import Client
from repro.fl.local import train_local, weighted_average_states


class FedAvg(FederatedAlgorithm):
    """Weighted full-model averaging.

    Per-round, per-client traffic: one full model down, one full model up —
    the 1x cost reference every other method's speed-up column is measured
    against.
    """

    name = "fedavg"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._work = self.model_fn()

    def downlink_state(self) -> dict[str, np.ndarray]:
        return self.global_model.state_dict()

    def local_update(self, client: Client, round_idx: int) -> dict:
        self._work.load_state_dict(self.global_model.state_dict())
        loss, steps, _ = train_local(self._work, client, round_idx,
                                  epochs=self.epochs_for(client, round_idx), lr=self.lr,
                                  momentum=self.momentum,
                                  weight_decay=self.weight_decay,
                                  max_grad_norm=self.max_grad_norm,
                                  compiler=self.step_compiler)
        return {"state": self._work.state_dict(), "n": client.num_train,
                "train_loss": loss, "steps": steps}

    def upload_payload(self, update: dict) -> dict[str, np.ndarray]:
        return update["state"]

    def server_step(self, payloads, pairs) -> None:
        """The example-weighted mean of the uploaded states."""
        self.global_model.load_state_dict(weighted_average_states(
            payloads(), [n * w for n, w in pairs]))
