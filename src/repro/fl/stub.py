"""A minimal in-memory algorithm for protocol-level tests and benches.

The async runtime, executors, and codec paths are *protocols*: their
correctness properties (determinism, buffer invariants, dedup, ledger
accounting) are independent of what the clients actually train.
:class:`StubAvg` strips the training to a seeded perturbation of a small
dense vector, so a full simulated run costs microseconds — cheap enough
for property-based testing (hundreds of schedule interleavings per
second) and for benchmarking pure event-loop overhead without neural-net
noise.

The stub honours the full hook contract: updates are ``{"state", "n",
"train_loss", "steps"}`` dicts (FedAvg's, whose wire hooks and server
step it inherits), every draw goes through the seeded RNG tree keyed by
``(round, client)`` (so results are schedule-order independent), and
aggregation reads the *current* global state (so commit order matters —
exactly what the invariant tests need to observe).
"""

from __future__ import annotations

import numpy as np

from repro.fl.fedavg import FedAvg
from repro.utils.rng import spawn_rng


class DictModel:
    """The smallest thing that quacks like a model: one named array."""

    def __init__(self, dim: int = 64, seed: int = 0):
        rng = np.random.default_rng(seed)
        self._state = {"w": rng.standard_normal(dim).astype(np.float32)}

    def state_dict(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self._state.items()}

    def load_state_dict(self, state: dict) -> None:
        self._state = {k: np.array(v) for k, v in state.items()}


class StubClient:
    """Client-shaped record: an id and the persistent-state dict."""

    def __init__(self, client_id: int):
        self.client_id = client_id
        self.local_state: dict = {}

    def close(self) -> None:
        """Match the real client's lifecycle hook (nothing to release)."""

    def evaluate(self, model) -> tuple[float, float]:
        """No data, no accuracy — lets the sync loop's eval pass run."""
        return 0.0, 0.0


class StubAvg(FedAvg):
    """FedAvg over :class:`DictModel`: seeded noise instead of SGD.

    Wire hooks and the server step (the example-weighted mean) are
    FedAvg's own; only local training is replaced.
    """

    name = "stubavg"

    def local_update(self, client, round_idx: int) -> dict:
        rng = spawn_rng(self.seed, "stub", round_idx, client.client_id)
        state = {k: v + 0.01 * rng.standard_normal(v.shape).astype(v.dtype)
                 for k, v in self.global_model.state_dict().items()}
        return {"state": state, "n": 1 + client.client_id,
                "train_loss": float(rng.random()),
                "steps": self.epochs_for(client, round_idx)}


def make_stub(n_clients: int = 8, dim: int = 64, seed: int = 0,
              **kwargs) -> StubAvg:
    """A ready-to-run :class:`StubAvg` with ``n_clients`` stub clients."""
    clients = [StubClient(cid) for cid in range(n_clients)]
    kwargs.setdefault("local_epochs", 1)
    return StubAvg(lambda: DictModel(dim=dim, seed=seed), clients,
                   seed=seed, **kwargs)
