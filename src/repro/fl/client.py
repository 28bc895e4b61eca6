"""Federated client: local data shards, local training, local evaluation.

A :class:`Client` owns a non-IID train/validation shard (produced by the
partitioners in :mod:`repro.data.partition`) plus ``local_state``, the
algorithm-owned per-client storage that persists across rounds — control
variates, private predictors, fine-tuned agent heads, compression
residuals.  It is the *only* home of per-client state: algorithms and
selection policies keep no per-client dicts of their own.  Because it is
plain arrays, scalars and dicts, the same value ships to process-pool
workers and back (:mod:`repro.fl.parallel`), rolls back on a simulated
crash (:meth:`Client.snapshot_local_state`), spills to the virtual-
population store and lands in every checkpoint
(:func:`repro.fl.scale.store.encode_client_state`) — byte-identically,
with no per-type code on any of those paths.
:func:`make_federated_clients` builds a cohort from a dataset and a
partition.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from repro.data.dataloader import DataLoader
from repro.data.datasets import ArrayDataset, train_val_split
from repro.tensor import Tensor, functional as F, no_grad
from repro.utils.metrics import RunningAverage


@dataclass
class Client:
    """One edge device: a train shard, a validation shard, and local state.

    ``local_state`` is algorithm-owned storage that survives across rounds —
    SCAFFOLD keeps its control variate ``c_i`` there; SPATL keeps ``c_i``,
    the private ``predictor``, the fine-tuned RL ``agent`` (policy arrays,
    PPO update count, participation count) and ``selection_keep``, the
    kept fraction per layer of its last selection; the compression
    transports keep their error-feedback residuals.
    """

    client_id: int
    train_data: ArrayDataset
    val_data: ArrayDataset
    batch_size: int = 32
    seed: int = 0
    local_state: dict = field(default_factory=dict)

    @property
    def num_train(self) -> int:
        return len(self.train_data)

    def snapshot_local_state(self) -> dict:
        """Deep copy of ``local_state`` — taken before local training so a
        simulated mid-training crash can roll the client back to what a
        restarted process would reload from disk."""
        return copy.deepcopy(self.local_state)

    def restore_local_state(self, snapshot: dict) -> None:
        """Replace ``local_state`` with a snapshot (crash rollback)."""
        self.local_state = snapshot

    def train_loader(self, round_idx: int) -> DataLoader:
        return DataLoader(self.train_data, batch_size=self.batch_size,
                          shuffle=True, seed=self.seed * 100_003 + round_idx)

    def evaluate(self, model, data: ArrayDataset | None = None,
                 batch_size: int = 256) -> tuple[float, float]:
        """(top-1 accuracy, mean loss) of ``model`` on ``data`` (default: val).

        ``model.eval()`` under ``no_grad``: the same kernels as training
        with graph/closure construction skipped, so the reported numbers
        are byte-identical to the allocating reference kernels' (DESIGN.md
        §10.5; the golden-state tests keep that oracle and compare with
        ``==``).
        """
        data = data if data is not None else self.val_data
        model.eval()
        acc = RunningAverage()
        loss_avg = RunningAverage()
        with no_grad():
            for lo in range(0, len(data), batch_size):
                xb = data.x[lo:lo + batch_size]
                yb = data.y[lo:lo + batch_size]
                logits = model(Tensor(xb))
                acc.update(F.accuracy(logits, yb), len(yb))
                loss_avg.update(F.cross_entropy(logits, yb).item(), len(yb))
        model.train()
        return acc.value, loss_avg.value


def make_federated_clients(dataset: ArrayDataset, parts: list[np.ndarray],
                           val_fraction: float = 0.2, batch_size: int = 32,
                           seed: int = 0) -> list[Client]:
    """Build one :class:`Client` per partition index list.

    Each client's shard is further split into a local train set and a local
    validation set — the paper "allocate[s] each client a local non-IID
    training dataset and a validation dataset" (§V-B) and reports the
    average top-1 accuracy over clients.
    """
    clients = []
    for cid, indices in enumerate(parts):
        shard = dataset.subset(indices)
        train, val = train_val_split(shard, val_fraction, seed=seed * 7919 + cid)
        clients.append(Client(client_id=cid, train_data=train, val_data=val,
                              batch_size=batch_size, seed=seed * 104729 + cid))
    return clients
