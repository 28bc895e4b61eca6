"""Transferability of the learned model (Table III, §V-E).

Protocol: split the dataset into an FL portion and a held-out portion;
federate on the first with each method; then transfer the trained network
to the held-out data ("in a regular manner", i.e. fine-tuning) and compare
test accuracy.  The paper's claim is *parity*: SPATL's encoder — trained
without ever sharing a predictor — transfers as well as fully-shared
baselines.
"""

from __future__ import annotations

import dataclasses

from repro.core.transfer import transfer_accuracy
from repro.data import dirichlet_partition
from repro.data.datasets import ArrayDataset, train_val_split
from repro.fl import make_federated_clients
from repro.experiments.configs import (ExperimentConfig, make_dataset,
                                       make_model_fn)
from repro.experiments.harness import Run
from repro.utils.rng import spawn_rng


@dataclasses.dataclass(frozen=True)
class HoldoutSplit:
    """The dataset cut in two: the federated part, partitioned over the
    clients, and the held-out part the trained network transfers to."""

    fl_data: ArrayDataset
    parts: list
    transfer_train: ArrayDataset
    transfer_test: ArrayDataset

    def setting(self, cfg: ExperimentConfig) -> tuple:
        """A fresh ``(model_fn, clients)`` over the federated part."""
        return make_model_fn(cfg), make_federated_clients(
            self.fl_data, self.parts, batch_size=cfg.batch_size,
            seed=cfg.seed)


def holdout_split(cfg: ExperimentConfig,
                  holdout_fraction: float = 0.2) -> HoldoutSplit:
    """Hold ``holdout_fraction`` of the config's dataset out of FL."""
    full = make_dataset(cfg)
    rng = spawn_rng(cfg.seed, "transfer_split")
    order = rng.permutation(len(full))
    n_hold = int(round(holdout_fraction * len(full)))
    holdout = full.subset(order[:n_hold])
    fl_data = full.subset(order[n_hold:])
    transfer_train, transfer_test = train_val_split(holdout, 0.3,
                                                    seed=cfg.seed + 5)
    parts = dirichlet_partition(fl_data.y, cfg.n_clients, beta=cfg.beta,
                                seed=cfg.seed)
    return HoldoutSplit(fl_data, parts, transfer_train, transfer_test)


def transfer_row(cfg: ExperimentConfig, run: Run, split: HoldoutSplit,
                 transfer_epochs: int = 3) -> dict:
    """The table's reader: zero-shot and fine-tuned accuracy of the run's
    global model on the held-out data.  Fine-tuning trains that model in
    place, so this is the last read of the run."""
    model = run.algo.global_model
    acc_before = _plain_accuracy(model, split.transfer_test)
    acc_after = transfer_accuracy(model, split.transfer_train,
                                  split.transfer_test,
                                  epochs=transfer_epochs, lr=cfg.lr / 2,
                                  seed=cfg.seed)
    return {
        "fl_acc": run.log.last("val_acc"),
        "transfer_acc": acc_after,
        "zero_shot_acc": acc_before,
    }


def _plain_accuracy(model, data: ArrayDataset) -> float:
    from repro.pruning.baselines import evaluate
    return evaluate(model, data)
