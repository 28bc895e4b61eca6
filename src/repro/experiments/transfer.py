"""Transferability of the learned model (Table III, §V-E).

Protocol: split the dataset into an FL portion and a held-out portion;
federate on the first with each method; then transfer the trained network
to the held-out data ("in a regular manner", i.e. fine-tuning) and compare
test accuracy.  The paper's claim is *parity*: SPATL's encoder — trained
without ever sharing a predictor — transfers as well as fully-shared
baselines.
"""

from __future__ import annotations

import numpy as np

from repro.core.transfer import transfer_accuracy
from repro.data import dirichlet_partition
from repro.data.datasets import ArrayDataset, train_val_split
from repro.fl import make_federated_clients
from repro.experiments.configs import ExperimentConfig, make_algorithm, \
    make_dataset
from repro.utils.rng import spawn_rng


def transferability_table(cfg: ExperimentConfig,
                          methods=("fedavg", "fednova", "scaffold", "spatl"),
                          holdout_fraction: float = 0.2,
                          transfer_epochs: int = 3,
                          rounds: int | None = None) -> dict[str, dict]:
    """FL-train on one split, transfer-finetune on the held-out split."""
    rounds = rounds or cfg.rounds
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
    results: dict[str, dict] = {}
    for method in methods:
        clients = make_federated_clients(fl_data, parts,
                                         batch_size=cfg.batch_size,
                                         seed=cfg.seed)

        def model_fn():
            from repro.models import build_model
            return build_model(cfg.model, num_classes=cfg.num_classes,
                               input_size=cfg.input_size,
                               width_mult=cfg.width_mult, seed=cfg.seed + 1)

        algo = make_algorithm(method, cfg, model_fn, clients)
        try:
            log = algo.run(rounds)
        finally:
            algo.close()   # release executor pools
        model = algo.global_model
        acc_before = _plain_accuracy(model, transfer_test)
        acc_after = transfer_accuracy(model, transfer_train, transfer_test,
                                      epochs=transfer_epochs, lr=cfg.lr / 2,
                                      seed=cfg.seed)
        results[method] = {
            "fl_acc": log.meta.get("final_acc", log.last("val_acc")),
            "transfer_acc": acc_after,
            "zero_shot_acc": acc_before,
        }
    return results


def _plain_accuracy(model, data: ArrayDataset) -> float:
    from repro.pruning.baselines import evaluate
    return evaluate(model, data)
