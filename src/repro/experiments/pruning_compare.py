"""Pruning-method comparison (Table IV, §V-F1).

Compares the RL salient-parameter agent against SFP / FPGM / DSA-style /
magnitude / random selection on the plain network-pruning task: train a
model centrally, prune with each method to a comparable budget, report
accuracy drop and FLOPs reduction.
"""

from __future__ import annotations

import numpy as np

from repro.data.datasets import train_val_split
from repro.experiments.configs import (ExperimentConfig, make_dataset,
                                       make_model_fn)
from repro.pruning import (PruneResult, prune_dsa, prune_fpgm, prune_magnitude,
                           prune_random, prune_sfp)
from repro.pruning.baselines import evaluate, finetune
from repro.rl import pretrain_agent
from repro.utils.logging import render_table


def pruning_comparison_table(cfg: ExperimentConfig, sparsity: float = 0.25,
                             train_epochs: int = 5, finetune_epochs: int = 1,
                             agent_updates: int = 8,
                             flops_target: float | None = None
                             ) -> list[PruneResult]:
    """Run every pruning method from the same dense checkpoint."""
    ds = make_dataset(cfg)
    train, val = train_val_split(ds, 0.25, seed=cfg.seed)
    fresh_model = make_model_fn(cfg)
    dense = fresh_model()
    finetune(dense, train, epochs=train_epochs, lr=cfg.lr, seed=cfg.seed)
    dense_state = dense.state_dict()
    flops_target = flops_target or cfg.flops_target

    def checkpoint():
        model = fresh_model()
        model.load_state_dict(dense_state)
        return model

    results: list[PruneResult] = []
    results.append(prune_magnitude(checkpoint(), train, val, sparsity,
                                   finetune_epochs=finetune_epochs,
                                   seed=cfg.seed))
    results.append(prune_random(checkpoint(), train, val, sparsity,
                                finetune_epochs=finetune_epochs,
                                seed=cfg.seed))
    results.append(prune_sfp(checkpoint(), train, val, sparsity,
                             epochs=max(finetune_epochs, 2), lr=cfg.lr / 2,
                             finetune_epochs=finetune_epochs, seed=cfg.seed))
    results.append(prune_fpgm(checkpoint(), train, val, sparsity,
                              finetune_epochs=finetune_epochs, seed=cfg.seed))
    results.append(prune_dsa(checkpoint(), train, val,
                             flops_target=flops_target,
                             finetune_epochs=finetune_epochs, seed=cfg.seed))

    # The paper's agent: PPO pruning on the same checkpoint.
    model = checkpoint()
    agent, _ = pretrain_agent(model, train, val, updates=agent_updates,
                              episodes_per_update=4,
                              flops_target=flops_target, seed=cfg.seed)
    selection, info = agent.propose(model, flops_target=flops_target)
    acc_dense = evaluate(model, val)
    selection.apply_to(model.encoder)
    finetune(model, train, epochs=finetune_epochs, seed=cfg.seed)
    acc_pruned = evaluate(model, val)
    model.encoder.clear_channel_masks()
    results.append(PruneResult("rl-agent (SPATL)", acc_dense, acc_pruned,
                               info["flops_ratio"],
                               selection.mean_sparsity(), selection))
    return results


def render_pruning_table(results: list[PruneResult]) -> str:
    """Render Table-IV rows as text."""
    headers = ["method", "dense acc", "pruned acc", "acc drop",
               "FLOPs reduction", "mean sparsity"]
    rows = [[r.method, r.acc_dense, r.acc_pruned, r.acc_drop,
             f"{r.flops_reduction:.1%}", f"{r.mean_sparsity:.2f}"]
            for r in results]
    return render_table(headers, rows, title="Pruning comparison (Table IV)")
