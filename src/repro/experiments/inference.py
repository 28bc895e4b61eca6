"""Inference acceleration (§V-D, the FLOPs table).

After federated training completes, each client's final salient selection
defines a pruned sub-network.  The paper reports, per model, the average
and maximum FLOPs reduction across the 10 clients and the sparsity ratio
(fraction of salient parameters kept).
"""

from __future__ import annotations

import numpy as np

from repro.experiments.configs import ExperimentConfig, make_algorithm, \
    make_setting
from repro.utils.logging import render_table


def inference_acceleration_table(cfg: ExperimentConfig,
                                 rounds: int | None = None) -> dict:
    """Run SPATL, return FLOPs-reduction stats of final client selections."""
    rounds = rounds or cfg.rounds
    model_fn, clients = make_setting(cfg)
    algo = make_algorithm("spatl", cfg, model_fn, clients)
    try:
        log = algo.run(rounds)
    finally:
        algo.close()   # release executor pools
    report = algo.inference_report()
    if not report:
        raise RuntimeError("no client selections were recorded")
    flops_red = np.asarray([1.0 - r["flops_ratio"] for r in report.values()])
    params_kept = np.asarray([r["sparsity_ratio"] for r in report.values()])
    return {
        "model": cfg.model,
        "n_clients_with_selection": len(report),
        "avg_flops_reduction": float(flops_red.mean()),
        "max_flops_reduction": float(flops_red.max()),
        "min_flops_reduction": float(flops_red.min()),
        "avg_keep_ratio": float(params_kept.mean()),
        "final_acc": log.meta.get("final_acc", log.last("val_acc")),
        "per_client": report,
    }


def render_inference_table(results: list[dict]) -> str:
    """Render the FLOPs table rows as text."""
    headers = ["model", "avg FLOPs drop", "max FLOPs drop", "keep ratio",
               "final acc"]
    rows = [[r["model"], f"{r['avg_flops_reduction']:.1%}",
             f"{r['max_flops_reduction']:.1%}", f"{r['avg_keep_ratio']:.2f}",
             f"{r['final_acc']:.3f}"] for r in results]
    return render_table(headers, rows, title="Inference acceleration (SPATL)")
