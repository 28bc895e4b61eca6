"""Inference acceleration (§V-D, the FLOPs table).

After federated training completes, each client's final salient selection
defines a pruned sub-network.  The paper reports, per model, the average
and maximum FLOPs reduction across the 10 clients and the sparsity ratio
(fraction of salient parameters kept).
"""

from __future__ import annotations

import numpy as np

from repro.experiments.configs import ExperimentConfig
from repro.experiments.harness import Run


def inference_stats(cfg: ExperimentConfig, run: Run) -> dict:
    """The table's reader: FLOPs-reduction stats of the clients' current
    selections in a SPATL run."""
    report = run.algo.inference_report()
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
        "final_acc": run.log.last("val_acc"),
        "per_client": report,
    }
