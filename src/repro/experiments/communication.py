"""Communication-cost readers (Table I, Table II, train-rounds figure).

Table I: each method trained to a *target accuracy*: rounds,
per-round/per-client payload, total cost, and speed-up relative to FedAvg
(Eq. 13 defines cost as the sum of per-round payloads).

Table II: trained to *convergence* (no improvement for ``patience``
rounds): converge rounds, cost, and converged accuracy deltas vs FedAvg.

Absolute payload sizes depend on model scale, so alongside the measured
scaled-run costs we report the **full-size per-round payload** each
protocol implies (``paper_mb_per_round``), computed from the real
architectures through the same codec.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.configs import ExperimentConfig
from repro.models import paper_model_size_mb
from repro.utils.logging import ExperimentLog, render_table
from repro.utils.metrics import best_smoothed, rounds_to_target


@dataclass
class CostRow:
    """One row of Table I / Table II."""

    method: str
    model: str
    n_clients: int
    rounds: int
    reached_target: bool
    mb_per_round_client: float
    total_gb: float
    speedup_vs_fedavg: float
    final_acc: float
    acc_delta_vs_fedavg: float


# Full-size per-round protocol factors: how many model-equivalents cross
# the wire per client per round (down + up), per protocol.  Used to scale
# the full-size architecture payloads for the "paper-scale" cost column.
PROTOCOL_FACTORS = {
    "fedavg": 2.0,            # model down + model up
    "fedprox": 2.0,
    "fednova": 4.0,           # + server momentum down, local momentum up
    "scaffold": 4.0,          # + c down, delta-c up
    "spatl": None,            # measured: depends on selection sparsity
}


def paper_scale_mb_per_round(method: str, model: str,
                             measured_ratio: float | None = None) -> float:
    """Full-size per-round/client MB implied by each protocol."""
    base = paper_model_size_mb(model)
    factor = PROTOCOL_FACTORS.get(method)
    if factor is None:
        factor = measured_ratio if measured_ratio is not None else 2.5
    return base * factor


def cost_rows(cfg: ExperimentConfig, logs: dict[str, ExperimentLog],
              target: float | None) -> list[CostRow]:
    """Tables I and II's reader: one row per method's log, each log as its
    run's stop rule left it (:func:`~repro.utils.metrics.rounds_to_target`
    for Table I, :func:`~repro.utils.metrics.rounds_to_converge` for II)."""
    fedavg_log = logs.get("fedavg")
    fedavg_gb = fedavg_log.meta["total_gb"] if fedavg_log else None
    fedavg_acc = (best_smoothed(fedavg_log["val_acc"], 3)
                  if fedavg_log else float("nan"))
    rows = []
    for method, log in logs.items():
        accs = log["val_acc"]
        if target is not None:
            hit = rounds_to_target(accs, target)
            rounds = hit if hit is not None else len(accs)
            reached = hit is not None
            total_gb = log.meta["total_gb"] if hit is None else \
                float(np.sum(log["round_gb"][:hit]))
        else:
            rounds = len(accs)
            reached = True
            total_gb = log.meta["total_gb"]
        best = best_smoothed(accs, 3)
        rows.append(CostRow(
            method=method, model=cfg.model, n_clients=cfg.n_clients,
            rounds=rounds, reached_target=reached,
            mb_per_round_client=log.meta["per_round_per_client_mb"],
            total_gb=total_gb,
            speedup_vs_fedavg=(fedavg_gb / total_gb
                               if fedavg_gb and total_gb else float("nan")),
            final_acc=best, acc_delta_vs_fedavg=best - fedavg_acc))
    return rows


def target_rounds(logs: dict[str, ExperimentLog],
                  targets) -> dict[str, dict[float, int | None]]:
    """The train-rounds figure's reader: each log's rounds to each target."""
    return {method: {t: rounds_to_target(log["val_acc"], t) for t in targets}
            for method, log in logs.items()}


def render_cost_table(rows: list[CostRow], title: str) -> str:
    """Render Table-I/II rows as an aligned text table."""
    headers = ["method", "model", "clients", "rounds", "hit", "MB/rd/cl",
               "total GB", "speedup", "acc", "dAcc"]
    table_rows = [[r.method, r.model, r.n_clients, r.rounds,
                   "yes" if r.reached_target else "no",
                   r.mb_per_round_client, r.total_gb, r.speedup_vs_fedavg,
                   r.final_acc, r.acc_delta_vs_fedavg] for r in rows]
    return render_table(headers, table_rows, title=title)
