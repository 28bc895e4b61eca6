"""Degradation under injected faults: accuracy vs failure rate.

The paper's premise is unreliable heterogeneous edge clients, so this
experiment measures what the method families actually *lose* when the
deployment misbehaves: for each failure rate we run the full federated
loop under a seeded :class:`~repro.fl.faults.FaultModel` (client drops +
payload corruption) and record final accuracy, communicated bytes, and
the fault counters (drops / retries / detected corruptions / skipped
rounds).  SPATL vs FedAvg is the headline comparison: sparse salient
uploads mean a retransmission costs far less than a full-model one, and
gradient control is exercised under genuine partial participation.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.configs import ExperimentConfig
from repro.experiments.harness import Run, train
from repro.utils.logging import render_table

DEFAULT_RATES = (0.0, 0.1, 0.3)


def fault_degradation_curve(cfg: ExperimentConfig,
                            drop_probs: Sequence[float] = DEFAULT_RATES,
                            algorithms: Sequence[str] = ("fedavg", "spatl"),
                            corrupt_prob: float = 0.02,
                            rounds: int | None = None) -> dict:
    """accuracy/cost/fault counters per (algorithm, drop probability).

    ``drop_probs == 0.0`` runs with fault injection fully disabled (the
    byte-identical baseline path), so the first column is the fault-free
    reference every degradation is measured against.
    """
    rounds = rounds if rounds is not None else cfg.rounds
    return {name: {p: fault_row(train(fault_config(cfg, p, corrupt_prob),
                                      name, rounds))
                   for p in drop_probs}
            for name in algorithms}


def fault_config(cfg: ExperimentConfig, drop_prob: float,
                 corrupt_prob: float) -> ExperimentConfig:
    """``cfg`` at one column of the curve: ``drop_prob`` drops, and
    ``corrupt_prob`` corruption wherever anything is dropped."""
    return cfg.scaled(fault_drop_prob=drop_prob,
                      fault_corrupt_prob=corrupt_prob if drop_prob > 0
                      else 0.0)


def fault_row(run: Run) -> dict:
    """The curve's reader: one run's final accuracy, bytes and counters."""
    return {
        "final_acc": run.log.last("val_acc"),
        "total_gb": run.algo.ledger.total_gb(),
        "rounds_run": run.log.meta["rounds_run"],
        **run.algo.fault_stats.as_dict(),
    }


def render_fault_table(results: dict, title: str | None = None) -> str:
    """Render a ``fault_degradation_curve`` result as an aligned table."""
    headers = ["method", "drop p", "final acc", "total GB", "dropped",
               "retries", "corrupt", "resamples"]
    rows = []
    for name, per_rate in results.items():
        for p, row in per_rate.items():
            rows.append([name, p, row["final_acc"], row["total_gb"],
                         row["n_dropped"], row["n_retries"],
                         row["n_corrupt"], row["n_resamples"]])
    return render_table(headers, rows,
                        title or "Fault tolerance: accuracy vs failure rate")
