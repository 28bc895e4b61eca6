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

from repro.experiments.configs import (ExperimentConfig, make_algorithm,
                                       make_setting)
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
    results: dict[str, dict[float, dict]] = {}
    for name in algorithms:
        per_rate: dict[float, dict] = {}
        for p in drop_probs:
            fcfg = cfg.scaled(
                fault_drop_prob=p,
                fault_corrupt_prob=corrupt_prob if p > 0 else 0.0)
            model_fn, clients = make_setting(fcfg)
            algo = make_algorithm(name, fcfg, model_fn, clients)
            try:
                log = algo.run(rounds)
            finally:
                algo.close()   # release executor pools
            per_rate[p] = {
                "final_acc": log.last("val_acc"),
                "total_gb": algo.ledger.total_gb(),
                "rounds_run": log.meta["rounds_run"],
                **algo.fault_stats.as_dict(),
            }
        results[name] = per_rate
    return results


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
