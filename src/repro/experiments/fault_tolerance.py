"""Degradation under injected faults: accuracy vs failure rate.

The paper's premise is unreliable heterogeneous edge clients, so the
``fault_degradation`` artifact measures what methods *lose* when the
deployment misbehaves: per failure rate, the federated loop under a
seeded :class:`~repro.fl.faults.FaultModel` (drops + corruption) and its
final accuracy, bytes and fault counters.  SPATL vs FedAvg is the
headline comparison: sparse salient uploads mean a retransmission costs
far less than a full-model one, and gradient control is exercised under
genuine partial participation.
"""

from __future__ import annotations

from repro.experiments.configs import ExperimentConfig
from repro.experiments.harness import Run


def fault_config(cfg: ExperimentConfig, drop_prob: float,
                 corrupt_prob: float) -> ExperimentConfig:
    """``cfg`` at one column of the curve: ``drop_prob`` drops, and
    ``corrupt_prob`` corruption wherever anything is dropped.  A
    ``drop_prob`` of 0 runs with fault injection off entirely: the
    byte-identical baseline every degradation is measured against."""
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
