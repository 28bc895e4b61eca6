"""The one train loop every experiment runs, and the multi-method harness.

:func:`train` builds a config's setting and algorithm, runs it and closes
it; the artifacts of :mod:`repro.experiments.registry` read the
:class:`Run` it returns, one run per ``(config, method, overrides)``.
That sharing rests on a property tier-1 pins
(``tests/test_run_prefix.py``): the first ``r`` rounds of a run do not
depend on how many rounds follow, so :meth:`Run.upto` is the log a run
stopped after ``r`` rounds would have returned.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Callable, Mapping, Sequence

from repro.experiments.configs import ExperimentConfig, make_algorithm, \
    make_setting
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.utils.logging import ExperimentLog, render_table
from repro.utils.metrics import best_smoothed, rounds_to_target


@dataclasses.dataclass
class Run:
    """A training run: its algorithm and the log of its rounds."""

    algo: Any
    log: ExperimentLog

    def upto(self, rounds: int) -> ExperimentLog:
        """The log this run would have returned had it stopped after its
        first ``rounds`` rounds: each series' prefix, and the ledger's
        totals over those rounds only."""
        log = ExperimentLog(self.log.name)
        for key, values in self.log.series.items():
            log.series[key] = values[:rounds]
        ledger = self.algo.ledger
        log.meta.update(
            rounds_run=rounds, total_gb=ledger.total_gb(rounds - 1),
            per_round_per_client_mb=ledger.per_round_per_client_mb(rounds - 1))
        return log


def build(cfg: ExperimentConfig, method: str, setting=None, **overrides):
    """Algorithm ``method`` over ``setting``, a ``(model_fn, clients)``
    pair (by default the config's own, :func:`make_setting`)."""
    model_fn, clients = setting or make_setting(cfg)
    return make_algorithm(method, cfg, model_fn, clients, **overrides)


def train(cfg: ExperimentConfig, method: str, rounds: int | None = None, *,
          setting=None,
          at: Mapping[int, Callable[[Run], None]] | None = None,
          target_accuracy: float | None = None,
          patience: int | None = None, verbose: bool = False,
          **overrides) -> Run:
    """Build, run ``rounds`` rounds (``cfg.rounds`` by default) and close.

    ``at`` maps a round count to a reader of the algorithm *at exactly
    that many rounds*: ``at[r](run)`` is called, in ascending ``r``, once
    the run has completed ``r`` rounds (the run goes on to the largest of
    ``rounds`` and ``at``'s keys).  A reader must leave the algorithm as
    it found it and must not keep the log, which goes on growing.  An
    early stop (``target_accuracy``, ``patience``) and ``at`` exclude each
    other: a reader would not know the run it reads.
    """
    rounds = rounds if rounds is not None else cfg.rounds
    at = dict(at or {})
    if at and (target_accuracy is not None or patience):
        raise ValueError("readers at fixed rounds (at=) and an early stop "
                         "(target_accuracy=, patience=) exclude each other")
    algo = build(cfg, method, setting, **overrides)
    log = ExperimentLog(method, verbose=verbose)
    t0 = time.perf_counter()
    try:
        with get_tracer().span("algorithm", algorithm=method, rounds=rounds):
            for stop in sorted({*at, rounds}):
                algo.run(stop - algo.rounds_completed,
                         target_accuracy=target_accuracy, patience=patience,
                         log=log)
                if stop in at:
                    at[stop](Run(algo, log))
    finally:
        algo.close()   # release worker pools when --workers > 1
    wall = time.perf_counter() - t0
    log.meta["wall_time_s"] = wall
    get_registry().gauge("harness.wall_time_s", algorithm=method).set(wall)
    log.meta["final_acc"] = log.last("val_acc")
    return Run(algo, log)


def run_algorithms(cfg: ExperimentConfig, algorithms: Sequence[str],
                   rounds: int | None = None,
                   target_accuracy: float | None = None,
                   patience: int | None = None,
                   verbose: bool = False) -> dict[str, ExperimentLog]:
    """Run each named algorithm on a *fresh* copy of the same setting.

    Clients are rebuilt per algorithm so persistent client state (control
    variates, private predictors) never leaks across methods.
    """
    results: dict[str, ExperimentLog] = {}
    for name in algorithms:
        run = train(cfg, name, rounds, target_accuracy=target_accuracy,
                    patience=patience, verbose=verbose)
        log = run.log
        log.meta["algorithm"] = name
        log.meta["best_acc"] = best_smoothed(log["val_acc"], window=3)
        # Per-client diagnostics for the local-accuracy figure.
        log.meta["per_client_acc"] = run.algo.per_client_accuracy()
        if hasattr(run.algo, "inference_report"):
            log.meta["inference"] = run.algo.inference_report()
        results[name] = log
    return results


def compare_table(results: dict[str, ExperimentLog],
                  target_accuracy: float | None = None) -> str:
    """Render a comparison table over a ``run_algorithms`` result."""
    headers = ["method", "rounds", "final acc", "best acc", "MB/round/client",
               "total GB"]
    if target_accuracy is not None:
        headers.insert(1, f"rounds->{target_accuracy:.0%}")
    rows = []
    for name, log in results.items():
        row = [name, len(log["val_acc"]), log.meta["final_acc"],
               log.meta["best_acc"], log.meta["per_round_per_client_mb"],
               log.meta["total_gb"]]
        if target_accuracy is not None:
            hit = rounds_to_target(log["val_acc"], target_accuracy)
            row.insert(1, hit if hit is not None else "-")
        rows.append(row)
    return render_table(headers, rows)
