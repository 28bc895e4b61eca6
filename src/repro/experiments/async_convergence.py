"""Sync vs async convergence against virtual wall-time (DESIGN.md §12).

The synchronous loop pays the straggler tax every round: the round ends
when the *slowest* sampled client finishes, so one slow device stretches
every round it appears in.  The asynchronous runtime commits from
whichever ``buffer_k`` clients respond first and discounts stale updates,
trading per-update freshness for wall-time progress.

This experiment makes that trade measurable on equal terms.  Both modes
run the same algorithm, the same clients, and the *same* seeded
:class:`~repro.fl.faults.AsyncProfile` of per-client latencies:

- **sync** — the ordinary :meth:`~repro.fl.base.FederatedAlgorithm.run`
  loop; its virtual time per round is the max of the cohort's drawn
  durations (lock-step barrier), accumulated across rounds.
- **async** — :class:`~repro.fl.async_runtime.AsyncFederatedRunner` on
  the event heap; its virtual time is simply the clock at each commit.

The headline number is the **speedup**: virtual time for sync to reach
its own final training loss divided by the async time to first reach the
same loss.  Under a straggler-heavy profile the async runtime should win
(the gate in ``benchmarks/bench_async.py`` asserts it does).
"""

from __future__ import annotations

import math

from repro.experiments.configs import (ExperimentConfig, make_algorithm,
                                       make_setting)
from repro.experiments.harness import train
from repro.fl.async_runtime import AsyncConfig, AsyncFederatedRunner
from repro.fl.base import sample_clients
from repro.fl.faults import AsyncProfile
from repro.utils.logging import render_table

#: Straggler-heavy default: ~1 in 3 jobs runs up to 6x slow, mild churn.
STRAGGLER_PROFILE = dict(jitter=0.2, straggler_prob=0.3, slowdown=6.0,
                         churn_prob=0.05, arrival_spread=0.5)


def _time_to_target(times: list[float], losses: list[float],
                    target: float) -> float:
    """First time the running-min loss reaches ``target`` (inf if never)."""
    best = math.inf
    for t, loss in zip(times, losses):
        if math.isfinite(loss):
            best = min(best, loss)
        if best <= target:
            return t
    return math.inf


def _sync_round_times(algo, profile: AsyncProfile, rounds: int) -> list[float]:
    """Cumulative virtual time of each sync round under ``profile``.

    A sync round is a barrier: it takes as long as the slowest sampled
    client's drawn duration (job id = round, matching the async runtime's
    one-job-per-step numbering in the equivalence regime).
    """
    out, now = [], 0.0
    for r in range(rounds):
        cohort = sample_clients(algo.clients, algo.sample_ratio, algo.seed, r)
        now += max(profile.duration(c.client_id, r,
                                    algo.epochs_for(c, r))
                   for c in cohort)
        out.append(now)
    return out


def async_convergence(cfg: ExperimentConfig, algorithm: str = "fedavg",
                      rounds: int | None = None,
                      profile: AsyncProfile | None = None,
                      async_config: AsyncConfig | None = None,
                      max_steps: int | None = None) -> dict:
    """Run sync and async under one latency profile; report time-to-target.

    Returns a dict with per-mode loss/time series, the sync-loss target,
    both times-to-target, and their ratio (``speedup`` > 1 means async
    reached the sync run's final training loss in less virtual time).
    """
    rounds = rounds if rounds is not None else cfg.rounds
    profile = profile or AsyncProfile(seed=cfg.seed, **STRAGGLER_PROFILE)

    # --- synchronous reference ------------------------------------------
    sync = train(cfg, algorithm, rounds)
    sync_algo, sync_log = sync.algo, sync.log
    sync_times = _sync_round_times(sync_algo, profile, rounds)
    sync_losses = list(sync_log["train_loss"])
    target = min(loss for loss in sync_losses if math.isfinite(loss))

    # --- asynchronous run ------------------------------------------------
    model_fn, clients = make_setting(cfg)
    async_algo = make_algorithm(algorithm, cfg, model_fn, clients)
    n = len(clients)
    acfg = async_config or AsyncConfig(
        buffer_k=max(2, math.ceil(n / 4)), staleness_alpha=0.5,
        max_inflight=n, max_queue=n)
    runner = AsyncFederatedRunner(async_algo, profile, acfg)
    # Commit budget: same number of *updates* as the sync run folded, so
    # neither mode sees more training work than the other.
    steps = max_steps if max_steps is not None else math.ceil(
        rounds * n * sync_algo.sample_ratio / acfg.buffer_k)
    results = runner.run(steps=steps)
    runner.finalize()
    async_algo.close()
    async_times = [r.time for r in results]
    async_losses = [r.train_loss for r in results]

    sync_t = _time_to_target(sync_times, sync_losses, target)
    async_t = _time_to_target(async_times, async_losses, target)
    return {
        "algorithm": algorithm,
        "target_loss": target,
        "sync": {"rounds": rounds, "times": sync_times,
                 "losses": sync_losses, "time_to_target": sync_t,
                 "total_gb": sync_algo.ledger.total_gb()},
        "async": {"steps": runner.server_step, "times": async_times,
                  "losses": async_losses, "time_to_target": async_t,
                  "total_gb": async_algo.ledger.total_gb(),
                  "summary": runner.summary()},
        "speedup": (sync_t / async_t
                    if math.isfinite(async_t) and async_t > 0
                    else float("nan")),
    }


def render_async_table(result: dict, title: str | None = None) -> str:
    """Render an ``async_convergence`` result as an aligned table."""
    headers = ["mode", "commits", "final loss", "virtual time",
               "time to target", "total GB"]
    sync, asy = result["sync"], result["async"]
    rows = [
        ["sync", sync["rounds"], min(sync["losses"]), sync["times"][-1],
         sync["time_to_target"], sync["total_gb"]],
        ["async", asy["steps"],
         min(loss for loss in asy["losses"] if math.isfinite(loss)),
         asy["times"][-1] if asy["times"] else float("nan"),
         asy["time_to_target"], asy["total_gb"]],
    ]
    return render_table(
        headers, rows,
        title or (f"Async convergence ({result['algorithm']}): "
                  f"speedup {result['speedup']:.2f}x to loss "
                  f"{result['target_loss']:.4f}"))
