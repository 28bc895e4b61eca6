"""The five end-to-end workloads and the code that builds and steps them.

Everything here goes through the repo's public entry points only
(``repro.experiments.configs``, the three round drivers, the algorithm's
``ledger`` / ``global_model`` / ``close``), so refactors below those
names do not have to touch the benchmark.  ``repro`` is imported inside
the builders: the parent process of ``run.py`` lists workloads without
importing NumPy.

A *timed unit* is one sample of ``round_s``: one ``run_round`` for the
synchronous and population-scale drivers, one ``runner.run(steps=4)``
(four buffered commits) for the asynchronous one.  Unit 0 is the warm-up
and is charged to ``setup_s``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

POPULATION = 256          # spatl_scale_int8: virtual clients
SHARD_SAMPLES = 12        # ... and samples per virtual client
COHORT = 16               # ... sampled per round
ASYNC_STEPS = 4           # spatl_async_int4: commits per timed unit


@dataclass(frozen=True)
class Workload:
    """One named workload: what it runs and why it is in the benchmark."""

    name: str
    why: str
    algorithm: str                      # make_algorithm() name
    driver: str                         # "round" | "async" | "scale"
    config: dict                        # overrides on config_for("tiny", seed=S)
    unit_s: float                       # seconds per timed unit on the sizing box
    driver_config: dict = field(default_factory=dict)


WORKLOADS = [
    Workload(
        name="spatl_rl_resnet20",
        why="flagship SPATL path: RL selection + gradient control, the only "
            "user of rl/gnn/graph/pruning; eager kernels, conv/BN-bound",
        algorithm="spatl", driver="round", unit_s=2.45,
        config=dict(model="resnet20", n_clients=8, sample_ratio=1.0,
                    local_epochs=2, use_rl_policy=True)),
    Workload(
        name="fedavg_vgg11_dense",
        why="GEMM-bound dense baseline with 4.7 MB/client payloads that "
            "bypasses agent, selection and variates: must not move when those do",
        algorithm="fedavg", driver="round", unit_s=2.4,
        config=dict(model="vgg11", input_size=32, n_clients=4, n_samples=480,
                    local_epochs=2)),
    Workload(
        name="fedavg_resnet20_fastpath",
        why="the opt-in fast paths composed: step-compiler replay inside a "
            "2-worker process pool; same arithmetic as a serial eager run",
        algorithm="fedavg", driver="round", unit_s=1.25,
        config=dict(model="resnet20", n_clients=8, workers=2, compile=True)),
    Workload(
        name="spatl_async_int4",
        why="second driver: staleness-weighted aggregation, CRC dedup and the "
            "int4 nibble/block-scale codec under stragglers, churn and crashes",
        algorithm="spatl", driver="async", unit_s=1.45,
        config=dict(model="resnet20", n_clients=16, local_epochs=1,
                    quant_bits=4, quant_block=256, quant_ef=True),
        driver_config=dict(
            profile=dict(jitter=0.3, straggler_prob=0.4, slowdown=6.0,
                         arrival_spread=1.0, churn_prob=0.15, crash_prob=0.05,
                         duplicate_prob=0.2),
            server=dict(buffer_k=4, max_inflight=8, max_queue=16,
                        commit_deadline=8.0, eval_every=4))),
    Workload(
        name="spatl_scale_int8",
        why="third driver and the only workload not kernel-bound: 256 virtual "
            "clients, spill-to-disk state store, streaming SPATL fold, int8 uplink",
        algorithm="spatl", driver="scale", unit_s=1.5,
        config=dict(model="vgg11", input_size=32, n_clients=POPULATION,
                    n_samples=POPULATION * SHARD_SAMPLES,
                    sample_ratio=COHORT / POPULATION, quant_bits=8),
        driver_config=dict(resident_limit=8)),
]

BY_NAME = {w.name: w for w in WORKLOADS}


def serial_eager_reference(workload: Workload) -> Workload:
    """The same workload with the opt-in fast paths off (``--calibrate``)."""
    return replace(workload, config={**workload.config, "workers": 1,
                                     "compile": False})


def units_for(workload: Workload, seconds: float) -> int:
    """Timed units that fill ``seconds`` on the sizing box.

    A fixed count (not a deadline) so bytes, accuracy and the final
    fingerprint are functions of (workload, seed, seconds) alone.
    """
    return max(1, round(seconds / workload.unit_s))


class Run:
    """A built workload: ``step(u)`` runs timed unit ``u`` (0 = warm-up)."""

    def __init__(self, workload: Workload, algo, step, n_train, runner=None,
                 staleness=()):
        self.workload = workload
        self.algo = algo
        self._step = step               # unit -> units/commits it failed to commit
        self.n_train = n_train          # client id -> local training samples
        self.runner = runner            # async / scale driver, else None
        self.staleness = staleness      # async: mean staleness per commit
        self.uncommitted = 0

    def step(self, unit: int) -> None:
        self.uncommitted += self._step(unit)

    def evaluate(self) -> float:
        return self.algo.evaluate_all()

    def exchange_counts(self) -> dict:
        """Client exchanges dispatched / delivered / lost on purpose / open."""
        ledger = self.algo.ledger
        if self.workload.driver == "async":
            c = self.runner.counters
            return dict(dispatched=c["dispatched"], delivered=c["accepted"],
                        injected=c["crashed"], open=len(self.runner.inflight))
        return dict(dispatched=sum(len(v) for v in ledger.downlink.values()),
                    delivered=sum(len(v) for v in ledger.uplink.values()),
                    injected=0, open=0)


def build(workload: Workload, seed: int, tmpdir: str) -> Run:
    """Generate the inputs from ``seed`` and construct the run."""
    from repro.experiments.configs import (config_for, make_algorithm,
                                           make_setting)

    cfg = config_for("tiny", seed=seed, **workload.config)
    if workload.driver == "scale":
        return _build_scale(workload, cfg, tmpdir)
    model_fn, clients = make_setting(cfg)
    algo = make_algorithm(workload.algorithm, cfg, model_fn, clients)
    n_train = {c.client_id: c.num_train for c in clients}
    if workload.driver == "round":
        def step(unit):
            return 0 if algo.run_round(unit).committed else 1
        return Run(workload, algo, step, n_train)

    from repro.fl import AsyncConfig, AsyncFederatedRunner, AsyncProfile
    profile = AsyncProfile(seed=seed, **workload.driver_config["profile"])
    runner = AsyncFederatedRunner(
        algo, profile, AsyncConfig(**workload.driver_config["server"]))

    staleness: list[float] = []

    def step(unit):
        done = runner.run(steps=ASYNC_STEPS)
        staleness.extend(s.mean_staleness for s in done)
        return ASYNC_STEPS - len(done) + int(runner.stalled)
    return Run(workload, algo, step, n_train, runner=runner,
               staleness=staleness)


def _build_scale(workload: Workload, cfg, tmpdir: str) -> Run:
    import numpy as np
    from repro.experiments.configs import make_algorithm, make_dataset
    from repro.fl import (ClientStateStore, ScaleRunner, ShardedClientFactory,
                          VirtualClientPool)
    from repro.models import build_model

    dataset = make_dataset(cfg)
    order = np.random.default_rng(cfg.seed).permutation(len(dataset.y))
    parts = [order[i * SHARD_SAMPLES:(i + 1) * SHARD_SAMPLES]
             for i in range(POPULATION)]
    factory = ShardedClientFactory(dataset=dataset, parts=parts,
                                   batch_size=cfg.batch_size, seed=cfg.seed)
    store = ClientStateStore(os.path.join(tmpdir, "store"))
    pool = VirtualClientPool(factory, POPULATION, store,
                             resident_limit=workload.driver_config["resident_limit"])

    def model_fn():
        return build_model(cfg.model, num_classes=cfg.num_classes,
                           input_size=cfg.input_size,
                           width_mult=cfg.width_mult, seed=cfg.seed + 1)

    algo = make_algorithm(workload.algorithm, cfg, model_fn, pool.clients())
    runner = ScaleRunner(algo, pool=pool, eval_mode="none",
                         spill_dir=os.path.join(tmpdir, "spills"))
    # Shards are equal-sized, so one materialized client gives every
    # client's training-set size without touching the pool during timing.
    shard_train = factory(0).num_train
    n_train = dict.fromkeys(range(POPULATION), shard_train)

    def step(unit):
        return 0 if runner.run_round(unit).committed else 1
    return Run(workload, algo, step, n_train, runner=runner)
