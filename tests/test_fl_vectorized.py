"""Vectorized cohort executor + process-pool lifetime (DESIGN.md §14).

The contract under test: a :class:`VectorizedRoundExecutor` run — and a
process-pool run whose sync preload was forced onto its per-task-blob
fallback — is *byte-identical* to a
:class:`SerialExecutor` run: same global model bytes, same
``RoundResult`` fields, same fault statistics, same metric counters.
Anything the cohort kernels cannot replicate (unsupported layers,
customised ``local_update``) must fall back to serial, still
byte-identical.  Also covers the executor-lifetime pool (stable worker
PIDs, identity-based rebinding) and the compositions with the
population-scale runner and the async runtime.
"""

from __future__ import annotations

import math
import types

import numpy as np
import pytest

from repro.data import dirichlet_partition
from repro.fl import (AsyncConfig, AsyncFederatedRunner, AsyncProfile,
                      make_federated_clients)
from repro.fl.comm import serialize_state
from repro.fl.faults import FaultModel
from repro.fl.fedavg import FedAvg
from repro.fl.fedprox import FedProx
from repro.fl.parallel import (ProcessPoolRoundExecutor, SerialExecutor,
                               make_executor)
from repro.fl.vectorized import (CohortTrainer, CohortUnsupported,
                                 VectorizedRoundExecutor)
from repro.core.spatl import SPATL
from repro.core.selection_policies import StaticSaliencyPolicy
from repro.obs.metrics import MetricsRegistry, set_registry

N_CLIENTS = 8
ROUNDS = 2


@pytest.fixture
def eight_client_setting(tiny_dataset, tiny_model_fn):
    """(model_fn, make_clients) with an 8-client partition (fresh clients
    per run so local state never leaks between compared runs)."""
    parts = dirichlet_partition(tiny_dataset.y, N_CLIENTS, beta=0.5, seed=7)

    def make_clients():
        return make_federated_clients(tiny_dataset, parts, batch_size=32,
                                      seed=5)

    return tiny_model_fn, make_clients


def _fault_model():
    return FaultModel(drop_prob=0.2, corrupt_prob=0.05, crash_prob=0.1,
                      seed=21)


def _build(algo_name, model_fn, clients, executor, fault_model=None):
    common = dict(lr=0.05, local_epochs=1, sample_ratio=1.0, seed=0,
                  fault_model=fault_model, executor=executor)
    if algo_name == "spatl":
        return SPATL(model_fn, clients,
                     selection_policy=StaticSaliencyPolicy(0.3), **common)
    if algo_name == "fedprox":
        return FedProx(model_fn, clients, **common)
    return FedAvg(model_fn, clients, **common)


def _run(algo_name, setting, executor_fn, fault_model=None):
    model_fn, make_clients = setting
    algo = _build(algo_name, model_fn, make_clients(), executor_fn(),
                  fault_model)
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        results = [algo.run_round(r) for r in range(ROUNDS)]
    finally:
        set_registry(previous)
        algo.close()
    return {
        "results": results,
        "state": serialize_state(algo.global_model.state_dict()),
        "fault_stats": algo.fault_stats.as_dict(),
        "counters": registry.snapshot()["counters"],
    }


def _assert_round_results_equal(lhs, rhs):
    assert len(lhs) == len(rhs)
    for a, b in zip(lhs, rhs):
        for field in ("avg_train_loss", "avg_val_acc"):
            va, vb = getattr(a, field), getattr(b, field)
            assert va == vb or (math.isnan(va) and math.isnan(vb)), field
        for field in ("round_idx", "n_participants", "round_bytes",
                      "n_dropped", "n_retries", "n_corrupt", "n_resamples",
                      "committed"):
            assert getattr(a, field) == getattr(b, field), field


def _assert_equivalent(serial, other):
    assert serial["state"] == other["state"]            # byte-identical
    _assert_round_results_equal(serial["results"], other["results"])
    assert serial["fault_stats"] == other["fault_stats"]
    assert serial["counters"] == other["counters"]


# ------------------------------------------------------------ equivalence
@pytest.mark.parametrize("faults", [False, True], ids=["clean", "faults"])
def test_vectorized_matches_serial(eight_client_setting, faults):
    fault_model = _fault_model() if faults else None
    serial = _run("fedavg", eight_client_setting, SerialExecutor,
                  fault_model)
    vector = _run("fedavg", eight_client_setting, VectorizedRoundExecutor,
                  fault_model)
    _assert_equivalent(serial, vector)


@pytest.mark.parametrize("algo_name", ["spatl", "fedprox"])
def test_vectorized_fallback_matches_serial(eight_client_setting, algo_name):
    """Algorithms outside the cohort envelope run on the fallback,
    byte-identical: SPATL has no hook; FedProx inherits FedAvg's hook but
    overrides ``local_update`` (proximal term), which the hook detects."""
    serial = _run(algo_name, eight_client_setting, SerialExecutor)
    vector = _run(algo_name, eight_client_setting, VectorizedRoundExecutor)
    _assert_equivalent(serial, vector)


def test_fedprox_hook_rejects_overridden_local_update(eight_client_setting):
    model_fn, make_clients = eight_client_setting
    algo = _build("fedprox", model_fn, make_clients(), SerialExecutor())
    try:
        with pytest.raises(CohortUnsupported, match="overrides local_update"):
            algo.cohort_local_updates(algo.clients, 0)
    finally:
        algo.close()


def test_cohort_trainer_rejects_dropout():
    from repro.nn import Dropout, Linear, Sequential

    rng = np.random.default_rng(0)
    model = Sequential(Linear(4, 8, rng=rng), Dropout(0.5, seed=1),
                       Linear(8, 2, rng=rng))
    with pytest.raises(CohortUnsupported, match="dropout"):
        CohortTrainer(types.SimpleNamespace(model_fn=lambda: model))


@pytest.mark.parametrize("faults", [False, True], ids=["clean", "faults"])
def test_preload_fallback_matches_serial(eight_client_setting, faults):
    """A broken preload barrier costs one round of per-task sync blobs,
    not correctness: the round stays byte-identical to serial, and the
    next round preloads once per worker again."""
    fault_model = _fault_model() if faults else None
    serial = _run("fedavg", eight_client_setting, SerialExecutor,
                  fault_model)
    executor = ProcessPoolRoundExecutor(2)
    distribute = executor._distribute_sync
    preloaded = []

    def break_first_preload(pool, sync_blob):
        if not preloaded:
            executor._barrier.abort()   # workers fail their barrier wait
        preloaded.append(distribute(pool, sync_blob))
        return preloaded[-1]

    executor._distribute_sync = break_first_preload
    pooled = _run("fedavg", eight_client_setting, lambda: executor,
                  fault_model)
    assert len(preloaded) >= ROUNDS
    assert preloaded[0] is False and all(preloaded[1:])
    _assert_equivalent(serial, pooled)


# ------------------------------------------------------------ pool life
def test_worker_pids_stable_across_rounds(eight_client_setting):
    """The pool lives for the executor's lifetime: same pool object and
    same worker processes across rounds (replica setup is paid once)."""
    model_fn, make_clients = eight_client_setting
    executor = ProcessPoolRoundExecutor(2)
    algo = _build("fedavg", model_fn, make_clients(), executor)
    try:
        pids = []
        pools = []
        for r in range(3):
            algo.run_round(r)
            pools.append(executor._pool)
            pids.append(frozenset(executor._pool._processes))
        assert pools[0] is pools[1] is pools[2]
        assert pids[0] == pids[1] == pids[2]
        assert executor._pool_algorithm is algo
    finally:
        algo.close()


def test_pool_rebinds_by_identity(eight_client_setting):
    """Rebinding to a different algorithm object rebuilds the pool; the
    binding is a strong identity reference, not an id() key that a
    recycled address could collide with."""
    model_fn, make_clients = eight_client_setting
    executor = ProcessPoolRoundExecutor(2)
    algo1 = _build("fedavg", model_fn, make_clients(), executor)
    try:
        algo1.run_round(0)
        pool1 = executor._pool
        assert executor._pool_algorithm is algo1
        algo2 = _build("fedavg", model_fn, make_clients(), executor)
        algo2.run_round(0)
        assert executor._pool is not pool1
        assert executor._pool_algorithm is algo2
    finally:
        executor.close()


# ------------------------------------------------------------ compose
def test_scale_runner_composes_with_vectorized(tiny_dataset, tiny_model_fn):
    from repro.fl import ScaleRunner

    parts = dirichlet_partition(tiny_dataset.y, N_CLIENTS, beta=0.5, seed=7)

    def run(executor, wave=None):
        clients = make_federated_clients(tiny_dataset, parts, batch_size=32,
                                         seed=5)
        algo = _build("fedavg", tiny_model_fn, clients, executor)
        runner = ScaleRunner(algo, eval_mode="none", wave=wave)
        results = runner.run(ROUNDS)
        state = serialize_state(algo.global_model.state_dict())
        algo.close()
        return state, results, runner.wave

    state_s, results_s, _ = run(SerialExecutor())
    # default wave comes from the executor's preferred_wave hint
    state_v, results_v, wave = run(VectorizedRoundExecutor())
    assert wave == VectorizedRoundExecutor.preferred_wave
    assert state_s == state_v
    _assert_round_results_equal(results_s, results_v)
    # a wave that splits the cohort into uneven sub-cohorts still matches
    state_w, results_w, _ = run(VectorizedRoundExecutor(), wave=3)
    assert state_s == state_w
    _assert_round_results_equal(results_s, results_w)


def test_async_runtime_composes_with_vectorized(eight_client_setting):
    """The async runtime dispatches ``local_update`` directly (no
    executor), so attaching the vectorized executor must not perturb an
    async run."""
    model_fn, make_clients = eight_client_setting

    def run(executor):
        algo = _build("fedavg", model_fn, make_clients(), executor)
        runner = AsyncFederatedRunner(
            algo, AsyncProfile(seed=0),
            AsyncConfig(buffer_k=2, max_inflight=N_CLIENTS,
                        max_queue=N_CLIENTS))
        runner.run(steps=4)
        runner.finalize()
        state = serialize_state(algo.global_model.state_dict())
        counters = dict(runner.counters)
        algo.close()
        return state, counters

    assert run(SerialExecutor()) == run(VectorizedRoundExecutor())


# ------------------------------------------------------------ factory
def test_make_executor_kinds():
    assert isinstance(make_executor(1), SerialExecutor)
    assert isinstance(make_executor(4, kind="serial"), SerialExecutor)
    pooled = make_executor(2, kind="process")
    assert isinstance(pooled, ProcessPoolRoundExecutor)
    pooled.close()
    solo = make_executor(1, kind="vectorized")
    assert isinstance(solo, VectorizedRoundExecutor)
    assert isinstance(solo.fallback, SerialExecutor)
    solo.close()
    fanned = make_executor(2, kind="vectorized")
    assert isinstance(fanned.fallback, ProcessPoolRoundExecutor)
    fanned.close()
    with pytest.raises(ValueError, match="unknown executor kind"):
        make_executor(2, kind="threads")
    with pytest.raises(ValueError):
        make_executor(1, kind="process")
