"""Process-pool lifetime, forced preload fallback, compositions (DESIGN.md §14).

The contract under test: a ``make_executor(2)`` run — including one whose
sync preload was forced onto its per-task-blob fallback — is
*byte-identical* to a :class:`SerialExecutor` run: same global model
bytes, same ``RoundResult`` fields, same fault statistics, same metric
counters.  Also covers the executor-lifetime pool (stable worker PIDs,
identity-based rebinding) and the compositions with the population-scale
runner and the async runtime.

The file and several test names predate the removal of the vectorized
cohort engine this module was written for.  The ids are kept (the
tier-1 floor lists them) and every ``test_vectorized_*`` /
``*_with_vectorized`` case now asserts the same equalities against
serial for the surviving engine; folding them into
``tests/test_fl_parallel.py`` is left to a follow-up.
"""

from __future__ import annotations

import math

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


def _pool():
    return make_executor(2)


def _fault_model():
    return FaultModel(drop_prob=0.2, corrupt_prob=0.05, crash_prob=0.1,
                      seed=21)


def _build(algo_name, model_fn, clients, executor, fault_model=None,
           **extra):
    common = dict(lr=0.05, local_epochs=1, sample_ratio=1.0, seed=0,
                  fault_model=fault_model, executor=executor, **extra)
    if algo_name == "spatl":
        return SPATL(model_fn, clients,
                     selection_policy=StaticSaliencyPolicy(0.3), **common)
    if algo_name == "fedprox":
        return FedProx(model_fn, clients, **common)
    return FedAvg(model_fn, clients, **common)


def _run(algo_name, setting, executor_fn, fault_model=None, **extra):
    model_fn, make_clients = setting
    algo = _build(algo_name, model_fn, make_clients(), executor_fn(),
                  fault_model, **extra)
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
    pooled = _run("fedavg", eight_client_setting, _pool, fault_model)
    _assert_equivalent(serial, pooled)


@pytest.mark.parametrize("algo_name", ["spatl", "fedprox"])
def test_vectorized_fallback_matches_serial(eight_client_setting, algo_name):
    """Algorithms with per-step gradient corrections (SPATL's control
    variates, FedProx's proximal term) run in the workers, byte-identical."""
    serial = _run(algo_name, eight_client_setting, SerialExecutor)
    pooled = _run(algo_name, eight_client_setting, _pool)
    _assert_equivalent(serial, pooled)


def test_fedprox_hook_rejects_overridden_local_update(eight_client_setting):
    """Workers run the subclass's own ``local_update``: FedProx in the pool
    under faults equals serial FedProx, and is not FedAvg's result."""
    serial = _run("fedprox", eight_client_setting, SerialExecutor,
                  _fault_model())
    pooled = _run("fedprox", eight_client_setting, _pool, _fault_model())
    _assert_equivalent(serial, pooled)
    fedavg = _run("fedavg", eight_client_setting, _pool, _fault_model())
    assert pooled["state"] != fedavg["state"]


def test_cohort_trainer_rejects_dropout(eight_client_setting):
    """A fast path that cannot replicate active dropout must decline the
    whole run, not approximate it: ``compile_steps`` on a model with
    ``p > 0`` captures and replays nothing and equals the eager run."""
    from repro.nn import Dropout, Sequential

    tiny_model_fn, make_clients = eight_client_setting

    def model_fn():
        model = tiny_model_fn()
        model.predictor = Sequential(Dropout(0.5, seed=1), model.predictor)
        return model

    setting = (model_fn, make_clients)
    eager = _run("fedavg", setting, SerialExecutor)
    compiled = _run("fedavg", setting, SerialExecutor, compile_steps=True)
    _assert_equivalent(eager, compiled)
    assert not [k for k in compiled["counters"] if k.startswith("compile.")]


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

    state_s, results_s, wave_s = run(SerialExecutor())
    assert wave_s == 1
    # default wave keeps 2x the worker count in flight
    state_p, results_p, wave = run(_pool())
    assert wave == 4
    assert state_s == state_p
    _assert_round_results_equal(results_s, results_p)
    # a wave that splits the cohort into uneven sub-cohorts still matches
    state_w, results_w, _ = run(_pool(), wave=3)
    assert state_s == state_w
    _assert_round_results_equal(results_s, results_w)


def test_async_runtime_composes_with_vectorized(eight_client_setting):
    """The async runtime dispatches ``local_update`` directly (no
    executor), so attaching a process pool must not perturb an async
    run."""
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

    assert run(SerialExecutor()) == run(_pool())


# ------------------------------------------------------------ factory
def test_make_executor_kinds():
    """``workers`` is the only engine selector."""
    assert type(make_executor(1)) is SerialExecutor
    for workers in (2, 3):
        pooled = make_executor(workers)
        assert type(pooled) is ProcessPoolRoundExecutor
        assert pooled.workers == workers
        pooled.close()
    for retired in ({"kind": "process"}, {"broadcast": False},
                    {"mp_context": "spawn"}):
        with pytest.raises(TypeError):
            make_executor(2, **retired)
