"""Parallel round-execution engine: equivalence, pool life, crashes.

The contract under test (DESIGN.md §9, §14): a ``ProcessPoolRoundExecutor``
run is *byte-identical* to a ``SerialExecutor`` run — same global model
bytes, same ``RoundResult`` fields, same fault statistics, same metric
counters, and the same span multiset when traced — because all RNG is
order-independent and the parent commits worker results in cohort order.
That holds whether a worker reloads the round's sync file every collect
or sits collects out, under ``fork`` and ``spawn`` alike.  Also covers
the executor-lifetime pool (stable worker PIDs, identity-based
rebinding, the sync directory's lifetime) and the compositions with the
population-scale runner and the async runtime.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import multiprocessing as mp
import os
import pickle
import types
import warnings
import weakref

import numpy as np
import pytest

from repro.data import SyntheticCIFAR10, dirichlet_partition
from repro.fl import (AsyncConfig, AsyncFederatedRunner, AsyncProfile,
                      ClientStateStore, ScaleRunner, ShardedClientFactory,
                      VirtualClientPool, make_federated_clients)
from repro.fl.comm import (CommLedger, PayloadError, decode_update,
                           encode_update, serialize_state)
from repro.fl.faults import FaultModel
from repro.fl.fedavg import FedAvg
from repro.fl.parallel import (ProcessPoolRoundExecutor, SerialExecutor,
                               _pickle_algorithm, make_executor)
from repro.fl.resilience import (ClientDropped, StragglerTimeout,
                                 TransferCorrupted, WorkerCrashed)
from repro.fl.scale import decode_client_state

from tests import matrix

N_CLIENTS = 8
ROUNDS = 2


@pytest.fixture
def eight_client_setting():
    """(model_fn, make_clients) with the 8-client partition.

    Clients are rebuilt per run so persistent local state (predictors,
    control variates, top-k residuals) never leaks between the serial
    and parallel runs being compared.
    """
    return matrix.model_fn("eight"), lambda: matrix.clients("eight")


def _assert_round_results_equal(lhs, rhs):
    """RoundResult equality, NaN-tolerant for loss and accuracy (a
    ``ScaleRunner`` with ``eval_mode="none"`` reports NaN accuracy)."""
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
    assert serial.model == other.model              # byte-identical
    _assert_round_results_equal(serial.results, other.results)
    assert serial.fault_stats == other.fault_stats
    assert serial.counters == other.counters
    assert serial.ledger == other.ledger


# ------------------------------------------------------------ equivalence
@pytest.mark.parametrize("algo_name", ["fedavg", "spatl", "fedprox"])
@pytest.mark.parametrize("faults", [False, True], ids=["clean", "faults"])
def test_parallel_matches_serial(algo_name, faults):
    tag = "+faults" if faults else ""
    _assert_equivalent(matrix.reference(f"parallel/{algo_name}-serial{tag}"),
                       matrix.reference(f"parallel/{algo_name}-pool{tag}"))


def test_fedprox_hook_rejects_overridden_local_update():
    """Workers run the subclass's own ``local_update``: FedProx in the pool
    is not FedAvg's result (that it equals serial FedProx is
    ``test_parallel_matches_serial[faults-fedprox]``)."""
    assert matrix.reference("parallel/fedprox-pool+faults").model \
        != matrix.reference("parallel/fedavg-pool+faults").model


def test_cohort_trainer_rejects_dropout(eight_client_setting, tmp_path):
    """A fast path that cannot replicate active dropout must decline the
    whole run, not approximate it: ``compile_steps`` on a model with
    ``p > 0`` captures and replays nothing, says why for every step, and
    otherwise equals the eager run."""
    from repro.nn import Dropout, Sequential

    tiny_model_fn, make_clients = eight_client_setting

    def model_fn():
        model = tiny_model_fn()
        model.predictor = Sequential(Dropout(0.5, seed=1), model.predictor)
        return model

    def run(compile_steps):
        return matrix.play(matrix.Sync(2), lambda: matrix.algorithm(
            "fedavg", model_fn, make_clients(), executor=make_executor(1),
            compile_steps=compile_steps), tmp_path)

    eager, compiled = run(False), run(True)
    compiler = {k: v for k, v in compiled.counters.items()
                if k.startswith("compile.")}
    assert list(compiler) == ["compile.eager_steps{reason=dropout}"]
    assert compiler["compile.eager_steps{reason=dropout}"] > 0
    _assert_equivalent(eager, dataclasses.replace(compiled, counters={
        k: v for k, v in compiled.counters.items() if k not in compiler}))


def test_idle_workers_reread_the_sync_file():
    """Cohorts of two on three workers: a worker that sat a collect out
    sees its task's version jump and reads the newest sync file (the
    ``ScaleRunner`` case is in ``test_scale_runner_composes_with_vectorized``)."""
    _assert_equivalent(matrix.reference("parallel/fedavg-idle"),
                       matrix.reference("parallel/fedavg-idle-workers3"))


@pytest.mark.parametrize("algo_name", ["fedavg", "spatl"])
def test_spawn_pool_matches_serial(algo_name, tmp_path):
    """Under ``spawn`` each worker unpickles an in-band replica and reads
    the same sync file: byte-identical to serial."""
    cell = matrix.CELL[f"parallel/{algo_name}-pool"]

    def spawned():
        algo = matrix.build(cell, tmp_path)
        algo.executor._mp_context = mp.get_context("spawn")
        return algo

    _assert_equivalent(matrix.reference(f"parallel/{algo_name}-serial"),
                       matrix.play(cell.driver, spawned, tmp_path))


def test_parallel_spatl_local_state_round_trips():
    """Predictors/variates mutated in workers land back on parent clients."""
    serial = matrix.reference("parallel/spatl-serial").clients
    parallel = matrix.reference("parallel/spatl-pool").clients
    for cs, cp in zip(map(decode_client_state, serial),
                      map(decode_client_state, parallel)):
        assert set(cs) == set(cp)
        assert cs["predictor"].keys() == cp["predictor"].keys()
        for name, value in cs["predictor"].items():
            np.testing.assert_array_equal(value, cp["predictor"][name])
        for name, value in cs["c_i"].values.items():
            np.testing.assert_array_equal(value, cp["c_i"].values[name])


# ------------------------------------------------------------ pool life
def test_worker_pids_stable_across_rounds(eight_client_setting):
    """The pool lives for the executor's lifetime: same pool object and
    same worker processes across rounds (replica setup is paid once)."""
    model_fn, make_clients = eight_client_setting
    executor = ProcessPoolRoundExecutor(2)
    algo = matrix.algorithm("fedavg", model_fn, make_clients(),
                            executor=executor)
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
    recycled address could collide with.  Each pool owns one sync
    directory: rebinding removes the old one, ``close`` the last."""
    model_fn, make_clients = eight_client_setting
    executor = ProcessPoolRoundExecutor(2)
    algo1 = matrix.algorithm("fedavg", model_fn, make_clients(),
                             executor=executor)
    try:
        algo1.run_round(0)
        pool1, dir1 = executor._pool, executor._sync_dir.name
        assert executor._pool_algorithm is algo1
        assert os.path.isfile(os.path.join(dir1, "sync"))
        algo2 = matrix.algorithm("fedavg", model_fn, make_clients(),
                                 executor=executor)
        algo2.run_round(0)
        assert executor._pool is not pool1
        assert executor._pool_algorithm is algo2
        dir2 = executor._sync_dir.name
        assert dir2 != dir1 and not os.path.exists(dir1)
        assert os.listdir(dir2) == ["sync"]
    finally:
        executor.close()
    assert executor._sync_dir is None and not os.path.exists(dir2)
    executor.close()                                   # idempotent


# ------------------------------------------------------------ replica
def _reachable(root, skip=()):
    """Every object reachable from ``root`` through instance attributes,
    slots, dict values and sequence items, each once.  Attributes are read
    with ``object.__getattribute__`` so a forwarding proxy is never
    materialized by the walk; objects in ``skip`` are not entered."""
    seen = {id(o) for o in skip}
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        yield obj
        if isinstance(obj, np.ndarray):
            continue
        if isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        try:
            stack.extend(object.__getattribute__(obj, "__dict__").values())
        except AttributeError:
            pass
        for cls in type(obj).__mro__:
            slots = cls.__dict__.get("__slots__", ())
            for slot in (slots,) if isinstance(slots, str) else slots:
                try:
                    stack.append(object.__getattribute__(obj, slot))
                except AttributeError:
                    pass


def _layout(arr):
    return (arr.__array_interface__["data"][0], arr.shape, arr.strides,
            arr.dtype.str)


def _out_of_band_replica(algo, blob_share=0.05):
    """Dump and load ``algo`` as a fork-pool worker does; check that the
    replica's arrays are the original's memory and the blob is small
    (under ``blob_share`` of the out-of-band array bytes)."""
    buffers = []
    blob = _pickle_algorithm(algo, buffers)
    replica = pickle.loads(blob, buffers=buffers)
    assert algo.model_fn is not None and algo.executor is not None
    array_bytes = sum(memoryview(b).nbytes for b in buffers)
    assert len(blob) < blob_share * array_bytes, (len(blob), array_bytes)
    originals = {_layout(a) for a in _reachable(algo)
                 if isinstance(a, np.ndarray)}
    leaves = [a for a in _reachable(replica)
              if isinstance(a, np.ndarray) and a.size]
    assert len(leaves) >= len(buffers) > 0
    for arr in leaves:
        assert _layout(arr) in originals, _layout(arr)
    assert replica.executor is None and replica.model_fn is None
    return replica


@pytest.mark.parametrize("algo_name", ["fedavg", "spatl"])
def test_replica_arrays_are_views_of_the_original(eight_client_setting,
                                                  algo_name):
    model_fn, make_clients = eight_client_setting
    algo = matrix.algorithm(algo_name, model_fn, make_clients(),
                            executor=make_executor(1), compile_steps=True)
    algo.run_round(0)                 # trained state and captured plans
    assert algo.step_compiler.arena_bytes() > 0
    replica = _out_of_band_replica(algo)
    assert replica.step_compiler.arena_bytes() == 0
    assert len(replica.step_compiler._models) == 0


def test_virtual_pool_replica_is_frozen_and_cold(tmp_path, tiny_dataset,
                                                 tiny_setting):
    model_fn, parts = tiny_setting
    factory = ShardedClientFactory(dataset=tiny_dataset, parts=parts,
                                   batch_size=32, seed=5)
    pool = VirtualClientPool(factory, len(parts),
                             ClientStateStore(tmp_path / "store"))
    algo = FedAvg(model_fn, pool.clients(), lr=0.05, local_epochs=1,
                  sample_ratio=1.0, seed=0, compile_steps=True,
                  executor=make_executor(1))
    algo.run_round(0)
    assert pool.resident > 0 and not pool.store.frozen
    # The replica carries no samples, so its arrays are little more than
    # the model's (~0.2 MB); the blob is ~0.03 MB whatever the dataset.
    replica = _out_of_band_replica(algo, blob_share=0.25)
    replica_pool = replica.clients[0]._pool
    try:
        assert replica_pool.factory.dataset is None
        assert replica_pool.store.frozen
        assert replica_pool.resident == 0
        assert len(replica.step_compiler._models) == 0
        assert replica.executor is None
    finally:
        replica_pool.store.close()
        pool.store.close()


def test_fork_workers_read_shards_from_the_samples_file(tmp_path,
                                                        tiny_model_fn):
    """With the caller's dataset gone, two forked workers train every
    client from the samples file: bitwise the serial eager run."""
    ds = SyntheticCIFAR10(n_samples=160, size=12, seed=2)
    parts = dirichlet_partition(ds.y, 4, beta=0.5, seed=7)
    eager = matrix.algorithm(
        "fedavg", tiny_model_fn,
        make_federated_clients(ds, parts, batch_size=32, seed=5),
        executor=make_executor(1))
    factory = ShardedClientFactory(dataset=ds, parts=parts, batch_size=32,
                                   seed=5)
    pool = VirtualClientPool(factory, len(parts),
                             ClientStateStore(tmp_path / "store"),
                             resident_limit=2)
    x_ref = weakref.ref(ds.x)
    del ds
    gc.collect()
    assert x_ref() is None
    pooled = matrix.algorithm("fedavg", tiny_model_fn, pool.clients(),
                              executor=make_executor(2))
    try:
        for r in range(ROUNDS):
            eager.run_round(r)
            ScaleRunner(pooled, pool=pool,
                        spill_dir=tmp_path / "spills").run_round(r)
    finally:
        eager.close()
        pooled.close()
    assert serialize_state(pooled.global_model.state_dict()) \
        == serialize_state(eager.global_model.state_dict())


def test_pool_keeps_no_replica_after_fork(eight_client_setting):
    """Once the workers are forked the parent drops the buffer list, and
    the blob it keeps in the pool's ``initargs`` is array-free."""
    model_fn, make_clients = eight_client_setting
    algo = matrix.algorithm("fedavg", model_fn, make_clients(),
                            executor=make_executor(2))
    try:
        algo.run_round(0)
        held = list(_reachable(algo.executor, skip=[algo]))
    finally:
        algo.close()
    assert not [o for o in held if isinstance(o, pickle.PickleBuffer)]
    blobs = [len(o) for o in held if isinstance(o, (bytes, bytearray))]
    assert max(blobs, default=0) < 64 * 1024, blobs


# ------------------------------------------------------------ compose
def test_scale_runner_composes_with_vectorized(eight_client_setting):
    model_fn, make_clients = eight_client_setting

    def run(workers, wave=None):
        algo = matrix.algorithm("fedavg", model_fn, make_clients(),
                                executor=make_executor(workers))
        runner = ScaleRunner(algo, eval_mode="none", wave=wave)
        results = runner.run(ROUNDS)
        state = serialize_state(algo.global_model.state_dict())
        algo.close()
        return (state, results, runner.wave,
                (algo.ledger.uplink, algo.ledger.downlink))

    state_s, results_s, wave_s, ledger_s = run(1)
    assert wave_s == 1
    # default wave keeps 2x the worker count in flight
    state_p, results_p, wave, _ = run(2)
    assert wave == 4
    assert state_s == state_p
    _assert_round_results_equal(results_s, results_p)
    # a wave that splits the cohort into uneven sub-cohorts still matches,
    # and so do waves smaller than the pool (idle workers re-read the
    # sync file when they next get a client)
    for workers, wave in ((2, 3), (3, 2)):
        state_w, results_w, _, ledger_w = run(workers, wave=wave)
        assert state_s == state_w
        _assert_round_results_equal(results_s, results_w)
        assert ledger_s == ledger_w


def test_async_runtime_composes_with_vectorized(eight_client_setting):
    """The async runtime dispatches ``local_update`` directly (no
    executor), so attaching a process pool must not perturb an async
    run."""
    model_fn, make_clients = eight_client_setting

    def run(workers):
        algo = matrix.algorithm("fedavg", model_fn, make_clients(),
                                executor=make_executor(workers))
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

    assert run(1) == run(2)


# ------------------------------------------------------------ obs merge
def test_eval_only_parent_stack_stops_growing(eight_client_setting):
    """With two workers the parent only evaluates: once round 0 has seen
    every client's validation batches, the largest included, later rounds
    never re-base its transient stack."""
    from repro.tensor import workspace
    workspace.reset()
    model_fn, make_clients = eight_client_setting
    algo = matrix.algorithm("fedavg", model_fn, make_clients(),
                            executor=make_executor(2))
    stack = workspace.transient
    try:
        algo.run_round(0)
        held = (stack.generation, stack.nbytes)
        assert held[1] > 0
        for r in (1, 2):
            algo.run_round(r)
            assert (stack.generation, stack.nbytes) == held, r
    finally:
        algo.close()


def test_obs_merge_matches_serial():
    """Worker spans/metrics merged into the parent sum to serial counts
    (the faults give nonzero worker-side attempt counters)."""
    serial = matrix.reference("merge/fedavg-serial")
    parallel = matrix.reference("merge/fedavg-pool")
    assert serial.counters == parallel.counters
    assert serial.extra["trace"]["spans"] == parallel.extra["trace"]["spans"]
    # Codec spans carry byte counts; their totals must agree (and match
    # the ledger, DESIGN.md §17): the pool's sync-blob and update framing
    # runs the same pure codec but is storage, not traffic.
    assert serial.extra["trace"]["codec"] == parallel.extra["trace"]["codec"]


def test_tracer_absorb_depth_and_records():
    from repro.obs.trace import Tracer
    worker = Tracer()
    with worker.span("download", client=3):
        with worker.span("deserialize"):
            pass
    parent = Tracer()
    with parent.span("round", round=0):
        parent.absorb(worker.records(), base_depth=parent.depth)
    depths = {s.name: s.depth for s in parent.spans}
    assert depths == {"round": 0, "download": 1, "deserialize": 2}
    names = {s.name for s in parent.spans}
    assert names == {"round", "download", "deserialize"}
    assert [s.attrs for s in parent.spans if s.name == "download"] \
        == [{"client": 3}]


# ------------------------------------------------------------ crashes
class ExitingFedAvg(FedAvg):
    """FedAvg whose client 2 kills its whole worker process in round 0."""

    name = "exiting-fedavg"

    def local_update(self, client, round_idx):
        if client.client_id == 2 and round_idx == 0:
            os._exit(13)
        return super().local_update(client, round_idx)


def test_worker_crash_raises_without_fault_model(eight_client_setting):
    model_fn, make_clients = eight_client_setting
    algo = ExitingFedAvg(model_fn, make_clients(), lr=0.05, local_epochs=1,
                         sample_ratio=1.0, seed=0,
                         executor=ProcessPoolRoundExecutor(2))
    try:
        with pytest.raises(WorkerCrashed):
            algo.run_round(0)
    finally:
        algo.close()


def test_worker_crash_drops_client_with_fault_model(eight_client_setting):
    """With faults configured the crash degrades the round, then the pool
    rebuilds and the next round runs clean."""
    model_fn, make_clients = eight_client_setting
    algo = ExitingFedAvg(model_fn, make_clients(), lr=0.05, local_epochs=1,
                         sample_ratio=1.0, seed=0,
                         fault_model=FaultModel(seed=1),
                         executor=ProcessPoolRoundExecutor(2))
    try:
        r0 = algo.run_round(0)
        assert r0.n_dropped >= 1                 # the pool-breaking crash
        assert r0.n_participants + r0.n_dropped == N_CLIENTS
        r1 = algo.run_round(1)                   # rebuilt pool, no crash
        assert r1.n_dropped == 0
        assert r1.n_participants == N_CLIENTS
    finally:
        algo.close()


def test_worker_crashed_is_client_dropped():
    failure = WorkerCrashed(4, 2, "worker died")
    assert isinstance(failure, ClientDropped)
    assert failure.client_id == 4 and failure.round_idx == 2


def test_failures_survive_pickling():
    import pickle
    for failure in (WorkerCrashed(1, 2, "gone"),
                    StragglerTimeout(3, 4, 9.0, 5.0),
                    TransferCorrupted(5, 6, "up", ValueError("crc"))):
        clone = pickle.loads(pickle.dumps(failure))
        assert type(clone) is type(failure)
        assert clone.client_id == failure.client_id
        assert clone.round_idx == failure.round_idx
        assert str(clone) == str(failure)


# ------------------------------------------------------------ codec
def test_update_codec_round_trips_losslessly():
    update = {
        "salient": {"conv1": (np.arange(3, dtype=np.int32),
                              np.random.default_rng(0).normal(size=(3, 4))
                              .astype(np.float32))},
        "dense": {"bn.bias": np.linspace(-1, 1, 5)},
        "n": 100, "train_loss": 0.1 + 0.2, "steps": 7,
        "flag": True, "nothing": None, "tag": "spatl",
        "np_scalar": np.float64(1 / 3),
        "nested": [1, (2.5, "x"), {"deep": np.ones(2, dtype=np.float16)}],
    }
    decoded = decode_update(encode_update(update))
    assert decoded["n"] == 100 and decoded["steps"] == 7
    assert decoded["train_loss"] == update["train_loss"]     # exact float
    assert decoded["flag"] is True and decoded["nothing"] is None
    assert decoded["tag"] == "spatl"
    assert type(decoded["np_scalar"]) is np.float64
    assert decoded["np_scalar"] == update["np_scalar"]
    idx, rows = decoded["salient"]["conv1"]
    assert idx.dtype == np.int32 and rows.dtype == np.float32
    np.testing.assert_array_equal(idx, update["salient"]["conv1"][0])
    np.testing.assert_array_equal(rows, update["salient"]["conv1"][1])
    np.testing.assert_array_equal(decoded["dense"]["bn.bias"],
                                  update["dense"]["bn.bias"])
    assert isinstance(decoded["nested"][1], tuple)
    assert decoded["nested"][1] == (2.5, "x")
    assert decoded["nested"][2]["deep"].dtype == np.float16


def test_update_codec_rejects_bad_trees():
    with pytest.raises(TypeError):
        encode_update({1: np.zeros(2)})          # non-str dict key
    with pytest.raises(TypeError):
        encode_update({"x": object()})           # unframable leaf
    with pytest.raises(PayloadError):
        decode_update(serialize_state({"t0": np.zeros(2)}))  # no manifest


def test_comm_ledger_merge():
    a, b = CommLedger(), CommLedger()
    a.record_up(0, 1, 100)
    b.record_up(0, 1, 50)
    b.record_down(1, 2, 10)
    a.merge(b)
    assert a.uplink[0][1] == 150
    assert a.downlink[1][2] == 10
    assert a.total_bytes() == 160


# ------------------------------------------------------------ loss fix
class LosslessFedAvg(FedAvg):
    """FedAvg whose updates (wrongly) carry no train_loss key."""

    name = "lossless-fedavg"

    def local_update(self, client, round_idx):
        update = super().local_update(client, round_idx)
        del update["train_loss"]
        return update


def test_missing_train_loss_warns_once(eight_client_setting):
    model_fn, make_clients = eight_client_setting
    LosslessFedAvg._warned_lossless_update = False   # isolate from reruns
    algo = LosslessFedAvg(model_fn, make_clients(), lr=0.05, local_epochs=1,
                          sample_ratio=1.0, seed=0)
    with pytest.warns(RuntimeWarning, match="train_loss"):
        r0 = algo.run_round(0)
    assert math.isnan(r0.avg_train_loss)
    with warnings.catch_warnings():
        warnings.simplefilter("error")            # any warning -> failure
        r1 = algo.run_round(1)                    # warned once, not per-round
    assert math.isnan(r1.avg_train_loss)


def test_avg_loss_ignores_non_finite(eight_client_setting):
    """A cohort mixing real and missing losses averages the finite ones."""
    model_fn, make_clients = eight_client_setting

    class HalfLossFedAvg(FedAvg):
        name = "half-loss-fedavg"

        def local_update(self, client, round_idx):
            update = super().local_update(client, round_idx)
            if client.client_id % 2 == 0:
                del update["train_loss"]
            return update

    algo = HalfLossFedAvg(model_fn, make_clients(), lr=0.05, local_epochs=1,
                          sample_ratio=1.0, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = algo.run_round(0)
    assert math.isfinite(result.avg_train_loss)


# ------------------------------------------------------------ factory
def test_make_executor_dispatch():
    for workers in (0, -2):     # out of range is an error, not serial
        with pytest.raises(ValueError, match=f"got {workers}"):
            make_executor(workers)
    assert isinstance(make_executor(1), SerialExecutor)
    pooled = make_executor(2)
    assert isinstance(pooled, ProcessPoolRoundExecutor)
    pooled.close()                                # never started: no-op
    with pytest.raises(ValueError):
        ProcessPoolRoundExecutor(1)


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
    with pytest.raises(TypeError):
        ProcessPoolRoundExecutor(2, broadcast=False)
