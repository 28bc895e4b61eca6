"""Unit tests: checkpoint save/resume for FL runs (sync, async, scale)."""

import json

import numpy as np
import pytest

from repro.core.gradient_control import ControlVariate
from repro.fl import (AsyncConfig, AsyncFederatedRunner, AsyncProfile,
                      FaultModel, ScaleRunner, serialize_state,
                      state_fingerprint)
from repro.fl.checkpoint import (FORMAT, load_async_checkpoint,
                                 load_checkpoint, save_async_checkpoint,
                                 save_checkpoint)
from repro.fl.stub import make_stub

from tests import matrix

# --------------------------------------------------------------------------
# Resume identity: algorithm x driver (``matrix.params("resume")``).  An
# interrupted run restored into a freshly constructed algorithm must end in
# the uninterrupted run's state: server state (arrays, key order, dtypes,
# fingerprint), ledger, fault stats and every client's ``local_state``.
# The sync reference saves its checkpoint itself after round 1 of 2,
# through ``matrix.save_unchanged``: it asserts the save left the run as
# it was, so the saver, continued, is the straight run.  The async
# reference is a straight run; its interrupted run saves mid-buffer.
# --------------------------------------------------------------------------


def _resume_sync(cell, ref, path, tmp_path):
    path.write_bytes(ref.extra["checkpoint"])
    resumed = matrix.build(cell, tmp_path)
    load_checkpoint(resumed, path)
    assert resumed.rounds_completed == 1
    resumed.run(rounds=1)
    return resumed


def _resume_async(cell, ref, path, tmp_path):
    """Save mid-buffer: jobs in flight, updates parked, clock mid-step."""
    first = matrix.build(cell, tmp_path)
    first.pump(9)
    assert first.buffer or first.inflight
    save_async_checkpoint(first, path)
    resumed = matrix.build(cell, tmp_path)
    load_async_checkpoint(resumed, path)
    resumed.run(steps=4 - resumed.server_step)
    assert resumed.counters == ref.extra["counters"]
    return resumed


def _resume_scale(cell, ref, path, tmp_path):
    """Save mid-round: half the cohort folded, the rest still to run.  The
    virtual population's client state resumes from the spill store's
    manifest rather than the .npz, so the interrupted run and the resumed
    one share a store root."""
    first = matrix.build(cell, tmp_path)
    first.run_round(0)
    first.run_round_partial(1, 2)
    if cell.faults:
        stats = first._pending.stats   # a client has already failed
        assert stats._drops and stats._delivered and stats.n_retries
    first.save_round_checkpoint(path)
    resumed = matrix.build(cell, tmp_path)
    resumed.load_round_checkpoint(path)
    assert resumed.resume_round().round_idx == 1
    return resumed


def _assert_same_tree(ref, got, path):
    if isinstance(ref, ControlVariate):
        assert isinstance(got, ControlVariate), path
        ref, got = ref.values, got.values
    if isinstance(ref, dict):
        assert list(ref) == list(got), path
        for key in ref:
            _assert_same_tree(ref[key], got[key], f"{path}.{key}")
    elif isinstance(ref, np.ndarray):
        assert ref.dtype == got.dtype, path
        np.testing.assert_array_equal(got, ref, err_msg=path)
    else:
        assert ref == got, path


@pytest.mark.parametrize("cell", matrix.params("resume"))
def test_resume_identity(cell, tmp_path):
    ref = matrix.reference(cell)
    path = tmp_path / "ckpt.npz"
    resume = {matrix.Sync: _resume_sync, matrix.Async: _resume_async,
              matrix.Scale: _resume_scale}[type(cell.driver)]
    got = matrix.freeze(resume(cell, ref, path, tmp_path))
    assert got.server == ref.server         # arrays, key order and dtypes
    assert got.fingerprint == ref.fingerprint
    assert got.ledger == ref.ledger
    assert got.rounds_completed == ref.rounds_completed
    assert got.fault_stats == ref.fault_stats
    assert got.clients == ref.clients       # every client's local_state


class TestCheckpointFormat:
    """A file that is not a complete current-format checkpoint is one
    ``ValueError`` naming the file — from every loader."""

    def _saved(self, tmp_path):
        algo = make_stub(n_clients=4, seed=2)
        algo.run(rounds=1)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(algo, path)
        return path

    def _load_sync(self, path):
        load_checkpoint(make_stub(n_clients=4, seed=2), path)

    def _load_async(self, path):
        load_async_checkpoint(
            AsyncFederatedRunner(make_stub(n_clients=4, seed=2),
                                 AsyncProfile(seed=2), AsyncConfig()), path)

    def _load_scale(self, path):
        runner = ScaleRunner(make_stub(n_clients=4, seed=2),
                             eval_mode="none")
        try:
            runner.load_round_checkpoint(path)
        finally:
            runner.close()

    def test_format_number_is_written(self, tmp_path):
        with np.load(self._saved(tmp_path)) as data:
            manifest = json.loads(bytes(data["__manifest__"]).decode())
        assert manifest["format"] == FORMAT

    @pytest.mark.parametrize("loader", ["sync", "async", "scale"])
    def test_truncated_file_rejected(self, tmp_path, loader):
        path = self._saved(tmp_path)
        path.write_bytes(path.read_bytes()[:path.stat().st_size // 2])
        with pytest.raises(ValueError, match=r"ckpt\.npz.*format-2"):
            getattr(self, f"_load_{loader}")(path)

    def test_missing_manifest_rejected(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        np.savez_compressed(path, **{"server.model.w": np.zeros(3)})
        with pytest.raises(ValueError, match=r"ckpt\.npz.*__manifest__"):
            self._load_sync(path)

    def test_old_layout_rejected(self, tmp_path):
        # the pre-format layout: prefix-flattened arrays, no format entry
        path = tmp_path / "ckpt.npz"
        manifest = {"algorithm": "stubavg", "rounds_completed": 1,
                    "n_clients": 4, "includes_clients": True,
                    "client_state_keys": {}, "fault_stats": {},
                    "ledger": {"uplink": {}, "downlink": {}}}
        np.savez_compressed(
            path, **{"global.w": np.zeros(3),
                     "__manifest__": np.frombuffer(
                         json.dumps(manifest).encode(), dtype=np.uint8)})
        with pytest.raises(ValueError,
                           match=r"ckpt\.npz.*format 1, expected 2"):
            self._load_sync(path)


class TestCheckpointRoundtrip:
    def test_fedavg_state_restored(self, tmp_path):
        algo = matrix.algorithm("fedavg")
        algo.run(rounds=2)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(algo, path)

        fresh = matrix.algorithm("fedavg")
        load_checkpoint(fresh, path)
        assert fresh.rounds_completed == 2
        for (n, p1), (_, p2) in zip(algo.global_model.named_parameters(),
                                    fresh.global_model.named_parameters()):
            np.testing.assert_array_equal(p1.data, p2.data, err_msg=n)
        assert fresh.ledger.total_bytes() == algo.ledger.total_bytes()

    def test_scaffold_variates_roundtrip(self, tmp_path):
        algo = matrix.algorithm("scaffold")
        algo.run(rounds=2)
        path = tmp_path / "sc.npz"
        save_checkpoint(algo, path)
        fresh = matrix.algorithm("scaffold")
        load_checkpoint(fresh, path)
        for name, v in algo.c_global.items():
            np.testing.assert_array_equal(fresh.c_global[name], v,
                                          err_msg=name)
        # per-client variates restored too
        for c_old, c_new in zip(algo.clients, fresh.clients):
            if "c_i" in c_old.local_state:
                for k, v in c_old.local_state["c_i"].items():
                    np.testing.assert_array_equal(
                        c_new.local_state["c_i"][k], v)

    def test_spatl_full_state_roundtrip(self, tmp_path):
        algo = matrix.algorithm("spatl")
        algo.run(rounds=2)
        path = tmp_path / "spatl.npz"
        save_checkpoint(algo, path)
        fresh = matrix.algorithm("spatl")
        load_checkpoint(fresh, path)
        # encoder control variate (ControlVariate object) restored
        for name in algo.c_global.names():
            np.testing.assert_array_equal(fresh.c_global[name],
                                          algo.c_global[name], err_msg=name)
        # private predictors restored per client
        for c_old, c_new in zip(algo.clients, fresh.clients):
            if "predictor" in c_old.local_state:
                for k, v in c_old.local_state["predictor"].items():
                    np.testing.assert_array_equal(
                        c_new.local_state["predictor"][k], v, err_msg=k)
        # resumed run proceeds without error and continues the counter
        fresh.run(rounds=1)
        assert fresh.rounds_completed == 3

    def test_fault_stats_roundtrip(self, tmp_path):
        algo = matrix.algorithm(
            "fedavg", fault_model=FaultModel(drop_prob=0.5, seed=2))
        algo.run(rounds=2)
        path = tmp_path / "faulty.npz"
        save_checkpoint(algo, path)
        fresh = matrix.algorithm(
            "fedavg", fault_model=FaultModel(drop_prob=0.5, seed=2))
        load_checkpoint(fresh, path)
        assert fresh.fault_stats == algo.fault_stats

    def test_client_count_mismatch_rejected(self, tmp_path):
        clients = matrix.clients()
        algo = matrix.algorithm("fedavg", client_list=clients)
        algo.run(rounds=1)
        path = tmp_path / "c.npz"
        save_checkpoint(algo, path)
        smaller = matrix.algorithm("fedavg", client_list=clients[:2])
        with pytest.raises(ValueError):
            load_checkpoint(smaller, path)


class TestMidRoundCrashResume:
    """ISSUE-1 satellite: a crash *mid-round* must not poison a resume —
    restarting from the last round-boundary checkpoint reproduces the
    uninterrupted run's accuracy and ledger trajectory seed-for-seed."""

    def _crash_mid_round(self, doomed):
        """Partially execute the next round, then abandon the instance (the
        simulated crash): download + train one client, never aggregate."""
        r = doomed.rounds_completed
        from repro.fl.base import sample_clients
        victim = sample_clients(doomed.clients, doomed.sample_ratio,
                                doomed.seed, r)[0]
        doomed.download_payload(victim)
        doomed.local_update(victim, r)  # mutates doomed's in-memory state

    def _assert_same_trajectory(self, ref, resumed, ref_log, resumed_log):
        assert resumed_log.meta["rounds_run"] == ref_log.meta["rounds_run"]
        np.testing.assert_allclose(resumed_log["val_acc"][-1],
                                   ref_log["val_acc"][-1], atol=1e-12)
        assert resumed.ledger.total_bytes() == ref.ledger.total_bytes()
        for (n, p1), (_, p2) in zip(ref.global_model.named_parameters(),
                                    resumed.global_model.named_parameters()):
            np.testing.assert_allclose(p1.data, p2.data, atol=1e-7,
                                       err_msg=n)

    def test_fedavg(self, tmp_path):
        def fresh():
            return matrix.algorithm("fedavg")

        ref = fresh()
        ref_log = ref.run(rounds=3)

        doomed = fresh()
        doomed.run(rounds=2)
        path = tmp_path / "mid.npz"
        save_checkpoint(doomed, path)
        self._crash_mid_round(doomed)  # crash during round 2

        resumed = fresh()
        load_checkpoint(resumed, path)
        assert resumed.rounds_completed == 2
        resumed_log = resumed.run(rounds=1)
        self._assert_same_trajectory(ref, resumed, ref_log, resumed_log)

    def test_spatl(self, tmp_path):
        def fresh():
            return matrix.algorithm("spatl")

        ref = fresh()
        ref_log = ref.run(rounds=3)

        doomed = fresh()
        doomed.run(rounds=2)
        path = tmp_path / "mid_spatl.npz"
        save_checkpoint(doomed, path)
        self._crash_mid_round(doomed)  # mutates a private predictor + c_i

        resumed = fresh()
        load_checkpoint(resumed, path)
        resumed_log = resumed.run(rounds=1)
        self._assert_same_trajectory(ref, resumed, ref_log, resumed_log)

    def test_faulty_run_with_retries_resumes_byte_identical(self, tmp_path):
        """ISSUE-6 satellite: crash mid-round while the fault path's
        retry machinery is active; resuming from the last boundary
        checkpoint must reproduce the uninterrupted faulty run's final
        state *byte-identically* (the fault RNG tree is keyed, never
        sequential, so a half-executed round leaks no draws)."""
        def fresh():
            return matrix.algorithm("fedavg", min_clients=2, fault_model=(
                FaultModel(drop_prob=0.4, straggler_prob=0.3, timeout=6.0,
                           corrupt_prob=0.1, crash_prob=0.1, seed=7)))

        ref = fresh()
        ref.run(rounds=3)
        assert ref.fault_stats.n_retries > 0  # the retry loop really ran

        doomed = fresh()
        doomed.run(rounds=2)
        path = tmp_path / "faulty_mid.npz"
        save_checkpoint(doomed, path)
        # Crash partway through round 2's retry loop: a client trains
        # (mutating in-memory state), further retries never happen.
        from repro.fl.base import sample_clients
        victim = sample_clients(doomed.clients, doomed.sample_ratio,
                                doomed.seed, 2)[0]
        doomed.local_update(victim, 2)

        resumed = fresh()
        load_checkpoint(resumed, path)
        assert resumed.fault_stats == doomed.fault_stats
        resumed.run(rounds=1)
        assert serialize_state(dict(ref.global_model.state_dict())) \
            == serialize_state(dict(resumed.global_model.state_dict()))
        assert resumed.ledger.total_bytes() == ref.ledger.total_bytes()
        assert resumed.fault_stats == ref.fault_stats


class TestScaleMidRoundCheckpoint:
    """Population-scale mid-round snapshots (DESIGN.md §13): a partial
    round — fold accumulators, spill position, client-store manifest —
    resumes in a fresh runner byte-identical to the uninterrupted run."""

    def _final(self, algo):
        return (serialize_state(dict(algo.global_model.state_dict())),
                algo.ledger.total_bytes())

    def test_fedavg_with_pool_resumes_byte_identical(self, tmp_path):
        # uninterrupted reference: 2 full streaming rounds
        ref_pool = matrix.virtual_pool(tmp_path / "ref")
        ref = matrix.algorithm("fedavg", client_list=ref_pool.clients(),
                               sample_ratio=1.0)
        ScaleRunner(ref, pool=ref_pool,
                    spill_dir=tmp_path / "ref_spills").run(2)

        # interrupted: round 0, then half of round 1's cohort, snapshot
        store_root = tmp_path / "store"
        pool = matrix.virtual_pool(store_root)
        samples = open(pool.factory.path, "rb").read()
        doomed = matrix.algorithm("fedavg", client_list=pool.clients(),
                                  sample_ratio=1.0)
        runner = ScaleRunner(doomed, pool=pool,
                             spill_dir=tmp_path / "spills")
        runner.run_round(0)
        runner.run_round_partial(1, 2)
        path = tmp_path / "scale.npz"
        runner.save_round_checkpoint(path)

        # fresh process: same store root, fresh pool/algorithm/runner
        pool2 = matrix.virtual_pool(store_root)
        resumed_algo = matrix.algorithm("fedavg", client_list=pool2.clients(),
                                        sample_ratio=1.0)
        resumed = ScaleRunner(resumed_algo, pool=pool2,
                              spill_dir=tmp_path / "spills")
        resumed.load_round_checkpoint(path)
        result = resumed.resume_round()
        assert result.round_idx == 1
        assert self._final(resumed_algo) == self._final(ref)
        # the new factory rewrote the clients' samples file with the same
        # bytes, and the store's attach left it alone
        assert pool2.factory.path == pool.factory.path
        assert open(pool2.factory.path, "rb").read() == samples

    def test_copied_run_directory_resumes_from_its_own_spill(self, tmp_path):
        """The checkpoint names its spill by file name: a copy of the store
        root (spills inside) and the checkpoint resumes bit for bit after
        the original directory is gone."""
        import shutil

        ref_pool = matrix.virtual_pool(tmp_path / "ref")
        ref = matrix.algorithm("fedavg", client_list=ref_pool.clients(),
                               sample_ratio=1.0)
        ScaleRunner(ref, pool=ref_pool).run(2)

        original, copy = tmp_path / "original", tmp_path / "copy"
        pool = matrix.virtual_pool(original / "store")
        runner = ScaleRunner(matrix.algorithm(
            "fedavg", client_list=pool.clients(), sample_ratio=1.0),
            pool=pool)
        runner.run_round(0)
        runner.run_round_partial(1, 2)
        runner.save_round_checkpoint(original / "scale.npz")
        shutil.copytree(original, copy)
        shutil.rmtree(original)

        pool2 = matrix.virtual_pool(copy / "store")
        resumed_algo = matrix.algorithm("fedavg", client_list=pool2.clients(),
                                        sample_ratio=1.0)
        resumed = ScaleRunner(resumed_algo, pool=pool2)
        resumed.load_round_checkpoint(copy / "scale.npz")
        assert resumed.resume_round().round_idx == 1
        assert self._final(resumed_algo) == self._final(ref)

    def test_spatl_materialized_resumes_byte_identical(self, tmp_path):
        def fresh():
            return matrix.algorithm("spatl", sample_ratio=1.0)

        ref = fresh()
        ScaleRunner(ref, spill_dir=tmp_path / "ref_spills").run(2)

        doomed = fresh()
        runner = ScaleRunner(doomed, spill_dir=tmp_path / "spills")
        runner.run_round(0)
        runner.run_round_partial(1, 2)
        path = tmp_path / "scale_spatl.npz"
        runner.save_round_checkpoint(path)

        resumed_algo = fresh()
        resumed = ScaleRunner(resumed_algo, spill_dir=tmp_path / "spills")
        resumed.load_round_checkpoint(path)
        resumed.resume_round()
        assert self._final(resumed_algo) == self._final(ref)
        for name in ref.c_global.names():
            np.testing.assert_array_equal(resumed_algo.c_global[name],
                                          ref.c_global[name], err_msg=name)

    def test_torn_spill_rejected_on_load(self, tmp_path):
        """A spill shorter than the checkpointed position (torn tail, or
        torn inside a record header) must fail the load — re-extending it
        with zeros would fold zeros into the FedAvg mean."""
        import os

        from repro.fl import PayloadError, ScaleRunner
        from repro.fl.stub import make_stub

        def partial(spill_dir):
            runner = ScaleRunner(make_stub(n_clients=4, seed=2),
                                 spill_dir=spill_dir, eval_mode="none")
            runner.run_round_partial(0, 2)
            path = tmp_path / f"{spill_dir.name}.npz"
            runner.save_round_checkpoint(path)
            spill = runner._pending.spill
            return path, spill.path, spill.nbytes

        for name, keep in (("tail", lambda n: n - 20),
                           ("header", lambda n: n // 2 + 3)):
            path, spill_path, nbytes = partial(tmp_path / name)
            os.truncate(spill_path, keep(nbytes))
            resumed = ScaleRunner(make_stub(n_clients=4, seed=2),
                                  spill_dir=tmp_path / name,
                                  eval_mode="none")
            with pytest.raises(PayloadError, match="shorter than"):
                resumed.load_round_checkpoint(path)
            assert resumed._pending is None
            assert os.path.getsize(spill_path) == keep(nbytes)

    def test_load_over_pending_round_rejected(self, tmp_path):
        """Loading would drop the pending round with its spill still open."""
        runner = ScaleRunner(make_stub(n_clients=4, seed=2),
                             spill_dir=tmp_path / "spills", eval_mode="none")
        runner.run_round_partial(0, 2)
        runner.save_round_checkpoint(tmp_path / "scale.npz")
        pending = runner._pending
        with pytest.raises(RuntimeError, match="already pending"):
            runner.load_round_checkpoint(tmp_path / "scale.npz")
        assert runner._pending is pending
        assert runner.resume_round().n_participants == 4

    def test_resume_without_pending_rejected(self, tmp_path):
        algo = matrix.algorithm("fedavg")
        runner = ScaleRunner(algo, spill_dir=tmp_path / "spills")
        with pytest.raises(RuntimeError):
            runner.resume_round()
        with pytest.raises(RuntimeError):
            runner.save_round_checkpoint(tmp_path / "none.npz")

    def test_sync_checkpoint_rejected_by_scale_loader(self, tmp_path):
        algo = matrix.algorithm("fedavg")
        algo.run(rounds=1)
        path = tmp_path / "sync.npz"
        save_checkpoint(algo, path)
        runner = ScaleRunner(algo, spill_dir=tmp_path / "spills")
        with pytest.raises(ValueError, match="scale"):
            runner.load_round_checkpoint(path)


class TestAsyncCheckpoint:
    """Mid-flight snapshots of the async runtime: clock, buffer, in-flight
    jobs, dedup registry, and counters all resume bit-exactly."""

    def _fresh(self, seed=5):
        profile = AsyncProfile(seed=seed, **matrix.HOSTILE)
        config = AsyncConfig(buffer_k=3, max_inflight=4, max_queue=4)
        return AsyncFederatedRunner(make_stub(n_clients=10, seed=seed),
                                    profile, config)

    def _state(self, runner):
        return (state_fingerprint(dict(
                    runner.algo.global_model.state_dict())),
                dict(runner.counters), runner.clock.now,
                runner.server_step,
                runner.algo.ledger.total_bytes(),
                [(r.step, r.n_updates, r.time, r.max_staleness)
                 for r in runner.step_results])

    def test_mid_buffer_resume_matches_uninterrupted(self, tmp_path):
        ref = self._fresh()
        ref.run(steps=12)

        first = self._fresh()
        first.pump(23)   # mid-flight: somewhere inside a server step
        assert first.buffer or first.inflight  # snapshot is genuinely mid-work
        path = tmp_path / "async.npz"
        save_async_checkpoint(first, path)

        resumed = self._fresh()
        load_async_checkpoint(resumed, path)
        assert resumed.buffer == first.buffer
        assert resumed.inflight == first.inflight
        assert resumed.queue == first.queue
        resumed.run(steps=12 - resumed.server_step)
        assert self._state(resumed) == self._state(ref)

    def test_spatl_mid_buffer_resume(self, tmp_path):
        profile = AsyncProfile(seed=5, **matrix.HOSTILE)
        config = AsyncConfig(buffer_k=2, max_inflight=3, max_queue=3)

        def fresh():
            algo = matrix.algorithm("spatl")
            return AsyncFederatedRunner(algo, profile, config)

        ref = fresh()
        ref.run(steps=4)

        first = fresh()
        first.pump(9)
        path = tmp_path / "async_spatl.npz"
        save_async_checkpoint(first, path)
        resumed = fresh()
        load_async_checkpoint(resumed, path)
        resumed.run(steps=4 - resumed.server_step)
        assert serialize_state(dict(ref.algo.global_model.state_dict())) \
            == serialize_state(dict(
                resumed.algo.global_model.state_dict()))
        assert resumed.algo.ledger.total_bytes() \
            == ref.algo.ledger.total_bytes()
        assert resumed.counters == ref.counters

    def test_config_mismatch_rejected(self, tmp_path):
        runner = self._fresh()
        runner.pump(10)
        path = tmp_path / "a.npz"
        save_async_checkpoint(runner, path)
        other = AsyncFederatedRunner(
            make_stub(n_clients=10, seed=5),
            AsyncProfile(seed=5, **matrix.HOSTILE),
            AsyncConfig(buffer_k=5, max_inflight=4, max_queue=4))
        with pytest.raises(ValueError):
            load_async_checkpoint(other, path)

    def test_profile_mismatch_rejected(self, tmp_path):
        runner = self._fresh()
        runner.pump(10)
        path = tmp_path / "b.npz"
        save_async_checkpoint(runner, path)
        other = AsyncFederatedRunner(
            make_stub(n_clients=10, seed=5), AsyncProfile(seed=99),
            AsyncConfig(buffer_k=3, max_inflight=4, max_queue=4))
        with pytest.raises(ValueError):
            load_async_checkpoint(other, path)

    def test_sync_checkpoint_rejected_by_async_loader(self, tmp_path):
        algo = matrix.algorithm("fedavg")
        algo.run(rounds=1)
        path = tmp_path / "sync.npz"
        save_checkpoint(algo, path)
        runner = self._fresh()
        with pytest.raises(ValueError):
            load_async_checkpoint(runner, path)


class TestHostileCheckpoint:
    """A damaged or lying format-2 file — every loader checks the whole of
    it before touching anything: each rejection is one ``ValueError``
    naming the file and the entry, and the target is left byte-identical
    (server state, clients, counters, ledger; the runner's own state)."""

    def _algo(self, seed=2):
        algo = make_stub(n_clients=4, seed=seed)
        algo.run(rounds=2)          # a moved global state and row table
        return algo

    def _saved(self, tmp_path, loader):
        path = tmp_path / "ckpt.npz"
        if loader == "sync":
            save_checkpoint(self._algo(), path)
        elif loader == "async":
            runner = AsyncFederatedRunner(self._algo(), AsyncProfile(seed=2),
                                          AsyncConfig())
            runner.pump(6)
            save_async_checkpoint(runner, path)
        else:
            runner = ScaleRunner(self._algo(), spill_dir=tmp_path / "spills",
                                 eval_mode="none")
            runner.run_round_partial(2, 2)
            runner.save_round_checkpoint(path)
            runner.close()
        return path

    def _target(self, tmp_path, loader):
        """A loader whose algorithm holds state of its own (another seed)."""
        algo = self._algo(seed=3)
        if loader == "sync":
            return algo, lambda path: load_checkpoint(algo, path), None
        if loader == "async":
            runner = AsyncFederatedRunner(algo, AsyncProfile(seed=2),
                                          AsyncConfig())
            return algo, lambda path: load_async_checkpoint(runner, path), \
                runner
        # the saver's spill_dir: a checkpoint names its spill by file name
        runner = ScaleRunner(algo, spill_dir=tmp_path / "spills",
                             eval_mode="none")
        return algo, runner.load_round_checkpoint, runner

    @staticmethod
    def _state(algo, runner):
        from repro.fl.scale.store import encode_client_state
        return (serialize_state(algo.worker_sync_state()),
                [encode_client_state(c.local_state) for c in algo.clients],
                algo.rounds_completed, algo.fault_stats.as_dict(),
                json.dumps(algo.ledger.uplink), json.dumps(algo.ledger.downlink),
                None if runner is None else json.dumps(
                    {k: repr(v) for k, v in sorted(vars(runner).items())
                     if k in ("server_step", "counters", "jobs", "buffer",
                              "queue", "_pending")}))

    @staticmethod
    def _rewrite(path, edit):
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        manifest = json.loads(bytes(arrays["__manifest__"]).decode())
        raw = edit(arrays, manifest)
        arrays["__manifest__"] = np.frombuffer(
            raw if raw is not None else json.dumps(manifest).encode(),
            dtype=np.uint8)
        np.savez_compressed(path, **arrays)

    @staticmethod
    def _edit_manifest_list(arrays, manifest):
        return b"[]"

    @staticmethod
    def _edit_manifest_not_utf8(arrays, manifest):
        return b"\xff\xfe{}"

    @staticmethod
    def _edit_no_server_keys(arrays, manifest):
        del manifest["server_keys"]

    @staticmethod
    def _edit_truncated_client(arrays, manifest):
        arrays["client.2"] = arrays["client.2"][:-3]

    @staticmethod
    def _edit_rows_after_version(arrays, manifest):
        rows = arrays["server.dl.rows"].copy()
        rows[0] = int(arrays["server.dl.version"]) + 1
        arrays["server.dl.rows"] = rows

    @staticmethod
    def _edit_version_shape(arrays, manifest):
        arrays["server.dl.version"] = np.array([1, 2], dtype=np.int64)

    @staticmethod
    def _edit_rows_count(arrays, manifest):
        arrays["server.dl.rows"] = arrays["server.dl.rows"][:-1]

    @staticmethod
    def _edit_missing_server_array(arrays, manifest):
        del arrays["server.model.w"]

    @staticmethod
    def _edit_model_shape(arrays, manifest):
        arrays["server.model.w"] = arrays["server.model.w"][:-1]

    @staticmethod
    def _edit_ledger(arrays, manifest):
        manifest["ledger"]["uplink"] = {"0": {"x": 1}}

    @staticmethod
    def _edit_rounds_type(arrays, manifest):
        manifest["rounds_completed"] = "2"

    @staticmethod
    def _edit_fault_stats(arrays, manifest):
        manifest["fault_stats"] = {"n_dropped": "many"}

    @pytest.mark.parametrize("loader", ["sync", "async", "scale"])
    @pytest.mark.parametrize("edit,entry", [
        ("manifest_list", "__manifest__"),
        ("manifest_not_utf8", "__manifest__"),
        ("no_server_keys", "server_keys"),
        ("truncated_client", "client.2"),
        ("rows_after_version", "server.dl.rows"),
        ("version_shape", "server.dl.version"),
        ("rows_count", "server.dl.rows"),
        ("missing_server_array", "server.model.w"),
        ("model_shape", "server.model.w"),
        ("ledger", "ledger"),
        ("rounds_type", "rounds_completed"),
        ("fault_stats", "fault_stats"),
    ])
    def test_rejected_whole_and_untouched(self, tmp_path, loader, edit,
                                          entry):
        path = self._saved(tmp_path, loader)
        self._rewrite(path, getattr(self, f"_edit_{edit}"))
        algo, load, runner = self._target(tmp_path, loader)
        before = self._state(algo, runner)
        with pytest.raises(ValueError) as info:
            load(path)
        assert type(info.value) is ValueError
        assert str(path) in str(info.value)
        assert f"{entry}:" in str(info.value), str(info.value)
        assert self._state(algo, runner) == before

    @pytest.mark.parametrize("loader", ["async", "scale"])
    def test_damaged_runner_section_rejected_untouched(self, tmp_path,
                                                       loader):
        path = self._saved(tmp_path, loader)

        def edit(arrays, manifest):
            del manifest[loader]["buffer" if loader == "async"
                                 else "round_idx"]

        self._rewrite(path, edit)
        algo, load, runner = self._target(tmp_path, loader)
        before = self._state(algo, runner)
        with pytest.raises(ValueError, match=rf"ckpt\.npz: {loader}: "):
            load(path)
        assert self._state(algo, runner) == before

    @pytest.mark.parametrize("spill", ["../spills/round_2.spill",
                                       "/tmp/round_2.spill"])
    def test_spill_outside_spill_dir_rejected_untouched(self, tmp_path,
                                                        spill):
        """The spill is a file name under the loader's ``spill_dir``; a
        manifest naming a path elsewhere is rejected before anything is
        opened."""
        path = self._saved(tmp_path, "scale")

        def edit(arrays, manifest):
            manifest["scale"]["spill"]["file"] = spill

        self._rewrite(path, edit)
        algo, load, runner = self._target(tmp_path, "scale")
        before = self._state(algo, runner)
        with pytest.raises(ValueError, match=r"ckpt\.npz: scale: .*file name"):
            load(path)
        assert self._state(algo, runner) == before

    @pytest.mark.parametrize("loader", ["sync", "async", "scale"])
    def test_undamaged_file_still_loads(self, tmp_path, loader):
        path = self._saved(tmp_path, loader)
        self._rewrite(path, lambda arrays, manifest: None)
        algo, load, _ = self._target(tmp_path, loader)
        load(path)
        with np.load(path) as data:
            saved = {k[len("server."):]: data[k] for k in data.files
                     if k.startswith("server.")}
        got = algo.worker_sync_state()
        assert set(got) == set(saved)
        assert all(np.array_equal(got[k], saved[k]) for k in saved)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_scale_fold_weighted_key_ignored(self, tmp_path, weighted):
        """Folds lost their weighted / unweighted switch; a scale file
        written while they had it still loads, the key ignored."""
        path = self._saved(tmp_path, "scale")
        ref_algo, ref_load, ref_runner = self._target(tmp_path, "scale")
        ref_load(path)

        def edit(arrays, manifest):
            manifest["scale"]["fold"]["weighted"] = weighted

        self._rewrite(path, edit)
        algo, load, runner = self._target(tmp_path, "scale")
        load(path)
        assert self._state(algo, None) == self._state(ref_algo, None)
        assert runner._pending.fold.n_updates \
            == ref_runner._pending.fold.n_updates == 2

    # ---- server state beyond the model: what ``server_arrays`` declares
    SERVER_PREFIX = {"scaffold": "cv.", "fednova": "sm.", "spatl": "cv."}

    @pytest.fixture(scope="class")
    def server_ckpt(self, tmp_path_factory):
        """``(name, loader) -> (saved file bytes, target factory)``, each
        written once: a fresh algorithm (sync), a runner a few events in
        (async), a round one client in (scale)."""
        root = tmp_path_factory.mktemp("server_ckpt")
        profile, config = AsyncProfile(seed=2), AsyncConfig()
        saved = {}

        def make(name):
            return matrix.algorithm(name)

        def get(name, loader):
            path = root / f"{name}_{loader}.npz"
            if (name, loader) not in saved:
                algo = make(name)
                if loader == "sync":
                    save_checkpoint(algo, path)
                elif loader == "async":
                    runner = AsyncFederatedRunner(algo, profile, config)
                    runner.pump(4)
                    save_async_checkpoint(runner, path)
                else:
                    runner = ScaleRunner(algo, spill_dir=root / name,
                                         eval_mode="none")
                    runner.run_round_partial(0, 1)
                    runner.save_round_checkpoint(path)
                saved[name, loader] = path.read_bytes()

            def target(tmp_path):
                """A loader whose algorithm holds server state of its own."""
                algo = make(name)
                prefix = TestHostileCheckpoint.SERVER_PREFIX[name]
                algo.load_worker_sync_state({
                    k: np.full_like(v, 0.25) if k.startswith(prefix) else v
                    for k, v in algo.worker_sync_state().items()})
                if loader == "sync":
                    return algo, lambda p: load_checkpoint(algo, p), None
                if loader == "async":
                    runner = AsyncFederatedRunner(algo, profile, config)
                    return algo, lambda p: load_async_checkpoint(runner, p), \
                        runner
                runner = ScaleRunner(algo, spill_dir=root / name,
                                     eval_mode="none")
                return algo, runner.load_round_checkpoint, runner
            return saved[name, loader], target
        return get

    @pytest.mark.parametrize("loader", ["sync", "async", "scale"])
    @pytest.mark.parametrize("lie", ["missing", "shape", "dtype",
                                     "undeclared"])
    @pytest.mark.parametrize("name", ["scaffold", "fednova", "spatl"])
    def test_server_arrays_checked(self, tmp_path, server_ckpt, name, lie,
                                   loader):
        """Every declared ``server.<prefix>*`` entry present at the shape
        and dtype held, and no other: a file that drops one (from the
        arrays and ``server_keys`` alike), reshapes or retypes one, or
        adds one the algorithm does not declare is rejected whole."""
        blob, target = server_ckpt(name, loader)
        path = tmp_path / "ckpt.npz"
        path.write_bytes(blob)
        prefix = self.SERVER_PREFIX[name]

        def edit(arrays, manifest):
            keys = manifest["server_keys"]
            key = next(k for k in keys if k.startswith(prefix))
            if lie == "undeclared":
                key = prefix + "bogus"
                keys.append(key)
                arrays[f"server.{key}"] = np.zeros(3, np.float32)
            elif lie == "missing":
                keys.remove(key)
                del arrays[f"server.{key}"]
            elif lie == "shape":
                arrays[f"server.{key}"] = arrays[f"server.{key}"][:-1]
            else:
                arrays[f"server.{key}"] = \
                    arrays[f"server.{key}"].astype(np.float64)
            edit.entry = f"server.{key}"

        self._rewrite(path, edit)
        algo, load, runner = target(tmp_path)
        before = self._state(algo, runner)
        with pytest.raises(ValueError) as info:
            load(path)
        assert type(info.value) is ValueError
        assert str(path) in str(info.value)
        assert f"{edit.entry}:" in str(info.value), str(info.value)
        assert self._state(algo, runner) == before
