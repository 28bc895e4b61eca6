"""Training at first delivery against the dispatch step's server state.

The async runtime trains a job when its upload first lands, against a
snapshot of the server state at its dispatch step
(:meth:`AsyncFederatedRunner._train`).  These tests hold it to the
training-at-dispatch schedule it replaced, kept here only as a test-local
reference runner: the same global bytes, ledger rows, counters and
``StepResult`` fields (``val_acc`` aside: evaluation no longer sees a
job still in flight), and — once the lazy runner's pending jobs are
trained — the same client state.  A mid-flight checkpoint carries the
pending jobs and their snapshots, so a resumed run equals the straight
one in every field, ``val_acc`` included.
"""

import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from repro.fl import (AsyncConfig, AsyncFederatedRunner, AsyncProfile,
                      QuantConfig, serialize_state)
from repro.fl.checkpoint import load_async_checkpoint, save_async_checkpoint
from repro.fl.comm import encode_update
from repro.fl.stub import make_stub
from tests import matrix
from tests.test_fl_checkpoint import _assert_same_tree

# the end-to-end benchmark's hostile profile (spatl_async_int4)
HOSTILE = dict(jitter=0.3, straggler_prob=0.4, slowdown=6.0,
               arrival_spread=1.0, churn_prob=0.15, crash_prob=0.05,
               duplicate_prob=0.2)
CONFIG = AsyncConfig(buffer_k=2, max_inflight=3, max_queue=4,
                     commit_deadline=8.0, eval_every=2)
STEPS = 6


class EagerRunner(AsyncFederatedRunner):
    """The reference schedule: every admitted job trains at dispatch."""

    def _dispatch(self, cid):
        super()._dispatch(cid)
        job = self.jobs[self._next_job - 1]
        if job.pending:
            super()._train(job)

    def _train(self, job):
        """A delivery finds its job trained already."""


def _algo(name):
    if name == "spatl_int4":
        return matrix.algorithm("spatl", quant=QuantConfig(
            bits=4, block=256, error_feedback=True))
    return matrix.algorithm(name)


def _runner(cls, name, seed=0):
    return cls(_algo(name),
               AsyncProfile(seed=seed, **HOSTILE), CONFIG)


def _fields(result, *, val_acc=True):
    """A ``StepResult`` as comparable data (NaN as None)."""
    fields = {k: None if isinstance(v, float) and math.isnan(v) else v
              for k, v in asdict(result).items()}
    if not val_acc:
        del fields["val_acc"]
    return fields


def _assert_same_server(ref, got):
    assert serialize_state(got.algo.worker_sync_state()) \
        == serialize_state(ref.algo.worker_sync_state())
    assert got.algo.ledger.uplink == ref.algo.ledger.uplink
    assert got.algo.ledger.downlink == ref.algo.ledger.downlink


@pytest.mark.parametrize("name", ["spatl_int4", "fedavg", "scaffold"])
def test_lazy_training_matches_training_at_dispatch(name):
    eager = _runner(EagerRunner, name)
    lazy = _runner(AsyncFederatedRunner, name)
    stale = []
    train_against = lazy.algo._train_against
    lazy.algo._train_against = lambda *a: stale.append(a) or train_against(*a)
    ref_results = eager.run(steps=STEPS)
    results = lazy.run(steps=STEPS)
    assert stale, "no job trained against a snapshot: nothing was tested"

    _assert_same_server(eager, lazy)
    assert [_fields(r, val_acc=False) for r in results] \
        == [_fields(r, val_acc=False) for r in ref_results]
    trained, eager_trained = (runner.counters["trained"]
                              for runner in (lazy, eager))
    assert dict(lazy.counters, trained=0) == dict(eager.counters, trained=0)
    # the lazy runner trained what it delivered, the eager one every job
    # it did not doom
    pending = [jid for jid in lazy.inflight if lazy.jobs[jid].pending]
    assert pending and trained + len(pending) == eager_trained
    assert trained == sum(j.fingerprint is not None
                          for j in lazy.jobs.values())

    # Train the jobs still in flight: every client's state is then the
    # eager run's, and the snapshots are gone with their last job.
    for jid in sorted(pending):
        lazy._train(lazy.jobs[jid])
    assert lazy.snapshots == {}
    for c_ref, c_got in zip(eager.algo.clients, lazy.algo.clients):
        _assert_same_tree(c_ref.local_state, c_got.local_state,
                          f"client{c_ref.client_id}")
    _assert_same_server(eager, lazy)


@pytest.mark.parametrize("name", ["spatl_int4", "scaffold"])
def test_mid_flight_resume_with_pending_snapshots(name, tmp_path):
    straight = _runner(AsyncFederatedRunner, name)
    straight.run(steps=STEPS)

    first = _runner(AsyncFederatedRunner, name)
    for _ in range(400):
        first.pump(1)
        steps = {first.jobs[j].dispatch_step for j in first.inflight
                 if first.jobs[j].pending}
        if len(steps) >= 2 and first.snapshots:
            break
    assert len(steps) >= 2 and first.snapshots
    assert first.server_step < STEPS
    path = tmp_path / "async.npz"
    # a save trains no pending job and drops no snapshot
    matrix.save_unchanged(save_async_checkpoint, first, path)
    resumed = _runner(AsyncFederatedRunner, name)
    load_async_checkpoint(resumed, path)
    assert set(resumed.snapshots) == set(first.snapshots)
    resumed.run(steps=STEPS - resumed.server_step)

    _assert_same_server(straight, resumed)
    assert [_fields(r) for r in resumed.step_results] \
        == [_fields(r) for r in straight.step_results]
    assert any(r.val_acc == r.val_acc for r in straight.step_results)
    assert resumed.counters == straight.counters
    for c_ref, c_got in zip(straight.algo.clients, resumed.algo.clients):
        _assert_same_tree(c_ref.local_state, c_got.local_state,
                          f"client{c_ref.client_id}")


class TestDamagedSnapshots:
    """Pending jobs and their snapshots are checked whole before a load
    touches anything: each lie is one ``ValueError`` naming the file and
    the entry, and the target runner is left as it was."""

    @staticmethod
    def _runner(seed=3):
        return AsyncFederatedRunner(
            make_stub(n_clients=8, seed=seed), AsyncProfile(seed=3, **HOSTILE),
            AsyncConfig(buffer_k=2, max_inflight=4, max_queue=4))

    @staticmethod
    def _state(runner):
        return (serialize_state(runner.algo.worker_sync_state()),
                repr(runner.jobs), dict(runner.counters), runner.server_step,
                sorted(runner.snapshots), sorted(runner.inflight))

    @pytest.fixture
    def saved(self, tmp_path):
        runner = self._runner()
        while not runner.snapshots:
            assert runner.pump(1) == 1
        path = tmp_path / "ckpt.npz"
        save_async_checkpoint(runner, path)
        return path, min(runner.snapshots)

    @pytest.mark.parametrize("lie,entry", [
        ("missing", "snapshot.{step}.model.w"),
        ("shape", "snapshot.{step}.model.w"),
        ("stray", "snapshot.{step}.model.bogus"),
        ("unreferenced", "async.snapshots"),
        ("dropped", "async.snapshots"),
        ("trained", "async.jobs.{job}"),
    ])
    def test_rejected_whole_and_untouched(self, saved, lie, entry):
        path, step = saved
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        manifest = json.loads(bytes(arrays["__manifest__"]).decode())
        state = manifest["async"]
        key = f"snapshot.{step}.model.w"
        pending = [jid for jid, meta in state["jobs"].items()
                   if meta["pending"] and meta["dispatch_step"] == step]
        if lie == "missing":
            del arrays[key]
        elif lie == "shape":
            arrays[key] = arrays[key][:-1]
        elif lie == "stray":
            state["snapshots"][str(step)].append("model.bogus")
            arrays[f"snapshot.{step}.model.bogus"] = np.zeros(3, np.float32)
        elif lie == "unreferenced":
            for jid in pending:
                state["jobs"][jid]["pending"] = False
        elif lie == "dropped":
            del state["snapshots"][str(step)]
        else:
            state["jobs"][pending[0]]["has_update"] = True
            arrays[f"job.{pending[0]}.update"] = np.frombuffer(
                encode_update({"n": 1}), dtype=np.uint8)
        arrays["__manifest__"] = np.frombuffer(json.dumps(manifest).encode(),
                                               dtype=np.uint8)
        np.savez_compressed(path, **arrays)

        target = self._runner(seed=4)
        target.run(steps=3)
        before = self._state(target)
        with pytest.raises(ValueError) as info:
            load_async_checkpoint(target, path)
        entry = entry.format(step=step, job=pending[0])
        assert str(path) in str(info.value)
        assert f"{entry}:" in str(info.value), str(info.value)
        assert self._state(target) == before

    def test_undamaged_file_loads(self, saved):
        path, step = saved
        target = self._runner(seed=4)
        load_async_checkpoint(target, path)
        assert step in target.snapshots
