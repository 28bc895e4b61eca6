"""Tests for the population-scale subsystem (``repro.fl.scale``).

Covers the spill-to-disk client-state store, virtual-client pool, the
folds every driver aggregates through, and the golden byte-identity
contract: a ScaleRunner round — streaming, virtual-pooled, or
process-pooled — is bitwise-equal to the materialized baseline
``run_round``, and every algorithm's server step gives the same bytes
through the list entry points, a resident fold and a disk-spill fold.
"""

import dataclasses
import gc
import os
import pickle
import tracemalloc
import types
import weakref

import numpy as np
import pytest

from repro.core import SPATL, StaticSaliencyPolicy
from repro.core.gradient_control import ControlVariate
from repro.data import SyntheticCIFAR10
from repro.fl import (ALGORITHMS, AsyncConfig, AsyncFederatedRunner,
                      AsyncProfile, ClientStateStore,
                      FederatedAlgorithm, PayloadError, ScaleRunner,
                      ShardedClientFactory, StubClientFactory, UpdateSpill,
                      VirtualClientPool, make_federated_clients,
                      serialize_state, staleness_weight, state_fingerprint)
from repro.fl.comm import encode_update
from repro.fl.scale import (StreamingFold, decode_client_state,
                            encode_client_state)
from repro.fl.stub import StubAvg, make_stub
from repro.obs.metrics import MetricsRegistry, set_registry

from tests import matrix


# ---------------------------------------------------------------- store

class TestClientStateStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = ClientStateStore(tmp_path / "s", shards=3)
        blobs = {f"client/{i}": bytes([i]) * (10 + i) for i in range(20)}
        for key, blob in blobs.items():
            store.put(key, blob)
        assert len(store) == 20
        for key, blob in blobs.items():
            assert store.get(key) == blob
            assert key in store
        assert store.get("client/999") is None
        assert "client/999" not in store

    def test_overwrite_and_delete(self, tmp_path):
        store = ClientStateStore(tmp_path / "s")
        store.put("k", b"old")
        store.put("k", b"new-value")
        assert store.get("k") == b"new-value"
        assert len(store) == 1
        store.delete("k")
        assert store.get("k") is None
        store.delete("k")  # missing_ok by default
        with pytest.raises(KeyError):
            store.delete("k", missing_ok=False)

    def test_reopen_rebuilds_index(self, tmp_path):
        store = ClientStateStore(tmp_path / "s", shards=2)
        store.put("a", b"first")
        store.put("b", b"second")
        store.put("a", b"rewritten")  # later record must win on replay
        store.close()
        reopened = ClientStateStore(tmp_path / "s", shards=2)
        assert reopened.get("a") == b"rewritten"
        assert reopened.get("b") == b"second"
        assert len(reopened) == 2

    def test_reopen_after_torn_put_recovers_last_complete_record(
            self, tmp_path):
        """A crash mid-``put`` leaves a partial final record.  Wherever the
        log was cut, reopening serves every complete record, never a
        short blob, and keeps appending from the last complete one."""
        store = ClientStateStore(tmp_path / "s", shards=1)
        store.put("client/1", b"a" * 100)
        store.put("client/2", b"b" * 100)
        store.close()
        log = tmp_path / "s" / "shard_0000.log"
        whole = log.read_bytes()
        record = len(whole) // 2
        for lost in range(1, record + 1):
            log.write_bytes(whole[:len(whole) - lost])
            reopened = ClientStateStore(tmp_path / "s", shards=1)
            assert reopened.get("client/1") == b"a" * 100, lost
            assert "client/2" not in reopened, lost
            assert reopened.nbytes == log.stat().st_size == record, lost
            reopened.put("client/2", b"c" * 100)
            reopened.close()
            again = ClientStateStore(tmp_path / "s", shards=1)
            assert again.get("client/2") == b"c" * 100, lost
            assert len(again) == 2
            again.close()

    def test_compaction_keeps_live_records(self, tmp_path):
        store = ClientStateStore(tmp_path / "s", shards=1,
                                 auto_compact=False)
        for i in range(50):
            store.put("hot", bytes([i]) * 100)   # 49 dead records
        store.put("cold", b"keep-me")
        before = store.nbytes
        store.compact()
        assert store.nbytes < before
        assert store.get("hot") == bytes([49]) * 100
        assert store.get("cold") == b"keep-me"

    def test_manifest_attach_truncates_later_writes(self, tmp_path):
        store = ClientStateStore(tmp_path / "s", shards=2)
        store.put("kept", b"before-snapshot")
        manifest = store.snapshot_manifest()
        store.put("lost", b"after-snapshot")
        store.put("kept", b"mutated-after-snapshot")
        store.close()
        restored = ClientStateStore.attach(tmp_path / "s", manifest)
        assert restored.get("kept") == b"before-snapshot"
        assert restored.get("lost") is None
        assert len(restored) == 1

    def test_pickled_replica_is_frozen(self, tmp_path):
        store = ClientStateStore(tmp_path / "s")
        store.put("k", b"value")
        replica = pickle.loads(pickle.dumps(store))
        assert replica.frozen
        assert replica.get("k") == b"value"
        with pytest.raises(RuntimeError):
            replica.put("k", b"nope")
        with pytest.raises(RuntimeError):
            replica.delete("k")
        # the parent is untouched and still writable
        store.put("k2", b"still-writable")
        assert store.get("k2") == b"still-writable"


class TestClientStateCodec:
    def test_roundtrip_with_control_variate(self):
        cv = ControlVariate({})
        cv.values = {"w": np.arange(6, dtype=np.float32).reshape(2, 3)}
        state = {"c_i": cv,
                 "predictor": {"fc.weight": np.ones((2, 2), np.float32)},
                 "nested": [{"a": np.float64(1.5)}, (np.int64(3),)]}
        back = decode_client_state(encode_client_state(state))
        assert isinstance(back["c_i"], ControlVariate)
        np.testing.assert_array_equal(back["c_i"].values["w"], cv.values["w"])
        np.testing.assert_array_equal(back["predictor"]["fc.weight"],
                                      state["predictor"]["fc.weight"])
        assert isinstance(back["nested"], list)
        assert isinstance(back["nested"][1], tuple)


# ---------------------------------------------------------------- spill

class TestUpdateSpill:
    def test_append_iter_roundtrip(self, tmp_path):
        spill = UpdateSpill(tmp_path / "u.spill")
        blobs = [bytes([i]) * (i + 1) for i in range(7)]
        for blob in blobs:
            spill.append(blob)
        assert list(spill) == blobs
        assert list(spill) == blobs  # re-iterable (pread, no shared offset)
        assert spill.n_records == 7

    def test_attach_truncates(self, tmp_path):
        spill = UpdateSpill(tmp_path / "u.spill")
        spill.append(b"one")
        spill.append(b"two")
        n_records, nbytes = spill.n_records, spill.nbytes
        spill.append(b"post-snapshot")
        spill.flush()
        reattached = UpdateSpill.attach(tmp_path / "u.spill", n_records,
                                        nbytes)
        assert list(reattached) == [b"one", b"two"]
        reattached.append(b"three")
        assert list(reattached) == [b"one", b"two", b"three"]

    # One record of each kind the folds spill: a StreamingFold payload
    # (``serialize``) and a SPATLFold pytree (``encode_update``).
    RECORDS = {
        "state": lambda: serialize_state(
            {"w": np.arange(1, 11, dtype=np.int64)}),
        "update": lambda: encode_update(
            {"dense": {"w": np.arange(10, dtype=np.float32)}, "pred": None}),
    }

    @pytest.mark.parametrize("kind", sorted(RECORDS))
    def test_attach_rejects_truncated_tail(self, tmp_path, kind):
        """A spill torn short of the checkpointed position must not be
        zero-extended back to length (the zeros would decode as data)."""
        spill = UpdateSpill(tmp_path / "u.spill")
        spill.append(self.RECORDS[kind]())
        spill.flush()
        os.truncate(spill.path, spill.nbytes - 20)
        with pytest.raises(PayloadError, match="shorter than"):
            UpdateSpill.attach(spill.path, spill.n_records, spill.nbytes)
        assert os.path.getsize(spill.path) == spill.nbytes - 20

    @pytest.mark.parametrize("kind", sorted(RECORDS))
    @pytest.mark.parametrize("cut,part", [(3, "header"), (20, "body")])
    def test_iter_rejects_torn_record(self, tmp_path, kind, cut, part):
        spill = UpdateSpill(tmp_path / "u.spill")
        spill.append(b"intact")
        spill.append(self.RECORDS[kind]())
        spill.flush()
        second_at = 8 + len(b"intact")
        os.truncate(spill.path, second_at + cut)
        records = iter(spill)
        assert next(records) == b"intact"
        with pytest.raises(PayloadError) as err:
            next(records)
        message = str(err.value)
        assert f"record 1 has a truncated {part}" in message
        assert spill.path in message and err.value.offset == second_at


# ----------------------------------------------------------- virtual pool

def _assert_twins(pool, eager):
    """Every pooled client holds its eager twin's samples and seeds."""
    for cid, ref in enumerate(eager):
        built = pool.factory(cid)
        assert built.client_id == ref.client_id
        assert built.seed == ref.seed
        for split in ("train_data", "val_data"):
            for arr in ("x", "y"):
                got = getattr(getattr(built, split), arr)
                want = getattr(getattr(ref, split), arr)
                assert got.dtype == want.dtype, (cid, split, arr)
                np.testing.assert_array_equal(got, want)


class TestVirtualClientPool:
    def test_factory_matches_eager_clients(self, tmp_path):
        pool = matrix.virtual_pool(tmp_path / "s")
        _assert_twins(pool, matrix.clients())

    def test_unbound_factory_raises(self):
        factory = ShardedClientFactory(dataset=matrix.tiny_dataset(),
                                       parts=matrix.parts())
        with pytest.raises(RuntimeError, match="unbound"):
            factory(0)

    def test_dataset_leaves_the_process(self, tmp_path):
        """Once the pool is built only the samples file holds the data;
        the caller's dataset is not mutated, only let go."""
        ds = SyntheticCIFAR10(n_samples=120, size=8, seed=4)
        parts = np.array_split(np.random.default_rng(0).permutation(120), 5)
        eager = make_federated_clients(ds, parts, batch_size=32, seed=5)
        x_before = ds.x.copy()
        factory = ShardedClientFactory(dataset=ds, parts=parts,
                                       batch_size=32, seed=5)
        pool = VirtualClientPool(factory, len(parts),
                                 ClientStateStore(tmp_path / "s"))
        np.testing.assert_array_equal(ds.x, x_before)
        x_ref = weakref.ref(ds.x)
        del ds
        gc.collect()
        assert x_ref() is None
        _assert_twins(pool, eager)
        replica = pickle.loads(pickle.dumps(factory))
        assert replica.dataset is None and replica.path == factory.path
        _assert_twins(types.SimpleNamespace(factory=replica), eager)

    @pytest.mark.parametrize("cut", ["tail", "all"])
    def test_short_samples_file_names_the_client(self, tmp_path, cut):
        pool = matrix.virtual_pool(tmp_path / "s")
        path = pool.factory.path
        size = os.path.getsize(path)
        os.truncate(path, size - 4 if cut == "tail" else 0)
        victim = len(pool.factory.parts) - 1 if cut == "tail" else 0
        with pytest.raises(PayloadError, match=f"client {victim}:"):
            pool.materialize(victim)
        assert pool.resident == 0

    def test_samples_file_is_not_a_store_record(self, tmp_path):
        """Compaction, reopening and ``attach`` never touch the file."""
        store = ClientStateStore(tmp_path / "s", shards=1)
        pool = matrix.virtual_pool(store)
        path = pool.factory.path
        assert os.path.dirname(path) == store.root
        before = open(path, "rb").read()
        for i in range(3):
            store.put("client/0", bytes([i]) * 64)
        manifest = store.snapshot_manifest()
        store.put("client/1", b"after the snapshot")
        store.compact()
        store.close()
        reopened = ClientStateStore(tmp_path / "s", shards=1)
        assert sorted(reopened.keys()) == ["client/0", "client/1"]
        reopened.close()
        ClientStateStore.attach(tmp_path / "s", manifest).close()
        assert open(path, "rb").read() == before

    def test_unchanged_state_is_not_rewritten(self, tmp_path, tiny_setting):
        """A second evaluation over an unchanged population puts nothing."""
        model_fn, _ = tiny_setting
        store = ClientStateStore(tmp_path / "s")
        pool = matrix.virtual_pool(store, resident_limit=2)
        algo = SPATL(model_fn, pool.clients(), lr=0.05, local_epochs=1,
                     seed=0, selection_policy=StaticSaliencyPolicy(0.3))
        registry = MetricsRegistry()

        def puts():
            return registry.snapshot()["counters"].get("scale.store_puts", 0)

        previous = set_registry(registry)
        try:
            ScaleRunner(algo, pool=pool, eval_mode="none",
                        spill_dir=tmp_path / "spills").run_round(0)
            first = algo.evaluate_all(evict=pool.evict)
            after_first, nbytes = puts(), store.nbytes
            assert after_first > 0
            assert algo.evaluate_all(evict=pool.evict) == first
        finally:
            set_registry(previous)
            algo.close()
        assert puts() == after_first
        assert store.nbytes == nbytes

    def test_lru_bound_and_state_survival(self, tmp_path):
        store = ClientStateStore(tmp_path / "s")
        pool = VirtualClientPool(StubClientFactory(), 10, store,
                                 resident_limit=2)
        clients = pool.clients()
        clients[0].local_state["x"] = {"v": np.float64(7.0)}
        for c in clients[1:]:  # churn client 0 out of residency
            c.local_state
        assert pool.resident <= 2
        assert "client/0" in store
        assert clients[0].local_state["x"]["v"] == 7.0  # hydrated back

    def test_stateless_population_keeps_store_empty(self, tmp_path):
        store = ClientStateStore(tmp_path / "s")
        pool = VirtualClientPool(StubClientFactory(), 100, store,
                                 resident_limit=4)
        for c in pool.clients():
            c.client_id, c.local_state  # touch every member
        assert pool.resident <= 4
        assert len(store) == 0          # O(stateful clients), not O(pop)
        assert store.nbytes == 0

    def test_proxy_pickles_as_proxy(self, tmp_path):
        store = ClientStateStore(tmp_path / "s")
        pool = VirtualClientPool(StubClientFactory(), 4, store)
        proxy = pool.clients()[2]
        proxy.local_state["k"] = {"v": np.float64(1.0)}
        clone = pickle.loads(pickle.dumps(proxy))
        assert clone.client_id == 2
        assert clone._pool.store.frozen  # replica pool rides a frozen store


# ------------------------------------------------------- golden identity

class TestGoldenIdentity:
    """Streaming / virtual / pooled rounds == the materialized baseline:
    each ``streaming/<algo>-<route>`` cell's two ScaleRunner rounds against
    the matrix's ``streaming/<algo>-sync`` reference (``run_round``, sample
    ratio 0.7), trained once for all of them."""

    def _scale_run(self, cell, tmp_path):
        run = matrix.measure(f"streaming/{cell}", tmp_path)
        assert os.listdir(tmp_path / "spills") == []  # every spill unlinked
        return run

    def _assert_match(self, name, run):
        base = matrix.reference(f"streaming/{name}-sync")
        # the whole server state: model, and SPATL's / SCAFFOLD's c_global
        assert run.server == base.server
        assert run.ledger == base.ledger
        np.testing.assert_array_equal(run.results[-1].avg_val_acc,
                                      base.results[-1].avg_val_acc)

    # ``wave`` = clients in flight between folds: 1 folds each upload as
    # it arrives, 3 folds them in chunks; both are the cohort order.
    @pytest.mark.parametrize("wave", [1, 3])
    def test_fedavg(self, tmp_path, wave):
        self._assert_match("fedavg",
                           self._scale_run(f"fedavg-wave{wave}", tmp_path))

    @pytest.mark.parametrize("wave", [1, 3])
    def test_spatl(self, tmp_path, wave):
        self._assert_match("spatl",
                           self._scale_run(f"spatl-wave{wave}", tmp_path))

    def test_fedavg_virtual_pool(self, tmp_path):
        self._assert_match("fedavg",
                           self._scale_run("fedavg-virtual", tmp_path))

    def test_spatl_virtual_pool(self, tmp_path):
        """Virtual clients must hydrate predictors/variates losslessly."""
        self._assert_match("spatl",
                           self._scale_run("spatl-virtual", tmp_path))

    def test_scaffold_spill_replay(self, tmp_path):
        """SCAFFOLD's server step streams its spilled uplink payloads."""
        algo = matrix.algorithm("scaffold")
        assert type(algo.make_fold(UpdateSpill(tmp_path / "probe"))) \
            is StreamingFold
        self._assert_match("scaffold",
                           self._scale_run("scaffold-spill", tmp_path))

    def test_process_pool_composition(self, tmp_path):
        """Virtual pool over the process-pool executor."""
        self._assert_match("fedavg", matrix.measure(
            "streaming/fedavg-virtual-workers2", tmp_path))

    def test_empty_round_rejected(self, tmp_path):
        algo = make_stub(n_clients=4)
        spill = UpdateSpill(tmp_path / "e.spill")
        fold = algo.make_fold(spill)
        with pytest.raises(ValueError, match="surviving update"):
            fold.finalize(0)

    # -- faults compose: quorum and re-sampling belong to the one loop.
    # One fault config for every cell: round 0 commits after one
    # re-sample, round 1 uses up its re-samples and is skipped.

    # "workers2" cells are the slow ones: each starts a process pool
    @pytest.mark.parametrize("route", ["spilled-wave2", "virtual",
                                       "workers2"])
    @pytest.mark.parametrize("name", ["fedavg", "scaffold", "spatl"])
    def test_faults_compose(self, tmp_path, name, route):
        """A FaultModel run through ScaleRunner == ``run_round``: global
        bytes, ledger, cumulative FaultStats and every RoundResult."""
        base = matrix.reference(f"streaming/{name}-sync+faults")
        assert [r.committed for r in base.results] == [True, False]
        assert base.results[0].n_resamples >= 1
        assert base.fault_stats["n_retries"] and base.fault_stats["n_corrupt"]
        run = self._scale_run(
            f"{name}-{'virtual+faults' if route == 'virtual' else route}",
            tmp_path)
        assert run.model == base.model
        assert run.ledger == base.ledger
        assert run.fault_stats == base.fault_stats
        np.testing.assert_equal([dataclasses.astuple(r) for r in run.results],
                                [dataclasses.astuple(r)
                                 for r in base.results])


# ------------------------------------------------- composition table

ROUTED = sorted(ALGORITHMS) + ["spatl", "stubavg"]


def _fold_route(spill_of):
    def route(algo, updates, weights, tmp_path):
        spill = spill_of(tmp_path)
        fold = algo.make_fold(spill)
        for i, update in enumerate(updates):
            if weights is None:
                fold.add(update)
            else:
                fold.add(update, weights[i])
        fold.finalize(0)
    return route


def _list_route(algo, updates, weights, tmp_path):
    if weights is None:
        algo.aggregate(updates, 0)
    else:
        algo.aggregate_weighted(updates, weights, 0)


ROUTES = {
    "list": _list_route,
    "resident-fold": _fold_route(lambda tmp_path: None),
    "disk-fold": _fold_route(lambda tmp_path: UpdateSpill(tmp_path / "s")),
    # all-1.0 weights are bitwise the unit route (the sync bytes)
    "list-all-ones": lambda algo, updates, weights, tmp_path:
        algo.aggregate_weighted(updates, [1.0] * len(updates), 0),
}


class TestAggregationComposition:
    """Every algorithm's one server step, reached three ways, same bytes.

    algorithm x {list entry point, resident fold, disk-spill fold} x
    {unit, staleness weights}: the full server state (model + control
    variates / server momentum) has one CRC per (algorithm, weights)
    cell whichever route folded the updates.
    """

    STALE = [staleness_weight(s, 0.5) for s in (0, 2, 1, 5)]

    @pytest.mark.parametrize("weighted", [False, True],
                             ids=["unit", "staleness"])
    @pytest.mark.parametrize("name", ROUTED)
    def test_routes_agree(self, tmp_path, name, weighted):
        cell = f"routes/{name}"
        updates = matrix.reference(cell).extra["updates"]
        weights = self.STALE[:len(updates)] if weighted else None
        routes = [r for r in ROUTES if not (weighted and r == "list-all-ones")]
        crcs = {}
        for route in routes:
            algo = matrix.build(cell, tmp_path)
            before = state_fingerprint(algo.worker_sync_state())
            ROUTES[route](algo, updates, weights, tmp_path)
            crcs[route] = state_fingerprint(algo.worker_sync_state())
            assert crcs[route] != before, route   # the step did something
        assert len(set(crcs.values())) == 1, crcs

    @pytest.mark.parametrize("name", ROUTED)
    def test_staleness_weights_change_the_bytes(self, tmp_path, name):
        """The weighted cells are not vacuous: discounting moves every
        algorithm's server state (SCAFFOLD's step once ignored it)."""
        cell = f"routes/{name}"
        updates = matrix.reference(cell).extra["updates"]
        crcs = []
        for weights in (None, self.STALE[:len(updates)]):
            algo = matrix.build(cell, tmp_path)
            _list_route(algo, updates, weights, tmp_path)
            crcs.append(state_fingerprint(algo.worker_sync_state()))
        assert crcs[0] != crcs[1]

    def test_algorithm_without_a_server_step_is_rejected(self):
        class NoStep(StubAvg):
            server_step = FederatedAlgorithm.server_step

        ref = make_stub()
        algo = NoStep(ref.model_fn, ref.clients)
        update = algo.local_update(algo.clients[0], 0)
        with pytest.raises(NotImplementedError, match="server_step"):
            algo.aggregate([update], 0)


# ------------------------------------------------- spilled fold memory

class TestSpilledFold:
    """A spilled fold parks what the uplink carries and streams it back
    at finalize, so the server's memory does not grow with the cohort."""

    @pytest.mark.parametrize("name", ["fednova", "fedtopk", "scaffold",
                                      "ssfl"])
    def test_parks_the_uplink_and_finalizes_in_o_model(self, tmp_path, name):
        cell = f"routes/{name}"
        updates = matrix.reference(cell).extra["updates"]

        def finalize_peak(n_updates):
            algo = matrix.build(cell, tmp_path)
            with UpdateSpill(tmp_path / f"{n_updates}.spill") as spill:
                fold = algo.make_fold(spill)
                for i in range(n_updates):
                    fold.add(updates[i % len(updates)])
                tracemalloc.start()
                try:
                    fold.finalize(0)
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        assert finalize_peak(16) <= 1.25 * finalize_peak(4)

        # an int8 update's record is its framed uplink: the dequantized
        # payload, without the update's other entries or its wire stash
        algo = matrix.build(dataclasses.replace(matrix.CELL[cell], quant=8),
                            tmp_path)
        client = algo.clients[0]
        update = algo.quantize_update(client, algo.local_update(client, 0), 0)
        with UpdateSpill(tmp_path / "q.spill") as spill:
            algo.make_fold(spill).add(update)
            blob = serialize_state(algo.upload_payload(update))
            assert list(spill) == [blob]
            assert spill.nbytes == 8 + len(blob)


# ------------------------------------------------------- spill lifetime

class _ClientTwoRaises(StubAvg):
    def local_update(self, client, round_idx):
        if client.client_id == 2:
            raise RuntimeError("boom")
        return super().local_update(client, round_idx)


def _raising_stub():
    ref = make_stub(n_clients=4, seed=1)
    return _ClientTwoRaises(ref.model_fn, ref.clients, seed=1,
                            local_epochs=1)


class TestSpillLifetime:
    """An exception in the exchange must not leave a spill file behind."""

    def test_run_round_unlinks_on_error(self, tmp_path):
        runner = ScaleRunner(_raising_stub(), spill_dir=tmp_path / "spills",
                             eval_mode="none")
        with pytest.raises(RuntimeError, match="boom"):
            runner.run_round(0)
        assert os.listdir(tmp_path / "spills") == []

    def test_partial_and_resume_unlink_on_error(self, tmp_path):
        runner = ScaleRunner(_raising_stub(), spill_dir=tmp_path / "spills",
                             eval_mode="none")
        with pytest.raises(RuntimeError, match="boom"):
            runner.run_round_partial(0, 4)
        assert os.listdir(tmp_path / "spills") == []
        assert runner._pending is None
        runner.run_round_partial(0, 2)          # clients 0, 1: fine
        assert os.listdir(tmp_path / "spills") == ["round_0.spill"]
        with pytest.raises(RuntimeError, match="boom"):
            runner.resume_round()
        assert os.listdir(tmp_path / "spills") == []

    def test_negative_partial_rejected(self, tmp_path):
        """``selected[:-1]`` would silently fold all but the last client."""
        runner = ScaleRunner(make_stub(n_clients=4),
                             spill_dir=tmp_path / "spills", eval_mode="none")
        with pytest.raises(ValueError, match="-1"):
            runner.run_round_partial(0, -1)
        assert runner._pending is None
        assert runner.run_round(0).n_participants == 4

    def test_owned_temp_dir_removed_on_close(self):
        runner = ScaleRunner(make_stub(n_clients=4), eval_mode="none")
        owned = runner.spill_dir
        runner.run_round(0)
        assert os.path.isdir(owned)
        runner.close()
        runner.close()                           # idempotent
        assert not os.path.exists(owned)


# ------------------------------------------------- async dedup registry

class TestAsyncUpdateStore:
    """The async runtime's bounded CRC dedup registry under a hostile
    profile (duplicates, churn, crashes)."""

    HOSTILE = dict(jitter=0.3, straggler_prob=0.4, slowdown=6.0,
                   arrival_spread=1.0, churn_prob=0.1, crash_prob=0.05,
                   duplicate_prob=0.25)

    def test_dedup_registry_bounded(self, tmp_path):
        runner = AsyncFederatedRunner(
            make_stub(n_clients=10, seed=5),
            AsyncProfile(seed=5, **self.HOSTILE),
            AsyncConfig(buffer_k=3, max_inflight=4, max_queue=4,
                        dedup_capacity=2))
        runner.run(steps=10)
        assert len(runner._fp_registry) <= 2
        assert runner.dedup_evictions > 0

    def test_dedup_capacity_validated(self):
        with pytest.raises(ValueError):
            AsyncConfig(dedup_capacity=0)
