"""The delta downlink, end to end (DESIGN.md §5.1).

A test-only *shadow client* rides in ``client.local_state`` — so it
follows the client through worker pickles, crash rollbacks, the spill
store and checkpoints exactly like ``synced`` does — applies every
payload the client is sent and asserts, at every participation, that what
it holds is byte-equal to the server's full downlink state.  It starts
from the client half's :func:`~repro.fl.wire.cold_cache` — the zeros a
joining client initialises ``c`` to — so a first contact reconstructs the
state without having been sent them.  It runs over SPATL (static and RL
policy) and SCAFFOLD on every driver, late joiners included.  Around it:
the ``synced`` commit rule, the per-base broadcast cache key, and round-0
bytes against the full state for all eight algorithms.
"""

import numpy as np
import pytest

from repro.core import SPATL, RLSelectionPolicy, StaticSaliencyPolicy
from repro.fl import (ALGORITHMS, AsyncConfig, AsyncFederatedRunner,
                      AsyncProfile, ClientStateStore, FaultModel, Scaffold,
                      ScaleRunner, ShardedClientFactory, VirtualClientPool,
                      make_executor, make_federated_clients, payload_nbytes)
from repro.fl.checkpoint import (load_async_checkpoint, load_checkpoint,
                                 save_async_checkpoint, save_checkpoint)
from repro.fl.comm import Transport
from repro.fl.resilience import (ClientCrashed, RetryPolicy,
                                 StragglerTimeout, TransferCorrupted)
from repro.fl.stub import make_stub
from repro.fl.wire import (BroadcastCache, apply_delta, cold_cache,
                           serialize)
from repro.obs import tracing
from repro.rl import SalientParameterAgent


class _Shadowed:
    """Mixin: a client-side cache that applies every received payload."""

    def _download(self, client, round_idx, salt=0, attempt=0):
        received = super()._download(client, round_idx, salt, attempt)
        full = self.downlink_state()
        if "shadow" not in client.local_state:
            client.local_state["shadow"] = {
                "cache": cold_cache(full, self.zero_born), "syncs": 0,
                "row_deltas": 0,
                "first": {"round": round_idx, "entries": list(received),
                          "nbytes": payload_nbytes(received)}}
        shadow = client.local_state["shadow"]
        apply_delta(shadow["cache"], received)
        assert sorted(shadow["cache"]) == sorted(full)
        for name, value in full.items():
            assert shadow["cache"][name].tobytes() \
                == np.asarray(value).tobytes(), (client.client_id, name)
        shadow["syncs"] += 1
        shadow["row_deltas"] += any(k.endswith(".idx") for k in received)
        return received


class ShadowedSPATL(_Shadowed, SPATL):
    pass


class ShadowedScaffold(_Shadowed, Scaffold):
    pass


def _make(kind, model_fn, clients, **kwargs):
    kwargs = dict(lr=0.05, local_epochs=1, seed=0, **kwargs)
    if kind == "scaffold":
        return ShadowedScaffold(model_fn, clients, **kwargs)
    if kind == "spatl_rl":
        policy = RLSelectionPolicy(SalientParameterAgent(seed=0),
                                   flops_target=0.8, finetune_rounds=1,
                                   finetune_updates=1, episodes_per_update=2,
                                   probe_size=32)
    else:
        policy = StaticSaliencyPolicy(0.3)
    return ShadowedSPATL(model_fn, clients, selection_policy=policy, **kwargs)


def _sync_partial(kind, model_fn, clients, tmp_path):
    algo = _make(kind, model_fn, clients(), sample_ratio=0.5)
    algo.run(rounds=5)
    return algo


def _faults(kind, model_fn, clients, tmp_path):
    algo = _make(kind, model_fn, clients(), fault_model=FaultModel(
        drop_prob=0.25, corrupt_prob=0.2, crash_prob=0.2, seed=7))
    algo.run(rounds=4)
    assert algo.fault_stats.n_retries > 0 and algo.fault_stats.n_corrupt > 0
    return algo


def _pool(kind, model_fn, clients, tmp_path):
    algo = _make(kind, model_fn, clients(), executor=make_executor(2))
    try:
        algo.run(rounds=3)
    finally:
        algo.close()
    return algo


def _async(kind, model_fn, clients, tmp_path):
    algo = _make(kind, model_fn, clients())
    runner = AsyncFederatedRunner(
        algo, AsyncProfile(seed=5, jitter=0.3, straggler_prob=0.4,
                           slowdown=6.0, arrival_spread=1.0,
                           duplicate_prob=0.3),
        AsyncConfig(buffer_k=2, max_inflight=3, max_queue=3))
    runner.run(steps=5)
    assert runner.counters["deduped"] > 0
    return algo


def _scale(kind, model_fn, clients, tmp_path):
    pool = clients(virtual_root=tmp_path / "store")
    algo = _make(kind, model_fn, pool.clients())
    runner = ScaleRunner(algo, pool=pool, spill_dir=tmp_path / "spills",
                         eval_mode="none")
    runner.run(3)
    runner.close()
    return algo


def _resumed(kind, model_fn, clients, tmp_path, **kwargs):
    first = _make(kind, model_fn, clients(), **kwargs)
    first.run(rounds=2)
    save_checkpoint(first, tmp_path / "run.npz")
    algo = _make(kind, model_fn, clients(), **kwargs)
    load_checkpoint(algo, tmp_path / "run.npz")
    algo.run(rounds=2)
    return algo


@pytest.fixture
def client_source(tiny_dataset, tiny_setting):
    """``clients()``: the four tiny clients; with ``virtual_root``, a
    pool of them over a spill store with two resident at a time."""
    _, parts = tiny_setting

    def clients(virtual_root=None):
        if virtual_root is None:
            return make_federated_clients(tiny_dataset, parts, batch_size=32,
                                          seed=5)
        factory = ShardedClientFactory(dataset=tiny_dataset, parts=parts,
                                       batch_size=32, seed=5)
        return VirtualClientPool(factory, len(parts),
                                 ClientStateStore(virtual_root),
                                 resident_limit=2)

    return clients


@pytest.mark.parametrize("drive", [_sync_partial, _faults, _pool, _async,
                                   _scale, _resumed],
                         ids=lambda f: f.__name__.lstrip("_"))
@pytest.mark.parametrize("kind", ["spatl", "spatl_rl", "scaffold"])
def test_shadow_client_holds_the_server_state(kind, drive, tmp_path,
                                              tiny_model_fn, client_source):
    algo = drive(kind, tiny_model_fn, client_source, tmp_path)
    shadows = [c.local_state["shadow"] for c in algo.clients
               if "shadow" in c.local_state]
    # some client came back, so some payload was a delta, not a cold send
    assert sum(s["syncs"] for s in shadows) > len(shadows)
    if kind != "scaffold":   # SCAFFOLD rewrites every row every round
        assert sum(s["row_deltas"] for s in shadows) > 0


def _scale_partial(kind, model_fn, clients, tmp_path):
    pool = clients(virtual_root=tmp_path / "store")
    algo = _make(kind, model_fn, pool.clients(), sample_ratio=0.5)
    runner = ScaleRunner(algo, pool=pool, spill_dir=tmp_path / "spills",
                         eval_mode="none")
    runner.run(4)
    runner.close()
    return algo


def _resumed_partial(kind, model_fn, clients, tmp_path):
    """The joiner's first contact comes after the restart: the checkpoint
    holds no word on who was born holding what, the content says it."""
    return _resumed(kind, model_fn, clients, tmp_path, sample_ratio=0.5)


@pytest.mark.parametrize("drive", [_sync_partial, _scale_partial,
                                   _resumed_partial],
                         ids=lambda f: f.__name__.lstrip("_"))
@pytest.mark.parametrize("kind", ["spatl", "spatl_rl", "scaffold"])
def test_late_joiner_is_not_sent_the_zeros_it_holds(kind, drive, tmp_path,
                                                    tiny_model_fn,
                                                    client_source):
    """Seed 0 at ``sample_ratio=0.5`` samples [1,2] [0,1] [0,1] [2,3]:
    client 3 first hears from the server at round 3, after three folds.
    The shadow mixin has already proven it reconstructs the state; here,
    what it was sent to do so."""
    algo = drive(kind, tiny_model_fn, client_source, tmp_path)
    first = algo.clients[3].local_state["shadow"]["first"]
    assert first["round"] == 3
    full = payload_nbytes(algo.downlink_state())
    row_deltas = [e for e in first["entries"]
                  if e.startswith("c.") and e.endswith(".idx")]
    if kind == "scaffold":
        # its variate step moves every row of c in the first fold, so
        # from round 1 on a joiner holds nothing of it (Table I's 2x)
        assert not row_deltas and first["nbytes"] == full
    else:
        # Eq. 11 moves c on uploaded filters only: the never-selected
        # rows are still the zeros the joiner initialised
        assert row_deltas
        assert first["nbytes"] < full


# ------------------------------------- a commit right after a resume
def _downlink(algo):
    return {r: dict(d) for r, d in algo.ledger.downlink.items()}


@pytest.fixture
def plain_clients(tiny_dataset, tiny_setting):
    _, parts = tiny_setting
    return lambda: make_federated_clients(tiny_dataset, parts, batch_size=32,
                                          seed=5)


@pytest.mark.parametrize("kind", ["spatl", "scaffold"])
def test_async_resume_whose_first_event_commits(kind, tmp_path, tiny_setting,
                                                plain_clients):
    """Saved with an update in the buffer and an upload next in line: the
    resumed run's first event commits before anything is downloaded.  The
    rows that commit rewrites must be stamped like any other, or the
    clients at the loaded version are owed — and charged — nothing."""
    model_fn, _ = tiny_setting

    def runner():
        return AsyncFederatedRunner(
            _make(kind, model_fn, plain_clients()),
            AsyncProfile(seed=5, jitter=0.3, arrival_spread=1.0),
            AsyncConfig(buffer_k=2, max_inflight=3, max_queue=3))

    first = runner()
    events = 0
    while not (first.server_step >= 1 and len(first.buffer) == 1
               and min(first.clock._heap)[2] == "upload"):
        assert first.pump(1) == 1 and events < 200
        events += 1
    version = first.algo.transport.versions.version
    assert any(c.local_state.get("synced") == version
               for c in first.algo.clients)
    save_async_checkpoint(first, tmp_path / "mid.npz")

    resumed = runner()
    load_async_checkpoint(resumed, tmp_path / "mid.npz")
    steps = resumed.server_step
    resumed.pump(1)
    assert resumed.server_step == steps + 1     # the first event committed
    resumed.run(steps=3)

    ref = runner()
    ref.pump(events)
    ref.run(steps=4)
    assert resumed.algo.transport.versions.version \
        == ref.algo.transport.versions.version
    assert _downlink(resumed.algo) == _downlink(ref.algo)


@pytest.mark.parametrize("kind", ["spatl", "scaffold"])
def test_scale_resume_with_nobody_left_to_fold(kind, tmp_path, tiny_setting,
                                               plain_clients):
    """A partial round checkpointed after its whole cohort was folded:
    the resumed runner finalizes without a single download."""
    model_fn, _ = tiny_setting

    def runner(name):
        return ScaleRunner(_make(kind, model_fn, plain_clients()),
                           spill_dir=tmp_path / name, eval_mode="none")

    ref = runner("ref")
    ref.run(3)
    first = runner("spills")
    first.run(1)
    first.run_round_partial(1, len(first.algo.clients))
    assert first._pending.remaining == []
    first.save_round_checkpoint(tmp_path / "round.npz")
    resumed = runner("spills")
    resumed.load_round_checkpoint(tmp_path / "round.npz")
    resumed.resume_round()
    resumed.run(1)
    assert resumed.algo.transport.versions.version \
        == ref.algo.transport.versions.version
    assert _downlink(resumed.algo) == _downlink(ref.algo)
    for r in (ref, first, resumed):
        r.close()


# ------------------------------------------------------- the commit rule
def test_failed_download_leaves_the_base_and_the_retry_resends_the_delta():
    algo = make_stub(n_clients=2, seed=1)
    client = algo.clients[0]
    algo.run_round(0)
    assert client.local_state["synced"] == 0
    algo.transport.new_round()
    real = algo.transport.download
    sent = []

    def flaky(round_idx, cid, payload, *args, **kwargs):
        sent.append(payload)
        if len(sent) == 1:
            raise TransferCorrupted(cid, round_idx, "down", ValueError("x"))
        return real(round_idx, cid, payload, *args, **kwargs)

    algo.transport.download = flaky
    with pytest.raises(TransferCorrupted):
        algo._download(client, 1)
    assert client.local_state["synced"] == 0
    algo._download(client, 1)
    assert client.local_state["synced"] == algo.transport.versions.version == 1
    assert sent[0] is sent[1]          # the memoised delta, not a rebuild
    algo.transport.download = real
    assert algo.download_payload(client) == {}


class _FirstAttemptFails(FaultModel):
    """Every client's first attempt of a round times out (``timeout``
    finite) or crashes mid-training (``crash_prob`` 1), after its
    download; the retry goes through."""

    def check_straggler(self, round_idx, cid, salt, attempt, epochs):
        if attempt == 0 and self.timeout == 1.0:
            raise StragglerTimeout(cid, round_idx, 2.0, self.timeout)

    def check_crash(self, round_idx, cid, salt, attempt):
        if attempt == 0 and self.crash_prob == 1.0:
            raise ClientCrashed(cid, round_idx, "first attempt")


@pytest.mark.parametrize("fault", [dict(timeout=1.0), dict(crash_prob=1.0)],
                         ids=["timeout", "crash"])
def test_a_device_keeps_its_download_when_its_training_fails(
        fault, tiny_clients, tiny_model_fn):
    """The base advances with the transfer, not with the training: a
    client that times out or crashes after its download retries from the
    version it was sent, and is charged the empty delta for it (the
    crash rollback snapshot is taken after the download).  Before the
    delta downlink a retry re-sent the full state."""
    algo = ALGORITHMS["fedavg"](
        tiny_model_fn, tiny_clients, lr=0.05, local_epochs=1, seed=0,
        fault_model=_FirstAttemptFails(seed=0, **fault),
        retry_policy=RetryPolicy(max_retries=1))
    full = len(serialize(algo.downlink_state(), checksums=True))
    empty = len(serialize({}, checksums=True))
    for r in range(2):     # a dense mean rewrites every row: round 1 is full
        algo.run_round(r)
        assert algo.ledger.downlink[r] == {
            c.client_id: full + empty for c in tiny_clients}
    assert algo.fault_stats.n_retries == 2 * len(tiny_clients)
    assert [c.local_state["synced"] for c in tiny_clients] \
        == [1] * len(tiny_clients)


# ------------------------------------------------- broadcast cache by base
def test_two_bases_in_one_round_get_their_own_blob():
    """Two clients of one round at different bases whose deltas have the
    same number of entries: the traced (cache-served) run must charge and
    deliver each its own payload.  Were ``base`` not compared on lookup,
    the second client would be served the first one's blob.  The channel
    still keeps one blob, not one per base."""
    state = {"a": np.zeros((4, 64), np.float32),
             "b": np.zeros((4, 8), np.float32)}

    def run(mode):
        transport = Transport(fault_model=FaultModel(seed=0)
                              if mode == "faulty" else None,
                              broadcast=None if mode == "plain"
                              else BroadcastCache())
        versions = transport.versions
        received = {}

        def send(cid, base):
            payload = versions.payload(lambda: state, base)
            received[cid] = dict(transport.download(1, cid, payload,
                                                    base=base))
            return versions.version

        state["a"][:] = 0
        state["b"][:] = 0
        base0 = send(0, None)                 # client 0 syncs at version 0
        state["a"][1] = 1.0
        transport.new_round()
        base1 = send(1, None)                 # client 1 syncs at version 1
        state["a"][2] = 2.0
        state["b"][3] = 3.0
        transport.new_round()
        received.clear()
        send(0, base0)                        # owed rows a[1], a[2], b[3]
        send(1, base1)                        # owed rows a[2], b[3]
        if transport.broadcast is not None:
            assert len(transport.broadcast._entries) == 1
        return received, dict(transport.ledger.downlink[1])

    with tracing():
        traced, traced_ledger = run("traced")
    faulty, faulty_ledger = run("faulty")
    plain, plain_ledger = run("plain")
    assert sorted(plain[0]) == sorted(plain[1]) \
        == ["a.idx", "a.val", "b.idx", "b.val"]      # same entry count
    assert traced_ledger == plain_ledger
    assert plain_ledger[0] > plain_ledger[1]
    for got in (traced, faulty):
        assert got[0]["a.idx"].tolist() == [1, 2]
        assert got[1]["a.idx"].tolist() == [2]
        np.testing.assert_array_equal(got[1]["a.val"], state["a"][[2]])
    # checksummed blobs are 4 bytes per entry longer, still per base
    assert faulty_ledger[0] - faulty_ledger[1] \
        == plain_ledger[0] - plain_ledger[1]


# ------------------------------------------------------ round 0 is cold
@pytest.mark.parametrize("name", [*ALGORITHMS, "spatl"])
def test_round_zero_is_the_full_state(name, tiny_clients, tiny_model_fn):
    kwargs = dict(lr=0.05, local_epochs=1, seed=0)
    algo = SPATL(tiny_model_fn, tiny_clients, **kwargs) if name == "spatl" \
        else ALGORITHMS[name](tiny_model_fn, tiny_clients, **kwargs)
    state = algo.downlink_state()
    full = payload_nbytes(state)
    cold = payload_nbytes({k: v for k, v in state.items()
                           if not k.startswith(algo.zero_born)})
    assert (cold < full) == (name in ("spatl", "scaffold"))
    # SalientGrads charges its mask bootstrap to round 0 at construction
    setup = dict(algo.ledger.downlink.get(0, {}))
    algo.run_round(0)
    assert algo.ledger.downlink[0] == {
        c.client_id: setup.get(c.client_id, 0) + cold
        for c in tiny_clients}, (
        "round 0 is the full state minus the zero-born entries: c⁰ = 0 on "
        "the server and on every joining client, so no c.* entry travels "
        "before Eq. 11 has moved it; for the six algorithms that declare "
        "none, cold == full and this is the parent's assertion")
    algo.run_round(1)
    assert all(n <= full for n in algo.ledger.downlink[1].values())
