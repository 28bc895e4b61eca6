"""The delta downlink, end to end (DESIGN.md §5.1).

The downlink matrix's algorithms (``tests/matrix.py``) carry a test-only
*shadow client* in ``client.local_state`` — so it follows the client
through worker pickles, crash rollbacks, the spill store and checkpoints
exactly like ``synced`` does — that applies every payload the client is
sent and asserts, at every participation, that what it holds is
byte-equal to the server's full downlink state.  It starts from the
client half's :func:`~repro.fl.wire.cold_cache` — the zeros a joining
client initialises ``c`` to — so a first contact reconstructs the state
without having been sent them.  It runs over SPATL (static and RL policy)
and SCAFFOLD on every driver, late joiners included.  Around it: the
``synced`` commit rule, the per-base broadcast cache key, and round-0
bytes against the full state for all eight algorithms.
"""

import numpy as np
import pytest

from repro.fl import (ALGORITHMS, AsyncConfig, AsyncFederatedRunner,
                      AsyncProfile, FaultModel, ScaleRunner, payload_nbytes)
from repro.fl.checkpoint import load_async_checkpoint, save_async_checkpoint
from repro.fl.comm import Transport
from repro.fl.resilience import (ClientCrashed, RetryPolicy,
                                 StragglerTimeout, TransferCorrupted)
from repro.fl.scale import decode_client_state
from repro.fl.stub import make_stub
from repro.fl.wire import BroadcastCache, serialize
from repro.obs import tracing

from tests import matrix


def _shadows(ref):
    return [state["shadow"] for state in map(decode_client_state, ref.clients)
            if "shadow" in state]


@pytest.mark.parametrize("cell", matrix.params(
    "downlink", "sync_partial", "faults", "pool", "async", "scale",
    "resumed", "async_faults"))
def test_shadow_client_holds_the_server_state(cell):
    ref = matrix.reference(cell)     # its shadows asserted every download
    if cell.faults:
        assert ref.fault_stats["n_retries"] > 0 \
            and ref.fault_stats["n_corrupt"] > 0
    if isinstance(cell.driver, matrix.Async):
        assert ref.extra["counters"]["deduped"] > 0
    shadows = _shadows(ref)
    # some client came back, so some payload was a delta, not a cold send
    assert sum(s["syncs"] for s in shadows) > len(shadows)
    if cell.algorithm != "scaffold":  # SCAFFOLD rewrites every row each round
        assert sum(s["row_deltas"] for s in shadows) > 0


@pytest.mark.parametrize("cell", matrix.params(
    "downlink", "sync_partial", "scale_partial", "resumed_partial"))
def test_late_joiner_is_not_sent_the_zeros_it_holds(cell):
    """Seed 0 at ``sample_ratio=0.5`` samples [1,2] [0,1] [0,1] [2,3]:
    client 3 first hears from the server at round 3, after three folds
    (``resumed_partial``: after the restart, so the checkpoint holds no
    word on who was born holding what; the content says it).  The shadow
    client has already proven it reconstructs the state; here, what it
    was sent to do so."""
    ref = matrix.reference(cell)
    first = decode_client_state(ref.clients[3])["shadow"]["first"]
    assert first["round"] == 3
    row_deltas = [e for e in first["entries"]
                  if e.startswith("c.") and e.endswith(".idx")]
    if cell.algorithm == "scaffold":
        # its variate step moves every row of c in the first fold, so
        # from round 1 on a joiner holds nothing of it (Table I's 2x)
        assert not row_deltas and first["nbytes"] == ref.downlink_nbytes
    else:
        # Eq. 11 moves c on uploaded filters only: the never-selected
        # rows are still the zeros the joiner initialised
        assert row_deltas
        assert first["nbytes"] < ref.downlink_nbytes


# ------------------------------------- a commit right after a resume
def _downlink(algo):
    return {r: dict(d) for r, d in algo.ledger.downlink.items()}


@pytest.mark.parametrize("kind", ["spatl", "scaffold"])
def test_async_resume_whose_first_event_commits(kind, tmp_path):
    """Saved with an update in the buffer and an upload next in line: the
    resumed run's first event commits before anything is downloaded.  The
    rows that commit rewrites must be stamped like any other, or the
    clients at the loaded version are owed — and charged — nothing."""
    def runner():
        return AsyncFederatedRunner(
            matrix.algorithm(kind, shadowed=True),
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
    matrix.save_unchanged(save_async_checkpoint, first, tmp_path / "mid.npz")

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
def test_scale_resume_with_nobody_left_to_fold(kind, tmp_path):
    """A partial round checkpointed after its whole cohort was folded:
    the resumed runner finalizes without a single download."""
    def runner(name):
        return ScaleRunner(matrix.algorithm(kind, shadowed=True),
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
    same number of entries: the checksummed (cache-served) run must charge
    and deliver each its own payload.  Were ``base`` not compared on
    lookup, the second client would be served the first one's blob.  The
    channel still keeps one blob, not one per base.  A traced fault-free
    run never consults the cache and charges what an untraced one does."""
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
            assert len(transport.broadcast._entries) \
                == (1 if mode == "faulty" else 0)
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
def test_round_zero_is_the_full_state(name, tmp_path):
    """Read off the resume matrix's two-round sync reference; the fresh
    algorithm says what round 0 must send."""
    cell = f"resume/{name}-sync"
    algo = matrix.build(cell, tmp_path)
    downlink = matrix.reference(cell).ledger[1]
    state = algo.downlink_state()
    full = payload_nbytes(state)
    cold = payload_nbytes({k: v for k, v in state.items()
                           if not k.startswith(algo.zero_born)})
    assert (cold < full) == (name in ("spatl", "scaffold"))
    # SalientGrads charges its mask bootstrap to round 0 at construction
    setup = dict(algo.ledger.downlink.get(0, {}))
    assert downlink[0] == {
        c.client_id: setup.get(c.client_id, 0) + cold
        for c in algo.clients}, (
        "round 0 is the full state minus the zero-born entries: c⁰ = 0 on "
        "the server and on every joining client, so no c.* entry travels "
        "before Eq. 11 has moved it; for the six algorithms that declare "
        "none, cold == full and this is the parent's assertion")
    assert all(n <= full for n in downlink[1].values())
