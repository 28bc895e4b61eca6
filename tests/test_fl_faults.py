"""Fault injection + fault tolerance: drops, stragglers, corruption, quorum.

Covers the ISSUE-1 acceptance criteria: faulty runs complete without
exceptions, every corrupted payload is *detected* (zero silent
acceptances), retried bytes are charged to the ledger, degradation under
drop_prob=0.3 stays bounded, and the fault path is strictly opt-in.
"""

import dataclasses
import pickle
import warnings

import numpy as np
import pytest

from repro.core import SPATL, RLSelectionPolicy, StaticSaliencyPolicy
from repro.fl import (AsyncConfig, AsyncProfile, FaultModel, FedAvg,
                      RetryPolicy, Scaffold, StragglerTimeout,
                      TransferCorrupted, Transport, VirtualClock,
                      deserialize_state, make_federated_clients,
                      serialize_state)
from repro.fl.resilience import ClientCrashed, ClientDropped, FaultStats
from repro.fl.wire import PayloadError
from repro.rl import SalientParameterAgent


@pytest.fixture
def ten_clients(tiny_dataset):
    """Equal 10-way split of the shared tiny dataset."""
    order = np.random.default_rng(0).permutation(len(tiny_dataset))
    parts = np.array_split(order, 10)
    return make_federated_clients(tiny_dataset, parts, batch_size=32, seed=5)


def _fedavg(model_fn, clients, **kwargs):
    kwargs.setdefault("lr", 0.05)
    kwargs.setdefault("local_epochs", 1)
    kwargs.setdefault("seed", 0)
    return FedAvg(model_fn, clients, **kwargs)


class TestFaultModel:
    def test_deterministic_draws(self):
        fm1 = FaultModel(drop_prob=0.5, seed=42)
        fm2 = FaultModel(drop_prob=0.5, seed=42)
        for args in [(0, 1, 0, 0), (3, 2, 1, 2), (7, 0, 0, 1)]:
            r1 = r2 = False
            try:
                fm1.check_available(*args)
            except ClientDropped:
                r1 = True
            try:
                fm2.check_available(*args)
            except ClientDropped:
                r2 = True
            assert r1 == r2

    def test_retry_sees_fresh_draw(self):
        # With p=0.5 some (round, client) pairs drop on attempt 0 but not 1.
        fm = FaultModel(drop_prob=0.5, seed=1)
        flipped = 0
        for cid in range(40):
            outcomes = []
            for attempt in (0, 1):
                try:
                    fm.check_available(0, cid, 0, attempt)
                    outcomes.append(False)
                except ClientDropped:
                    outcomes.append(True)
            flipped += outcomes[0] != outcomes[1]
        assert flipped > 0

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            FaultModel(drop_prob=1.5)
        with pytest.raises(ValueError):
            FaultModel(corrupt_prob=-0.1)
        with pytest.raises(ValueError):
            FaultModel(slowdown=0.5)

    def test_straggler_timeout_fires(self):
        fm = FaultModel(timeout=0.5, seed=0)  # even factor 1.0 misses 0.5
        with pytest.raises(StragglerTimeout) as exc:
            fm.check_straggler(0, 3, 0, 0, local_epochs=1)
        assert exc.value.duration > exc.value.timeout

    def test_no_timeout_by_default(self):
        FaultModel(straggler_prob=1.0, seed=0).check_straggler(
            0, 3, 0, 0, local_epochs=100)  # inf deadline: never raises

    def test_corrupt_flips_bits_deterministically(self):
        fm = FaultModel(corrupt_prob=1.0, seed=9)
        blob = serialize_state({"w": np.ones(8, dtype=np.float32)},
                               checksums=True)
        a = fm.corrupt(blob, 0, 0, 0, 0, "up")
        b = fm.corrupt(blob, 0, 0, 0, 0, "up")
        assert a == b and a != blob
        c = fm.corrupt(blob, 0, 0, 0, 1, "up")  # fresh attempt, fresh draw
        assert c != a or c == blob or True  # draws independent; no crash


class TestRetryPolicy:
    def test_capped_exponential(self):
        p = RetryPolicy(max_retries=5, base_delay=1.0, backoff_factor=2.0,
                        max_delay=5.0)
        assert [p.delay(a) for a in range(4)] == [1.0, 2.0, 4.0, 5.0]
        assert p.max_attempts == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.0)


# Every float field of the four knob classes, each reachable from a CLI
# float flag: NaN fails every comparison, so a ``<`` check let it through.
_BAD_KNOBS = [
    *((cls, f.name, float("nan"))
      for cls in (FaultModel, AsyncProfile, AsyncConfig, RetryPolicy)
      for f in dataclasses.fields(cls) if f.type in ("float", "float | None")),
    (FaultModel, "timeout", 0.0), (FaultModel, "timeout", -1.0),
]


@pytest.mark.parametrize("cls,field,bad", _BAD_KNOBS, ids=[
    f"{cls.__name__}.{field}={bad}" for cls, field, bad in _BAD_KNOBS])
def test_bad_float_knob_is_refused(cls, field, bad):
    with pytest.raises(ValueError):
        cls(**{field: bad})


def test_clock_refuses_a_non_finite_time():
    """An infinite latency fails loudly instead of parking events at inf."""
    for at in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="non-finite"):
            VirtualClock().schedule(at, "arrive", {})


class TestTransport:
    def test_every_corruption_detected(self):
        """Zero silent acceptances over many corrupted transfers."""
        fm = FaultModel(corrupt_prob=1.0, seed=3)
        transport = Transport(fm)
        state = {"w": np.random.default_rng(0).normal(
            size=(4, 3, 3, 3)).astype(np.float32),
            "idx": np.arange(6, dtype=np.int32)}
        detected = 0
        for attempt in range(100):
            blob = serialize_state(state, checksums=True)
            mutated = fm.corrupt(blob, 0, 0, 0, attempt, "up") != blob
            try:
                out = transport.upload(0, 0, state, salt=0, attempt=attempt)
                # accepted: only legal if the fault model left bytes intact
                assert not mutated, "silent acceptance of corrupted payload"
                for k in state:
                    np.testing.assert_array_equal(out[k], state[k])
            except TransferCorrupted:
                assert mutated
                detected += 1
        assert detected == 100  # corrupt_prob=1 mutates every transfer

    def test_retried_bytes_charged(self):
        transport = Transport(FaultModel(corrupt_prob=1.0, seed=3))
        ledger = transport.ledger
        state = {"w": np.ones((8, 8), dtype=np.float32)}
        wire_len = len(serialize_state(state, checksums=True))
        for attempt in range(3):
            with pytest.raises(TransferCorrupted):
                transport.download(2, 7, state, salt=0, attempt=attempt)
        assert ledger.downlink[2][7] == 3 * wire_len

    def test_clean_transport_roundtrips(self):
        transport = Transport(FaultModel(seed=0))
        ledger = transport.ledger
        state = {"w": np.arange(6, dtype=np.float64)}
        out = transport.upload(0, 1, state)
        np.testing.assert_array_equal(out["w"], state["w"])
        assert ledger.uplink[0][1] == len(serialize_state(state,
                                                          checksums=True))


class TestRoundLoop:
    def test_all_dropped_round_is_skipped_cleanly(self, ten_clients,
                                                  tiny_model_fn):
        algo = _fedavg(tiny_model_fn, ten_clients,
                       fault_model=FaultModel(drop_prob=1.0, seed=1),
                       retry_policy=RetryPolicy(max_retries=1),
                       max_round_resamples=2)
        before = {n: p.data.copy()
                  for n, p in algo.global_model.named_parameters()}
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # nanmean([]) would warn
            result = algo.run_round(0)
        assert not result.committed
        assert result.n_participants == 0
        assert result.n_resamples == 2
        assert np.isnan(result.avg_train_loss)
        assert algo.rounds_completed == 1
        for n, p in algo.global_model.named_parameters():
            np.testing.assert_array_equal(p.data, before[n], err_msg=n)

    def test_quorum_commits_with_survivors(self, ten_clients, tiny_model_fn):
        algo = _fedavg(tiny_model_fn, ten_clients, sample_ratio=0.5,
                       fault_model=FaultModel(drop_prob=0.4, seed=2),
                       retry_policy=RetryPolicy(max_retries=0),
                       min_clients=2, max_round_resamples=3)
        result = algo.run_round(0)
        if result.committed:
            assert result.n_participants >= 2
        else:
            assert result.n_participants < 2

    def test_crash_rolls_back_client_state(self, tiny_dataset, tiny_setting):
        model_fn, parts = tiny_setting
        clients = make_federated_clients(tiny_dataset, parts, seed=5)
        algo = Scaffold(model_fn, clients, lr=0.05, local_epochs=1, seed=0,
                        fault_model=FaultModel(crash_prob=1.0, seed=4),
                        retry_policy=RetryPolicy(max_retries=1))
        result = algo.run_round(0)
        assert not result.committed
        # every attempt crashed after training; c_i must be rolled back
        for client in clients:
            assert "c_i" not in client.local_state
        assert algo.fault_stats.n_crashes > 0

    def test_crash_then_retry_rolls_back_the_rl_agent(self, tiny_dataset,
                                                      tiny_setting):
        """The fine-tuned agent is part of ``local_state``, so a crash
        rolls it back with everything else: after the retry each client
        has fine-tuned once — same arrays, PPO update count and
        participation count as the same round without the crash."""
        model_fn, parts = tiny_setting

        class CrashFirstAttempt(FaultModel):
            def check_crash(self, round_idx, client_id, salt, attempt):
                if attempt == 0:
                    raise ClientCrashed(client_id, round_idx, "forced")

        def run(fault_model):
            policy = RLSelectionPolicy(
                SalientParameterAgent(seed=0), flops_target=0.8,
                finetune_rounds=2, finetune_updates=1,
                episodes_per_update=2, probe_size=32)
            algo = SPATL(model_fn,
                         make_federated_clients(tiny_dataset, parts, seed=5),
                         selection_policy=policy, lr=0.05, local_epochs=1,
                         seed=0, fault_model=fault_model,
                         retry_policy=RetryPolicy(max_retries=1))
            assert algo.run_round(0).committed
            return algo

        crashed, clean = run(CrashFirstAttempt(seed=4)), run(FaultModel(seed=4))
        assert crashed.fault_stats.n_crashes == len(parts)
        assert clean.fault_stats.n_crashes == 0
        for retried, once in zip(crashed.clients, clean.clients):
            got, want = retried.local_state["agent"], once.local_state["agent"]
            assert got["updates"] == want["updates"] == 1
            assert got["participations"] == want["participations"] == 1
            assert list(got["policy"]) == list(want["policy"])
            for name, value in want["policy"].items():
                np.testing.assert_array_equal(got["policy"][name], value,
                                              err_msg=name)

    def test_fault_counters_in_log(self, ten_clients, tiny_model_fn):
        algo = _fedavg(tiny_model_fn, ten_clients, sample_ratio=0.3,
                       fault_model=FaultModel(drop_prob=0.5, seed=6),
                       retry_policy=RetryPolicy(max_retries=1))
        log = algo.run(rounds=2)
        assert len(log["n_dropped"]) == 2
        assert "fault_totals" in log.meta
        totals = log.meta["fault_totals"]
        assert totals["n_retries"] >= 0
        assert log.meta["rounds_run"] == 2

    def test_no_fault_model_logs_no_fault_series(self, ten_clients,
                                                 tiny_model_fn):
        log = _fedavg(tiny_model_fn, ten_clients).run(rounds=1)
        assert "n_dropped" not in log
        assert "fault_totals" not in log.meta


class TestOptIn:
    def test_zero_fault_model_matches_fault_free_run(self, tiny_dataset,
                                                     tiny_setting):
        """Sampling, training, and accuracy streams are untouched by an
        all-zero fault model (the fault path is strictly opt-in)."""
        model_fn, parts = tiny_setting
        ref = _fedavg(model_fn,
                      make_federated_clients(tiny_dataset, parts, seed=5))
        log_ref = ref.run(rounds=2)
        faulty = _fedavg(model_fn,
                         make_federated_clients(tiny_dataset, parts, seed=5),
                         fault_model=FaultModel(seed=123))
        log_f = faulty.run(rounds=2)
        assert log_ref["val_acc"] == log_f["val_acc"]
        for (n, p1), (_, p2) in zip(ref.global_model.named_parameters(),
                                    faulty.global_model.named_parameters()):
            np.testing.assert_array_equal(p1.data, p2.data, err_msg=n)


class TestAcceptance:
    """ISSUE-1 acceptance: 10-client SPATL and FedAvg under
    FaultModel(drop_prob=0.3, corrupt_prob=0.05)."""

    DROP, CORRUPT, ROUNDS = 0.3, 0.05, 3

    def _run(self, algo_cls, model_fn, clients, fault_model, **kw):
        algo = algo_cls(model_fn, clients, lr=0.05, local_epochs=1, seed=0,
                        sample_ratio=0.7, fault_model=fault_model,
                        retry_policy=RetryPolicy(max_retries=2),
                        min_clients=2, **kw)
        return algo, algo.run(rounds=self.ROUNDS)

    @pytest.mark.parametrize("algo_cls,extra", [
        (FedAvg, {}),
        (SPATL, {"selection_policy": StaticSaliencyPolicy(0.3)}),
    ])
    def test_degradation_bounded_and_all_corruption_detected(
            self, algo_cls, extra, tiny_dataset, tiny_model_fn, monkeypatch):
        order = np.random.default_rng(0).permutation(len(tiny_dataset))
        parts = np.array_split(order, 10)

        # instrument corrupt() to count actual byte mutations
        mutations = []
        orig = FaultModel.corrupt

        def spy(self, blob, *args, **kwargs):
            out = orig(self, blob, *args, **kwargs)
            if out != blob:
                mutations.append(1)
            return out

        monkeypatch.setattr(FaultModel, "corrupt", spy)

        fm = FaultModel(drop_prob=self.DROP, corrupt_prob=self.CORRUPT,
                        seed=11)
        clients = make_federated_clients(tiny_dataset, parts, seed=5)
        algo, log = self._run(algo_cls, tiny_model_fn, clients, fm, **extra)

        # completes all rounds without exceptions
        assert log.meta["rounds_run"] == self.ROUNDS
        assert len(log["val_acc"]) == self.ROUNDS

        # zero silent acceptances: every byte mutation was detected
        assert algo.fault_stats.n_corrupt == len(mutations)

        # retried bytes are charged: ledger grows beyond one clean pass
        if algo.fault_stats.n_retries:
            assert algo.ledger.total_bytes() > 0

        # fault-free reference at the same seed
        ref_clients = make_federated_clients(tiny_dataset, parts, seed=5)
        ref = algo_cls(tiny_model_fn, ref_clients, lr=0.05, local_epochs=1,
                       seed=0, sample_ratio=0.7, **extra)
        ref_log = ref.run(rounds=self.ROUNDS)
        assert abs(ref_log.last("val_acc") - log.last("val_acc")) <= 0.10


class TestFaultStats:
    def test_merge_and_roundtrip(self):
        a = FaultStats(n_dropped=1, n_retries=2, backoff_time=1.5)
        b = FaultStats(n_dropped=2, n_corrupt=3)
        a.merge(b)
        assert a.n_dropped == 3 and a.n_corrupt == 3 and a.n_retries == 2
        again = FaultStats.from_dict(a.as_dict())
        assert again == a

    def test_from_dict_ignores_unknown_keys(self):
        stats = FaultStats.from_dict({"n_dropped": 4, "bogus": 9})
        assert stats.n_dropped == 4

    def test_staged_drops_count_distinct_clients(self):
        """ISSUE-6 satellite: a client re-dropped across quorum re-samples
        is one dropped client, not one per failed iteration."""
        stats = FaultStats()
        for _ in range(3):  # same client fails three re-sample iterations
            stats.record_failure(ClientDropped(4, 0, "offline"))
        stats.record_failure(ClientDropped(9, 0, "offline"))
        stats.finalize_drops()
        assert stats.n_dropped == 2

    def test_delivery_withdraws_staged_drop(self):
        """Failed-then-delivered (retry succeeded after a re-sample) is
        not a drop; delivery also blocks later staging for that client."""
        stats = FaultStats()
        stats.record_failure(ClientDropped(4, 0, "offline"))
        stats.record_delivery(4)
        stats.record_failure(ClientDropped(4, 0, "offline again"))
        stats.finalize_drops()
        assert stats.n_dropped == 0

    def test_finalize_is_idempotent(self):
        stats = FaultStats()
        stats.record_failure(ClientDropped(1, 0, "offline"))
        stats.finalize_drops()
        stats.finalize_drops()
        assert stats.n_dropped == 1
        # next round's staging starts clean
        stats.record_delivery(1)
        stats.record_failure(ClientDropped(1, 1, "offline"))
        stats.finalize_drops()
        assert stats.n_dropped == 1


class TestFailureContext:
    """ISSUE-6 satellite: entry/offset codec context rides typed failures."""

    def _corrupt_payload_error(self):
        state = {"w": np.arange(12, dtype=np.float32).reshape(3, 4)}
        blob = bytearray(serialize_state(state, checksums=True))
        blob[-2] ^= 0xFF  # flip inside the last entry's array bytes
        with pytest.raises(PayloadError) as err:
            deserialize_state(bytes(blob), checksums=True)
        return err.value

    def test_payload_error_names_entry_and_offset(self):
        cause = self._corrupt_payload_error()
        assert cause.entry == "w"
        assert isinstance(cause.offset, int) and cause.offset > 0
        assert "'w'" in str(cause) and "offset" in str(cause)

    def test_transfer_corrupted_lifts_codec_context(self):
        cause = self._corrupt_payload_error()
        failure = TransferCorrupted(3, 7, "up", cause)
        assert failure.entry == cause.entry
        assert failure.offset == cause.offset
        # non-codec causes leave the context empty
        plain = TransferCorrupted(3, 7, "down", ValueError("checksum"))
        assert plain.entry is None and plain.offset is None

    def test_failures_pickle_with_context(self):
        cause = self._corrupt_payload_error()
        for failure in (
                TransferCorrupted(3, 7, "up", cause),
                StragglerTimeout(2, 1, 9.5, 4.0, entry="w", offset=64),
                ClientDropped(5, 2, "offline")):
            clone = pickle.loads(pickle.dumps(failure))
            assert type(clone) is type(failure)
            assert (clone.client_id, clone.round_idx) \
                == (failure.client_id, failure.round_idx)
            assert (clone.entry, clone.offset) \
                == (failure.entry, failure.offset)
            assert str(failure.reason) in str(clone)
