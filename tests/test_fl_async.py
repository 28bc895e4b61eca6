"""Asynchronous runtime: determinism, sync equivalence, buffering, admission.

Protocol-level properties run on the cheap :mod:`repro.fl.stub`
algorithm (microseconds per simulated step); the bitwise sync-equivalence
checks run the real FedAvg/SPATL training stack on the shared tiny
setting, since byte identity across two different server loops is
exactly the kind of claim that must be tested on the real numerics.
"""

import math

import numpy as np
import pytest

from repro.core.aggregation import salient_aggregate
from repro.fl import (AsyncConfig, AsyncFederatedRunner, AsyncProfile,
                      FaultModel, VirtualClock, serialize_state,
                      state_fingerprint, staleness_weight)
from repro.fl.stub import StubAvg, make_stub
from repro.obs import Tracer, set_tracer

from tests import matrix


def _stub_runner(n_clients=12, seed=3, profile=None, **cfg_kw):
    cfg_kw.setdefault("buffer_k", 3)
    cfg_kw.setdefault("max_inflight", 6)
    cfg_kw.setdefault("max_queue", 6)
    profile = profile or AsyncProfile(seed=seed, **matrix.HOSTILE)
    algo = make_stub(n_clients=n_clients, seed=seed)
    return AsyncFederatedRunner(algo, profile, AsyncConfig(**cfg_kw))


class TestAsyncProfile:
    def test_draws_deterministic_and_keyed(self):
        a = AsyncProfile(seed=9, jitter=0.5, straggler_prob=0.5,
                         crash_prob=0.5, duplicate_prob=0.5, churn_prob=0.5)
        b = AsyncProfile(seed=9, jitter=0.5, straggler_prob=0.5,
                         crash_prob=0.5, duplicate_prob=0.5, churn_prob=0.5)
        for cid in range(4):
            for job in range(4):
                assert a.duration(cid, job, 2) == b.duration(cid, job, 2)
                assert a.crashes(cid, job) == b.crashes(cid, job)
                assert a.duplicate_lag(cid, job) == b.duplicate_lag(cid, job)
                assert a.rejoin_after(cid, job) == b.rejoin_after(cid, job)
        # different jobs draw independently
        durations = {a.duration(0, j, 2) for j in range(8)}
        assert len(durations) > 1

    def test_uniform_durations_without_jitter(self):
        p = AsyncProfile(seed=1)
        assert p.duration(0, 0, 3) == p.duration(7, 5, 3) == 3.0
        assert p.first_arrival(2) == 0.0
        assert p.crashes(1, 1) is False
        assert p.duplicate_lag(1, 1) is None
        assert p.rejoin_after(1, 1) == (0.0, False)

    def test_validation(self):
        with pytest.raises(ValueError):
            AsyncProfile(mean_latency=0.0)
        with pytest.raises(ValueError):
            AsyncProfile(jitter=1.0)
        with pytest.raises(ValueError):
            AsyncProfile(crash_prob=1.5)


class TestVirtualClock:
    def test_orders_by_time_then_schedule_seq(self):
        clock = VirtualClock()
        clock.schedule(2.0, "b", {"i": 0})
        clock.schedule(1.0, "a", {"i": 1})
        clock.schedule(1.0, "a", {"i": 2})
        seen = [clock.pop() for _ in range(3)]
        assert [d["i"] for _, d in seen] == [1, 2, 0]
        assert clock.now == 2.0

    def test_rejects_scheduling_into_the_past(self):
        clock = VirtualClock()
        clock.schedule(5.0, "x", {})
        clock.pop()
        with pytest.raises(ValueError):
            clock.schedule(4.0, "x", {})

    def test_snapshot_restore_roundtrip(self):
        clock = VirtualClock()
        for t in (3.0, 1.0, 2.0):
            clock.schedule(t, "e", {"t": t})
        clock.pop()
        restored = VirtualClock.restore(clock.snapshot())
        assert restored.now == clock.now
        assert [restored.pop() for _ in range(2)] \
            == [clock.pop() for _ in range(2)]


class TestStalenessWeight:
    def test_exact_values(self):
        assert staleness_weight(0, 0.5) == 1.0
        assert staleness_weight(3, 1.0) == 0.25
        assert staleness_weight(1, 0.5) == pytest.approx(1 / math.sqrt(2))
        assert staleness_weight(5, 0.0) == 1.0  # alpha=0 disables discount

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            staleness_weight(-1, 0.5)


class TestAsyncConfigValidation:
    @pytest.mark.parametrize("kw", [dict(buffer_k=0), dict(max_inflight=0),
                                    dict(max_queue=-1), dict(commit_deadline=0),
                                    dict(staleness_alpha=-0.1),
                                    dict(eval_every=-1)])
    def test_bad_values(self, kw):
        with pytest.raises(ValueError):
            AsyncConfig(**kw)

    def test_fault_model_is_rejected_not_half_applied(self):
        """The runner sends through the algorithm's transport, so a
        ``FaultModel`` there would corrupt async transfers nobody retries;
        async failures come from the ``AsyncProfile``."""
        algo = make_stub(n_clients=2, fault_model=FaultModel(corrupt_prob=0.5))
        with pytest.raises(ValueError, match="AsyncProfile"):
            AsyncFederatedRunner(algo, AsyncProfile(seed=0))


class TestDeterminism:
    def test_same_seed_same_everything(self):
        runs = []
        for _ in range(2):
            runner = _stub_runner()
            runner.run(steps=40)
            runs.append((
                state_fingerprint(dict(
                    runner.algo.global_model.state_dict())),
                dict(runner.counters), runner.clock.now,
                runner.algo.ledger.total_bytes(),
                [(r.step, r.n_updates, r.max_staleness, r.time)
                 for r in runner.step_results]))
        assert runs[0] == runs[1]

    def test_different_seed_differs(self):
        a = _stub_runner(seed=3)
        b = _stub_runner(seed=4)
        a.run(steps=20)
        b.run(steps=20)
        assert a.clock.now != b.clock.now or a.counters != b.counters


class TestSyncEquivalence:
    """buffer_k == cohort + uniform durations bitwise-reproduces sync."""

    @staticmethod
    def _async(algo, rounds):
        n = len(algo.clients)
        runner = AsyncFederatedRunner(
            algo, AsyncProfile(seed=5),
            AsyncConfig(buffer_k=n, max_inflight=n))
        results = runner.run(steps=rounds)
        assert all(r.max_staleness == 0 for r in results)
        assert all(r.n_updates == n for r in results)
        return algo

    def test_fedavg_bitwise(self):
        sync = matrix.reference("resume/fedavg-sync")    # two sync rounds
        async_algo = self._async(matrix.algorithm("fedavg"), rounds=2)
        assert serialize_state(dict(async_algo.global_model.state_dict())) \
            == sync.model
        assert async_algo.ledger.total_bytes() == sync.ledger_bytes

    def test_spatl_bitwise(self):
        sync_algo = matrix.algorithm("spatl", sparsity=0.5)
        sync_algo.run(2)
        async_algo = self._async(matrix.algorithm("spatl", sparsity=0.5),
                                 rounds=2)
        assert serialize_state(dict(sync_algo.global_model.state_dict())) \
            == serialize_state(dict(async_algo.global_model.state_dict()))
        assert sync_algo.ledger.total_bytes() \
            == async_algo.ledger.total_bytes()

    def test_stub_bitwise_across_many_rounds(self):
        sync_algo = make_stub(n_clients=6, seed=2)
        for r in range(8):
            sync_algo.run_round(r)
        async_algo = make_stub(n_clients=6, seed=2)
        runner = AsyncFederatedRunner(
            async_algo, AsyncProfile(seed=1),
            AsyncConfig(buffer_k=6, max_inflight=6))
        runner.run(steps=8)
        assert state_fingerprint(dict(sync_algo.global_model.state_dict())) \
            == state_fingerprint(dict(async_algo.global_model.state_dict()))


class TestAdmissionControl:
    def test_inflight_never_exceeds_cap(self):
        runner = _stub_runner(max_inflight=3, max_queue=4)
        original = runner._dispatch

        seen = []

        def spy(cid):
            original(cid)
            seen.append(len(runner.inflight))

        runner._dispatch = spy
        runner.run(steps=30)
        assert seen and max(seen) <= 3

    def test_rejection_backoff_when_queue_full(self):
        runner = _stub_runner(n_clients=12, max_inflight=1, max_queue=0)
        runner.run(steps=10)
        assert runner.counters["rejected"] > 0
        assert runner.server_step == 10  # rejected clients re-arrive

    def test_queue_is_fifo_in_dispatch_order(self):
        # 4 clients, 1 slot: dispatch order must follow arrival order.
        runner = _stub_runner(n_clients=4, seed=0, max_inflight=1,
                              max_queue=4, buffer_k=1,
                              profile=AsyncProfile(seed=0))
        order = []
        original = runner._dispatch
        runner._dispatch = lambda cid: (order.append(cid), original(cid))
        runner.run(steps=8)
        assert order[:4] == [0, 1, 2, 3]


class TestDedupAndBufferInvariant:
    def test_duplicates_never_double_commit_or_charge(self):
        profile = AsyncProfile(seed=6, duplicate_prob=1.0,
                               duplicate_delay=0.5)
        runner = _stub_runner(n_clients=6, profile=profile, buffer_k=2,
                              max_inflight=6)
        runner.run(steps=12)
        c = runner.counters
        assert c["deduped"] > 0
        # every accepted upload commits exactly once; duplicates vanish
        assert c["accepted"] == c["committed"] + len(runner.buffer)
        # ledger: one uplink charge per *accepted* upload
        up_entries = sum(len(d) for d in runner.algo.ledger.uplink.values())
        assert up_entries <= c["accepted"]  # (same round+client merges)

    def test_dedup_eviction_counter_exported_to_metrics(self):
        """FIFO evictions of the bounded fingerprint registry land in both
        ``runner.dedup_evictions`` and the ``async.dedup_evictions``
        registry counter."""
        from repro.obs.metrics import MetricsRegistry, set_registry

        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            runner = _stub_runner(n_clients=6, profile=AsyncProfile(seed=2),
                                  dedup_capacity=1)
            runner.run(steps=10)
        finally:
            set_registry(previous)
        assert runner.dedup_evictions > 0
        assert len(runner._fp_registry) <= 1
        counters = registry.snapshot()["counters"]
        assert counters.get("async.dedup_evictions") \
            == runner.dedup_evictions

    def test_losing_job_drops_its_update(self):
        """A job whose upload another job of its client already delivered
        is deduped and never commits, so its update is not kept either."""
        class Constant(StubAvg):
            def local_update(self, client, round_idx):
                state = {k: np.full_like(v, client.client_id)
                         for k, v in self.global_model.state_dict().items()}
                return {"state": state, "n": 1, "train_loss": 0.0,
                        "steps": 1}

        ref = make_stub(n_clients=1, seed=0)
        runner = AsyncFederatedRunner(
            Constant(ref.model_fn, ref.clients, seed=0, local_epochs=1),
            AsyncProfile(seed=0), AsyncConfig(buffer_k=1, max_inflight=1))
        # arrive, upload (job 0 commits), re-arrive, upload: job 1
        # repeats job 0's bytes
        assert runner.pump(4) == 4
        assert runner.counters["deduped"] == 1
        assert runner.counters["dispatched"] == 2
        loser = runner.jobs[1]
        assert not loser.accepted and loser.fingerprint is not None
        assert loser.update is None

    def test_deduped_job_ends_and_its_client_returns(self):
        """A job deduped by content has ended like an accepted one: its
        in-flight slot is freed, the queue drains into it and its client
        re-arrives, so the run reaches its commits."""
        class Repeating(StubAvg):
            def local_update(self, client, round_idx):
                # each client's jobs 0 and 1 upload the same bytes
                state = {k: np.full_like(v, round_idx // 2)
                         for k, v in self.global_model.state_dict().items()}
                return {"state": state, "n": 1, "train_loss": 0.0,
                        "steps": 1}

        ref = make_stub(n_clients=2, seed=0)
        runner = AsyncFederatedRunner(
            Repeating(ref.model_fn, ref.clients, seed=0, local_epochs=1),
            AsyncProfile(seed=0),
            AsyncConfig(buffer_k=1, max_inflight=1, max_queue=2))
        results = runner.run(steps=4)
        assert len(results) == 4 and not runner.stalled
        c = runner.counters
        assert c["deduped"] >= 1
        assert c["trained"] == c["accepted"] + c["deduped"]
        assert c["trained"] == \
            c["dispatched"] - c["crashed"] - len(runner.inflight)
        deduped = [j for j in runner.jobs.values()
                   if j.fingerprint is not None and not j.accepted]
        assert deduped and all(j.job_id not in runner.inflight
                               for j in deduped)

    def test_buffer_invariant_under_hostility(self):
        runner = _stub_runner()
        runner.run(steps=50)
        c = runner.counters
        assert c["committed"] + len(runner.buffer) == c["accepted"]
        # every dispatched job ends exactly one way: still in flight (and
        # untrained), crashed, or delivered — trained, then accepted or
        # deduped by content (repeat deliveries never re-enter here)
        assert c["trained"] \
            == c["dispatched"] - c["crashed"] - len(runner.inflight)
        delivered = [j for j in runner.jobs.values()
                     if j.fingerprint is not None]
        assert c["trained"] == len(delivered)
        assert c["accepted"] == sum(j.accepted for j in delivered)
        assert not any(runner.jobs[j].update is not None
                       for j in runner.inflight)


class TestDeadlineCommits:
    def test_deadline_fires_when_buffer_starves(self):
        # buffer_k larger than the cohort: only the deadline can commit.
        runner = _stub_runner(n_clients=4, buffer_k=100, max_inflight=4,
                              commit_deadline=3.0,
                              profile=AsyncProfile(seed=2, rejoin_delay=1.0))
        runner.run(steps=3)
        assert runner.server_step == 3
        assert runner.counters["deadline_commits"] == 3
        assert all(r.deadline_commit for r in runner.step_results)

    def test_stale_deadline_is_idempotent(self):
        # deadline armed, then buffer_k commit happens first: the late
        # deadline event must not commit a second time.
        runner = _stub_runner(n_clients=6, buffer_k=2, max_inflight=6,
                              commit_deadline=50.0,
                              profile=AsyncProfile(seed=2))
        runner.run(steps=6)
        assert runner.counters["deadline_commits"] == 0
        assert runner.server_step == 6

    def test_partial_flush_on_stall(self):
        # every job crashes: no uploads, so the run stalls; flush_final
        # has nothing to commit and the runner reports the stall.
        runner = _stub_runner(n_clients=4, buffer_k=2,
                              profile=AsyncProfile(seed=1, crash_prob=1.0))
        results = runner.run(steps=2, max_events=500)
        assert runner.stalled
        assert results == []
        assert runner.counters["crashed"] > 0

    def test_partial_flush_commits_leftover_buffer(self):
        # budget of 2 events covers exactly one arrive + one upload: the
        # buffer holds 1 < buffer_k when the budget runs out, and
        # flush_final commits the partial buffer.
        runner = _stub_runner(n_clients=1, buffer_k=2, max_inflight=1,
                              profile=AsyncProfile(seed=1))
        results = runner.run(steps=1, max_events=2)
        assert runner.stalled
        assert len(results) == 1 and results[0].partial
        assert results[0].n_updates == 1


class TestStalenessWeighting:
    def test_alpha_changes_aggregation(self):
        def run(alpha):
            runner = _stub_runner(seed=11, staleness_alpha=alpha)
            runner.run(steps=30)
            hist_max = max((r.max_staleness for r in runner.step_results),
                           default=0)
            return hist_max, state_fingerprint(dict(
                runner.algo.global_model.state_dict()))

        s0, fp0 = run(0.0)
        s1, fp1 = run(2.0)
        assert s0 > 0  # the hostile profile actually produces staleness
        assert fp0 != fp1  # discounting changed the trajectory

    def test_base_weighted_aggregate_scales_n(self):
        algo = make_stub(n_clients=3, seed=0)
        updates = [algo.local_update(c, 0) for c in algo.clients]
        ref = make_stub(n_clients=3, seed=0)
        scaled = [dict(u, n=u["n"] * w)
                  for u, w in zip(updates, (1.0, 0.5, 0.25))]
        ref.aggregate(scaled, 0)
        algo.aggregate_weighted(updates, [1.0, 0.5, 0.25], 0)
        assert state_fingerprint(dict(algo.global_model.state_dict())) \
            == state_fingerprint(dict(ref.global_model.state_dict()))

    def test_all_ones_delegates_bitwise(self):
        a = make_stub(n_clients=3, seed=0)
        b = make_stub(n_clients=3, seed=0)
        updates = [a.local_update(c, 0) for c in a.clients]
        a.aggregate(updates, 0)
        b.aggregate_weighted(updates, [1.0, 1.0, 1.0], 0)
        assert state_fingerprint(dict(a.global_model.state_dict())) \
            == state_fingerprint(dict(b.global_model.state_dict()))

    def test_weight_validation(self):
        algo = make_stub(n_clients=2, seed=0)
        updates = [algo.local_update(c, 0) for c in algo.clients]
        with pytest.raises(ValueError):
            algo.aggregate_weighted(updates, [1.0], 0)
        with pytest.raises(ValueError):
            algo.aggregate_weighted(updates, [1.0, 0.0], 0)


class TestWeightedSalientAggregate:
    def test_weighted_mean_math(self):
        rng = np.random.default_rng(0)
        global_w = rng.standard_normal((6, 3)).astype(np.float32)
        up_a = (np.array([0, 2]), rng.standard_normal((2, 3)))
        up_b = (np.array([0, 4]), rng.standard_normal((2, 3)))
        w_a, w_b = 1.0, 0.25
        out = salient_aggregate(global_w, [up_a, up_b],
                                weights=[w_a, w_b])
        # row 0 covered by both: weighted mean of the diffs
        expect0 = global_w[0] + (
            w_a * (up_a[1][0] - global_w[0])
            + w_b * (up_b[1][0] - global_w[0])) / (w_a + w_b)
        np.testing.assert_allclose(out[0], expect0, rtol=1e-6)
        # row 2 only client a (weight cancels), row 4 only client b
        np.testing.assert_allclose(out[2], up_a[1][1], rtol=1e-6)
        np.testing.assert_allclose(out[4], up_b[1][1], rtol=1e-6)
        # uncovered rows untouched
        np.testing.assert_array_equal(out[1], global_w[1])

    def test_unit_weights_match_unweighted_closely(self):
        """Unit weights are bitwise ``weights=None`` — duplicate indices
        included: ``1.0 * diff`` is exact and integer coverage sums are
        exact in float64, so one fold body serves sync and async."""
        rng = np.random.default_rng(1)
        global_w = rng.standard_normal((8, 4)).astype(np.float32)
        uploads = [(np.array([0, 3, 5]), rng.standard_normal((3, 4))),
                   (np.array([3, 5, 7]), rng.standard_normal((3, 4))),
                   (np.array([1, 1, 6]), rng.standard_normal((3, 4)))]
        a = salient_aggregate(global_w, uploads)
        b = salient_aggregate(global_w, uploads, weights=[1.0, 1.0, 1.0])
        np.testing.assert_array_equal(a, b)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            salient_aggregate(np.zeros((4, 2)),
                              [(np.array([0]), np.zeros((1, 2)))],
                              weights=[1.0, 2.0])


class TestObservabilityParity:
    def test_tracing_does_not_change_results(self):
        untraced = _stub_runner(seed=9)
        untraced.run(steps=20)
        traced = _stub_runner(seed=9)
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            traced.run(steps=20)
        finally:
            set_tracer(previous)
        assert state_fingerprint(dict(
            untraced.algo.global_model.state_dict())) \
            == state_fingerprint(dict(traced.algo.global_model.state_dict()))
        assert untraced.counters == traced.counters


class TestFinalize:
    def test_never_delivering_clients_count_once(self):
        runner = _stub_runner(n_clients=4,
                              profile=AsyncProfile(seed=1, crash_prob=1.0),
                              buffer_k=2)
        runner.run(steps=2, max_events=400)
        assert runner.counters["crashed"] > 4  # clients crashed repeatedly
        runner.finalize()
        stats = runner.algo.fault_stats
        assert stats.n_dropped == 4          # distinct clients, not crashes
        assert stats.n_crashes == runner.counters["crashed"]

    def test_delivering_clients_not_dropped(self):
        runner = _stub_runner(seed=3)
        runner.run(steps=30)
        delivered = {runner.jobs[j].client_id
                     for j in runner._fp_registry.values()}
        runner.finalize()
        assert runner.algo.fault_stats.n_dropped \
            == len(runner._clients) - len(delivered)


class TestRunMisc:
    def test_run_validates_steps(self):
        with pytest.raises(ValueError):
            _stub_runner().run(steps=0)

    def test_pump_then_run_matches_straight_run(self):
        straight = _stub_runner(seed=13)
        straight.run(steps=25)
        chunked = _stub_runner(seed=13)
        chunked.pump(37)
        chunked.run(steps=25 - chunked.server_step)
        assert state_fingerprint(dict(
            straight.algo.global_model.state_dict())) \
            == state_fingerprint(dict(
                chunked.algo.global_model.state_dict()))
        assert straight.counters == chunked.counters
        assert straight.clock.now == chunked.clock.now
