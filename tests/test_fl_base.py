"""Unit tests: FL base loop, client construction, sampling, local training."""

import numpy as np
import pytest

from repro.data import SyntheticCIFAR10, dirichlet_partition
from repro.fl import Client, FedAvg, make_federated_clients, sample_clients
from repro.fl.local import train_local, weighted_average_states
from repro.models import build_model


class TestSampling:
    def _clients(self, n):
        ds = SyntheticCIFAR10(n_samples=20 * n, size=12, seed=0)
        parts = [np.arange(i * 20, (i + 1) * 20) for i in range(n)]
        return make_federated_clients(ds, parts, seed=0)

    def test_sample_count(self):
        clients = self._clients(10)
        assert len(sample_clients(clients, 0.4, seed=0, round_idx=0)) == 4
        assert len(sample_clients(clients, 1.0, seed=0, round_idx=0)) == 10

    def test_sample_distinct(self):
        clients = self._clients(10)
        chosen = sample_clients(clients, 0.7, seed=0, round_idx=3)
        ids = [c.client_id for c in chosen]
        assert len(set(ids)) == len(ids)

    def test_deterministic_per_round(self):
        clients = self._clients(10)
        a = [c.client_id for c in sample_clients(clients, 0.5, 1, 2)]
        b = [c.client_id for c in sample_clients(clients, 0.5, 1, 2)]
        assert a == b
        c = [c.client_id for c in sample_clients(clients, 0.5, 1, 3)]
        assert a != c  # different round, different draw (w.h.p.)

    def test_invalid_ratio(self):
        clients = self._clients(4)
        with pytest.raises(ValueError):
            sample_clients(clients, 0.0, 0, 0)
        with pytest.raises(ValueError):
            sample_clients(clients, 1.5, 0, 0)

    def test_at_least_one(self):
        clients = self._clients(4)
        assert len(sample_clients(clients, 0.01, 0, 0)) == 1


class TestClients:
    def test_make_federated_clients_splits(self):
        ds = SyntheticCIFAR10(n_samples=200, size=12, seed=0)
        parts = dirichlet_partition(ds.y, 4, beta=0.5, seed=0)
        clients = make_federated_clients(ds, parts, val_fraction=0.25, seed=0)
        assert len(clients) == 4
        for c, p in zip(clients, parts):
            assert len(c.train_data) + len(c.val_data) == len(p)
            assert len(c.val_data) >= 1

    def test_evaluate_returns_acc_and_loss(self, tiny_clients, tiny_model_fn):
        model = tiny_model_fn()
        acc, loss = tiny_clients[0].evaluate(model)
        assert 0.0 <= acc <= 1.0
        assert loss > 0

    def test_train_loader_deterministic(self, tiny_clients):
        c = tiny_clients[0]
        a = [yb.tolist() for _, yb in c.train_loader(5)]
        b = [yb.tolist() for _, yb in c.train_loader(5)]
        assert a == b


class TestLocalTraining:
    def test_reduces_loss(self, tiny_clients, tiny_model_fn):
        model = tiny_model_fn()
        loss1, steps, _ = train_local(model, tiny_clients[0], 0, epochs=1,
                                      lr=0.05)
        loss2, _, _ = train_local(model, tiny_clients[0], 1, epochs=2,
                                  lr=0.05)
        assert steps == len(tiny_clients[0].train_loader(0))
        assert loss2 < loss1

    def test_param_filter_restricts_updates(self, tiny_clients, tiny_model_fn):
        model = tiny_model_fn()
        enc_before = {n: p.data.copy()
                      for n, p in model.encoder.named_parameters()}
        train_local(model, tiny_clients[0], 0, epochs=1, lr=0.1,
                    param_filter=lambda n: n.startswith("predictor."))
        for n, p in model.encoder.named_parameters():
            np.testing.assert_array_equal(p.data, enc_before[n], err_msg=n)


class TestWeightedAverage:
    def test_exact_weighted_mean(self):
        s1 = {"w": np.asarray([0.0, 0.0], dtype=np.float32)}
        s2 = {"w": np.asarray([3.0, 6.0], dtype=np.float32)}
        avg = weighted_average_states([s1, s2], [1.0, 2.0])
        np.testing.assert_allclose(avg["w"], [2.0, 4.0])

    def test_integer_buffers_take_first(self):
        s1 = {"n": np.asarray(3, dtype=np.int64)}
        s2 = {"n": np.asarray(7, dtype=np.int64)}
        avg = weighted_average_states([s1, s2], [1.0, 1.0])
        assert avg["n"] == 3

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            weighted_average_states([], [])
        with pytest.raises(ValueError):
            weighted_average_states([{"a": np.ones(1)}], [1.0, 2.0])


class TestRunLoop:
    def test_target_stop(self, tiny_clients, tiny_model_fn):
        algo = FedAvg(tiny_model_fn, tiny_clients, lr=0.05, local_epochs=1,
                      seed=0)
        log = algo.run(rounds=30, target_accuracy=0.0)  # trivially reached
        assert len(log["val_acc"]) == 1
        assert log.meta["reached_target_at"] == 1

    def test_patience_stop(self, tiny_clients, tiny_model_fn):
        algo = FedAvg(tiny_model_fn, tiny_clients, lr=0.0, local_epochs=1,
                      seed=0)  # lr=0: accuracy frozen -> converges fast
        log = algo.run(rounds=30, patience=2)
        assert len(log["val_acc"]) <= 5
        assert "converged_at" in log.meta

    def test_run_resumes_round_numbering(self, tiny_clients, tiny_model_fn):
        algo = FedAvg(tiny_model_fn, tiny_clients, lr=0.05, local_epochs=1,
                      seed=0)
        algo.run(rounds=2)
        assert algo.rounds_completed == 2
        algo.run(rounds=1)
        assert algo.rounds_completed == 3

    def test_requires_clients(self, tiny_model_fn):
        with pytest.raises(ValueError):
            FedAvg(tiny_model_fn, [], lr=0.1)

    def test_log_has_comm_series(self, tiny_clients, tiny_model_fn):
        algo = FedAvg(tiny_model_fn, tiny_clients, lr=0.05, local_epochs=1,
                      seed=0)
        log = algo.run(rounds=2)
        assert len(log["round_gb"]) == 2
        assert log.meta["total_gb"] > 0
        assert log.meta["per_round_per_client_mb"] > 0

    def test_per_client_accuracy_length(self, tiny_clients, tiny_model_fn):
        algo = FedAvg(tiny_model_fn, tiny_clients, lr=0.05, local_epochs=1,
                      seed=0)
        algo.run(rounds=1)
        assert len(algo.per_client_accuracy()) == len(tiny_clients)

    def test_rounds_run_overwritten_on_resume(self, tiny_clients,
                                              tiny_model_fn):
        # regression: a setdefault kept the stale pre-resume count when the
        # same log object was reused across run() calls
        algo = FedAvg(tiny_model_fn, tiny_clients, lr=0.05, local_epochs=1,
                      seed=0)
        log = algo.run(rounds=2)
        assert log.meta["rounds_run"] == 2
        log = algo.run(rounds=1, log=log)
        assert log.meta["rounds_run"] == 3

    def test_empty_round_guard(self, tiny_clients, tiny_model_fn):
        algo = FedAvg(tiny_model_fn, tiny_clients, lr=0.05, local_epochs=1,
                      seed=0)
        with pytest.raises(ValueError):
            algo.aggregate([], 0)
