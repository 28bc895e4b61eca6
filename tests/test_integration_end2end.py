"""End-to-end integration tests crossing all subsystem boundaries."""

import numpy as np
import pytest

from repro.core import SPATL, RLSelectionPolicy
from repro.data import SyntheticFEMNIST, by_writer_partition
from repro.experiments import config_for, make_algorithm, make_setting
from repro.fl import make_federated_clients
from repro.fl.comm import deserialize_state, serialize_state
from repro.models import build_model
from repro.rl import SalientParameterAgent


class TestSPATLWithRLAgent:
    """The full paper pipeline: pre-trained agent inside the FL loop."""

    def test_rl_policy_round(self, tiny_dataset, tiny_setting):
        model_fn, parts = tiny_setting
        clients = make_federated_clients(tiny_dataset, parts, seed=5)
        agent = SalientParameterAgent(seed=0)
        policy = RLSelectionPolicy(agent, flops_target=0.8,
                                   finetune_rounds=1, finetune_updates=1,
                                   episodes_per_update=2, probe_size=64)
        algo = SPATL(model_fn, clients, selection_policy=policy,
                     lr=0.05, local_epochs=1, sample_ratio=0.5, seed=0)
        result = algo.run_round(0)
        assert np.isfinite(result.avg_val_acc)
        # the RL policy actually selected sparse subsets
        report = algo.inference_report()
        assert len(report) == result.n_participants
        for row in report.values():
            assert row["sparsity_ratio"] < 1.0
        # each participating client holds its own fine-tuned agent state
        tuned = [c for c in clients if "agent" in c.local_state]
        assert len(tuned) == result.n_participants
        assert all(c.local_state["agent"]["updates"] == 1 for c in tuned)

    def test_rl_policy_selection_respects_flops_target(self, tiny_dataset,
                                                       tiny_setting):
        model_fn, parts = tiny_setting
        clients = make_federated_clients(tiny_dataset, parts, seed=5)
        agent = SalientParameterAgent(seed=0)
        policy = RLSelectionPolicy(agent, flops_target=0.7,
                                   finetune_rounds=0, probe_size=64)
        algo = SPATL(model_fn, clients, selection_policy=policy,
                     lr=0.05, local_epochs=1, sample_ratio=0.5, seed=0)
        algo.run_round(0)
        report = algo.inference_report()
        assert report
        for row in report.values():
            assert row["flops_ratio"] <= 0.7 + 1e-6


class TestFEMNISTPipeline:
    def test_writer_partitioned_fl(self):
        ds = SyntheticFEMNIST(n_writers=12, samples_per_writer=30, size=16,
                              seed=3, num_classes=10)
        parts = by_writer_partition(ds.writer_ids, 4, seed=0)
        clients = make_federated_clients(ds, parts, batch_size=32, seed=0)

        def model_fn():
            return build_model("cnn2", num_classes=10, input_size=16,
                               width_mult=0.25, seed=1)

        algo = SPATL(model_fn, clients, lr=0.05, local_epochs=1,
                     sample_ratio=1.0, seed=0)
        log = algo.run(rounds=3)
        assert len(log["val_acc"]) == 3
        assert log["val_acc"][-1] > 0.05


class TestDeterminism:
    def test_same_seed_same_curve(self):
        cfg = config_for("tiny", n_clients=3, n_samples=400, local_epochs=1,
                         seed=9)
        curves = []
        for _ in range(2):
            model_fn, clients = make_setting(cfg)
            algo = make_algorithm("spatl", cfg, model_fn, clients)
            log = algo.run(rounds=2)
            curves.append(log["val_acc"])
        np.testing.assert_allclose(curves[0], curves[1], atol=1e-12)

    def test_different_seed_different_curve(self):
        logs = []
        for seed in (1, 2):
            cfg = config_for("tiny", n_clients=3, n_samples=400,
                             local_epochs=1, seed=seed)
            model_fn, clients = make_setting(cfg)
            algo = make_algorithm("fedavg", cfg, model_fn, clients)
            logs.append(algo.run(rounds=2)["val_acc"])
        assert logs[0] != logs[1]


class TestWireLevelRoundtrip:
    """Payloads survive real serialisation: what the ledger counts is what
    a network would carry."""

    def test_spatl_upload_serializes(self, tiny_dataset, tiny_setting):
        model_fn, parts = tiny_setting
        clients = make_federated_clients(tiny_dataset, parts, seed=5)
        algo = SPATL(model_fn, clients, lr=0.05, local_epochs=1, seed=0)
        update = algo.local_update(clients[0], 0)
        payload = algo.upload_payload(update)
        wire = serialize_state(payload)
        back = deserialize_state(wire)
        assert set(back) == set(payload)
        for k in payload:
            np.testing.assert_array_equal(back[k], payload[k], err_msg=k)

    def test_download_serializes(self, tiny_dataset, tiny_setting):
        model_fn, parts = tiny_setting
        clients = make_federated_clients(tiny_dataset, parts, seed=5)
        algo = SPATL(model_fn, clients, lr=0.05, local_epochs=1, seed=0)
        payload = algo.download_payload(clients[0])
        back = deserialize_state(serialize_state(payload))
        assert set(back) == set(payload)
