"""Integration tests: experiment configs and harness (tiny footprints)."""

import numpy as np
import pytest

from repro.experiments import (ExperimentConfig, compare_table, config_for,
                               make_algorithm, make_fault_model, make_setting,
                               run_algorithms, train)
from repro.experiments.ablation import stability
from repro.experiments.communication import (CostRow, cost_rows,
                                             paper_scale_mb_per_round,
                                             render_cost_table)
from repro.experiments.configs import make_dataset
from repro.experiments.registry import Base, serve


class TestConfig:
    def test_scales_exist(self):
        for scale in ("tiny", "small", "paper"):
            cfg = config_for(scale)
            assert isinstance(cfg, ExperimentConfig)
        with pytest.raises(KeyError):
            config_for("huge")

    def test_overrides(self):
        cfg = config_for("tiny", n_clients=3, model="vgg11")
        assert cfg.n_clients == 3 and cfg.model == "vgg11"

    def test_scaled_method(self):
        cfg = config_for("tiny").scaled(lr=0.5)
        assert cfg.lr == 0.5

    def test_make_dataset_dispatch(self):
        cifar = make_dataset(config_for("tiny", n_samples=100))
        assert cifar.x.shape[1] == 3
        fem = make_dataset(config_for("tiny", dataset="femnist",
                                      n_samples=200, n_clients=2,
                                      num_classes=10, input_size=16))
        assert fem.x.shape[1] == 1
        with pytest.raises(KeyError):
            make_dataset(config_for("tiny", dataset="imagenet"))

    def test_make_setting_deterministic_model(self):
        cfg = config_for("tiny", n_samples=200, n_clients=2)
        model_fn, clients = make_setting(cfg)
        m1, m2 = model_fn(), model_fn()
        for (n, p1), (_, p2) in zip(m1.named_parameters(),
                                    m2.named_parameters()):
            np.testing.assert_array_equal(p1.data, p2.data, err_msg=n)
        assert len(clients) == 2

    def test_make_algorithm_all_names(self):
        cfg = config_for("tiny", n_samples=200, n_clients=2)
        model_fn, clients = make_setting(cfg)
        for name in ("fedavg", "fedprox", "fednova", "scaffold", "spatl"):
            algo = make_algorithm(name, cfg, model_fn, clients)
            assert algo.name == name
        with pytest.raises(KeyError):
            make_algorithm("sgd", cfg, model_fn, clients)


class TestFaultConfig:
    def test_faults_off_by_default(self):
        cfg = config_for("tiny")
        assert not cfg.faults_enabled
        assert make_fault_model(cfg) is None

    def test_fault_model_built_from_knobs(self):
        cfg = config_for("tiny", fault_drop_prob=0.2, fault_corrupt_prob=0.01,
                         fault_timeout=6.0, seed=7)
        assert cfg.faults_enabled
        fm = make_fault_model(cfg)
        assert fm is not None
        assert fm.drop_prob == pytest.approx(0.2)
        assert fm.corrupt_prob == pytest.approx(0.01)
        assert fm.timeout == pytest.approx(6.0)
        assert fm.seed == 7  # defaults to cfg.seed
        fm2 = make_fault_model(cfg.scaled(fault_seed=99))
        assert fm2.seed == 99

    def test_degradation_curve_smoke(self):
        base = Base(shrink=(("local_epochs", 1), ("n_clients", 2),
                            ("n_samples", 300), ("rounds", 1)))
        results = serve(base, ["fault_degradation"])[0]["fault_degradation"]
        assert set(results) == {(m, p) for m in ("fedavg", "spatl")
                                for p in (0.0, 0.3)}
        for method in ("fedavg", "spatl"):
            clean = results[(method, 0.0)]
            assert clean["n_dropped"] == 0 and clean["n_corrupt"] == 0
        assert all(0.0 <= r["final_acc"] <= 1.0 and r["rounds_run"] == 1
                   for r in results.values())


class TestHarness:
    @pytest.fixture(scope="class")
    def small_results(self):
        cfg = config_for("tiny", n_samples=400, n_clients=3, local_epochs=1)
        return run_algorithms(cfg, ["fedavg", "spatl"], rounds=2)

    def test_runs_and_collects(self, small_results):
        assert set(small_results) == {"fedavg", "spatl"}
        for log in small_results.values():
            assert len(log["val_acc"]) == 2
            assert "per_client_acc" in log.meta

    def test_compare_table_renders(self, small_results):
        out = compare_table(small_results, target_accuracy=0.5)
        assert "fedavg" in out and "spatl" in out
        assert "MB/round/client" in out

    def test_spatl_has_inference_meta(self, small_results):
        assert "inference" in small_results["spatl"].meta


class TestCommunicationHelpers:
    def test_paper_scale_mb(self):
        fedavg = paper_scale_mb_per_round("fedavg", "resnet20")
        scaffold = paper_scale_mb_per_round("scaffold", "resnet20")
        assert scaffold == pytest.approx(2 * fedavg)
        spatl = paper_scale_mb_per_round("spatl", "resnet20",
                                         measured_ratio=2.5)
        assert fedavg < spatl < scaffold * 1.5

    def test_render_cost_table(self):
        rows = [CostRow("fedavg", "resnet20", 10, 5, True, 2.0, 0.1, 1.0,
                        0.8, 0.0)]
        out = render_cost_table(rows, "Table I")
        assert "fedavg" in out and "Table I" in out

    def test_table1_tiny(self):
        cfg = config_for("tiny", n_samples=400, n_clients=3, local_epochs=1,
                         rounds=2)
        rows = cost_rows(cfg, {m: train(cfg, m, target_accuracy=0.99).log
                               for m in ("fedavg", "spatl")}, target=0.99)
        assert len(rows) == 2
        assert all(not r.reached_target for r in rows)
        assert all(r.total_gb > 0 for r in rows)


def test_stability_metric():
    assert stability([0.5, 0.5, 0.5]) == 0.0
    assert stability([0.0, 1.0, 0.0]) == pytest.approx(1.0)
    assert stability([0.5]) == 0.0
