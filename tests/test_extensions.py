"""Tests: Non-IID benchmark partition variants, fp16 wire compression,
FedTopK baseline, LEAF I/O."""

import numpy as np
import pytest

from repro.data import (SyntheticFEMNIST, apply_feature_noise,
                        feature_noise_levels, partition_summary,
                        quantity_label_skew, quantity_skew)
from repro.data.leaf import (export_leaf_json, leaf_statistics,
                             leaf_train_test_split, load_leaf_json)
from repro.fl import (FedAvg, FedTopK, dequantize_payload,
                      deserialize_state, make_federated_clients,
                      make_quant_config, payload_nbytes, quantize_payload,
                      serialize_state)
from repro.fl.topk import topk_mask

R = np.random.default_rng(0)


class TestQuantityLabelSkew:
    def test_partition_exact(self):
        labels = R.integers(0, 10, 600)
        parts = quantity_label_skew(labels, 6, k=2, seed=0)
        joined = np.sort(np.concatenate(parts))
        np.testing.assert_array_equal(joined, np.arange(600))

    def test_clients_hold_few_classes(self):
        labels = np.repeat(np.arange(10), 100)
        parts = quantity_label_skew(labels, 8, k=2, seed=0)
        class_counts = [len(np.unique(labels[p])) for p in parts]
        # most clients hold <= k classes (donor sample may add one)
        assert np.median(class_counts) <= 3

    def test_more_skewed_than_dirichlet_mild(self):
        labels = R.integers(0, 10, 2000)
        sharp = partition_summary(labels,
                                  quantity_label_skew(labels, 10, k=1, seed=1))
        assert sharp["mean_tv_distance"] > 0.7

    def test_k_validated(self):
        with pytest.raises(ValueError):
            quantity_label_skew(np.zeros(10, dtype=int), 2, k=0)


class TestQuantitySkew:
    def test_partition_exact_and_skewed(self):
        labels = R.integers(0, 10, 1000)
        parts = quantity_skew(labels, 6, beta=0.3, seed=0)
        joined = np.sort(np.concatenate(parts))
        np.testing.assert_array_equal(joined, np.arange(1000))
        sizes = np.asarray([len(p) for p in parts])
        assert sizes.max() > 2 * sizes.min()  # genuinely size-skewed

    def test_labels_stay_iidish(self):
        labels = np.repeat(np.arange(10), 200)
        parts = quantity_skew(labels, 4, beta=0.5, seed=0)
        s = partition_summary(labels, parts)
        assert s["mean_tv_distance"] < 0.2


class TestFeatureNoise:
    def test_levels_monotone(self):
        lv = feature_noise_levels(5, max_noise=0.5)
        assert len(lv) == 5
        assert np.all(np.diff(lv) > 0)
        assert lv[-1] == pytest.approx(0.5)

    def test_apply(self):
        x = np.zeros((10, 3, 4, 4), dtype=np.float32)
        noisy = apply_feature_noise(x, 0.3, np.random.default_rng(0))
        assert noisy.std() > 0.1
        same = apply_feature_noise(x, 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(same, x)


class TestQuantizedWire:
    """fp16 on the wire is ``quant=make_quant_config(16)``."""

    def test_roundtrip_halves_floats(self):
        state = {"w": R.normal(size=(64, 64)).astype(np.float32),
                 "idx": np.arange(10, dtype=np.int32)}
        q, _ = quantize_payload(state, make_quant_config(16),
                                np.random.default_rng(0))
        assert q["idx"] is state["idx"]
        assert payload_nbytes(q) < payload_nbytes(state) * 0.6
        back = dequantize_payload(q)
        assert back["w"].dtype == np.float32
        np.testing.assert_allclose(back["w"], state["w"], atol=1e-2)

    def test_fp16_survives_codec(self):
        state = {"w": R.normal(size=(64,)).astype(np.float32)}
        q, decoded = quantize_payload(state, make_quant_config(16),
                                      np.random.default_rng(0))
        out = dequantize_payload(deserialize_state(serialize_state(q)))
        np.testing.assert_array_equal(out["w"], decoded["w"])
        np.testing.assert_array_equal(out["w"],
                                      state["w"].astype(np.float16))

    def test_fedavg_trains_through_fp16(self, tiny_dataset, tiny_setting):
        model_fn, parts = tiny_setting
        clients = make_federated_clients(tiny_dataset, parts, seed=5)
        algo = FedAvg(model_fn, clients, lr=0.05, local_epochs=1, seed=0,
                      quant=make_quant_config(16))
        log = algo.run(rounds=3)
        assert log["val_acc"][-1] > 0.15
        # the fp16 payload must be roughly half the fp32 ledger rate
        plain = FedAvg(model_fn, make_federated_clients(
            tiny_dataset, parts, seed=5), lr=0.05, local_epochs=1, seed=0)
        plain.run_round(0)
        up16 = sum(algo.ledger.uplink[0].values())
        up32 = sum(plain.ledger.uplink[0].values())
        assert up16 < 0.6 * up32


class TestFedTopK:
    def test_topk_mask_picks_largest(self):
        d = np.asarray([[0.1, -5.0], [0.01, 2.0]])
        idx = topk_mask(d, 0.5)
        np.testing.assert_array_equal(idx, [1, 3])

    def test_fraction_validated(self, tiny_dataset, tiny_setting):
        model_fn, parts = tiny_setting
        clients = make_federated_clients(tiny_dataset, parts, seed=5)
        with pytest.raises(ValueError):
            FedTopK(model_fn, clients, lr=0.05, fraction=0.0)

    def test_uplink_smaller_than_fedavg(self, tiny_dataset, tiny_setting):
        model_fn, parts = tiny_setting
        clients = make_federated_clients(tiny_dataset, parts, seed=5)
        tk = FedTopK(model_fn, clients, lr=0.05, local_epochs=1,
                     fraction=0.1, seed=0)
        tk.run_round(0)
        fa = FedAvg(model_fn, make_federated_clients(tiny_dataset, parts,
                                                     seed=5),
                    lr=0.05, local_epochs=1, seed=0)
        fa.run_round(0)
        up_tk = sum(tk.ledger.uplink[0].values())
        up_fa = sum(fa.ledger.uplink[0].values())
        assert up_tk < 0.6 * up_fa

    def test_trains_with_error_feedback(self, tiny_dataset, tiny_setting):
        model_fn, parts = tiny_setting
        clients = make_federated_clients(tiny_dataset, parts, seed=5)
        algo = FedTopK(model_fn, clients, lr=0.05, local_epochs=1,
                       fraction=0.25, seed=0)
        log = algo.run(rounds=4)
        assert log["val_acc"][-1] > log["val_acc"][0] - 0.05
        # residuals were accumulated
        assert all("residual" in c.local_state for c in clients)

    def test_fraction_one_equals_fedavg_direction(self, tiny_dataset,
                                                  tiny_setting):
        # with fraction=1 the sparse aggregate equals dense weighted deltas
        model_fn, parts = tiny_setting
        clients_a = make_federated_clients(tiny_dataset, parts, seed=5)
        clients_b = make_federated_clients(tiny_dataset, parts, seed=5)
        tk = FedTopK(model_fn, clients_a, lr=0.05, local_epochs=1,
                     fraction=1.0, seed=0)
        fa = FedAvg(model_fn, clients_b, lr=0.05, local_epochs=1, seed=0)
        tk.run_round(0)
        fa.run_round(0)
        for (n, p1), (_, p2) in zip(tk.global_model.named_parameters(),
                                    fa.global_model.named_parameters()):
            np.testing.assert_allclose(p1.data, p2.data, atol=1e-5,
                                       err_msg=n)


class TestLeafIO:
    @pytest.fixture(scope="class")
    def femnist(self):
        return SyntheticFEMNIST(n_writers=5, samples_per_writer=12, size=14,
                                seed=2, num_classes=10)

    def test_export_import_roundtrip(self, tmp_path, femnist):
        path = tmp_path / "femnist.json"
        export_leaf_json(femnist, path)
        shards = load_leaf_json(path)
        assert len(shards) == 5
        total = sum(len(s) for s in shards.values())
        assert total == len(femnist)
        # content preserved for one writer
        w0 = np.flatnonzero(femnist.writer_ids == 0)
        np.testing.assert_allclose(shards["writer_0000"].x,
                                   femnist.x[w0], rtol=1e-6)
        np.testing.assert_array_equal(shards["writer_0000"].y,
                                      femnist.y[w0])

    def test_shape_override_required_without_metadata(self, tmp_path,
                                                      femnist):
        import json
        path = tmp_path / "raw.json"
        export_leaf_json(femnist, path)
        payload = json.loads(path.read_text())
        del payload["metadata"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_leaf_json(path)
        shards = load_leaf_json(path, shape=(1, 14, 14))
        assert shards["writer_0000"].x.shape[1:] == (1, 14, 14)

    def test_per_user_split(self, tmp_path, femnist):
        path = tmp_path / "f.json"
        export_leaf_json(femnist, path)
        shards = load_leaf_json(path)
        train, test = leaf_train_test_split(shards, 0.25, seed=0)
        for user in shards:
            assert len(train[user]) + len(test[user]) == len(shards[user])
            assert len(test[user]) >= 1

    def test_statistics(self, tmp_path, femnist):
        path = tmp_path / "f.json"
        export_leaf_json(femnist, path)
        stats = leaf_statistics(load_leaf_json(path))
        assert stats["num_users"] == 5
        assert stats["total_samples"] == 60
        assert stats["min_samples"] == stats["max_samples"] == 12
