"""Unit + property tests: datasets, partitioners, dataloader."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import (ArrayDataset, DataLoader, SyntheticCIFAR10,
                        SyntheticFEMNIST, by_writer_partition,
                        dirichlet_partition, iid_partition, partition_summary,
                        shard_partition, train_val_split)


class TestArrayDataset:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((3, 1, 2, 2)), np.zeros(4))

    def test_subset(self):
        ds = ArrayDataset(np.arange(12).reshape(3, 1, 2, 2), np.asarray([0, 1, 2]))
        sub = ds.subset([2, 0])
        np.testing.assert_array_equal(sub.y, [2, 0])

    def test_class_counts(self):
        ds = ArrayDataset(np.zeros((4, 1, 1, 1)), np.asarray([0, 0, 1, 2]))
        np.testing.assert_array_equal(ds.class_counts(4), [2, 1, 1, 0])


class TestSyntheticCIFAR:
    def test_shapes_and_types(self):
        ds = SyntheticCIFAR10(n_samples=100, size=16, seed=0)
        assert ds.x.shape == (100, 3, 16, 16)
        assert ds.x.dtype == np.float32
        assert ds.y.dtype == np.int64
        assert ds.y.min() >= 0 and ds.y.max() < 10

    @pytest.mark.parametrize("shape", [(1, 3, 4, 4), (300, 3, 32, 32),
                                       (513, 3, 12, 12), (7, 2, 5, 3)])
    def test_channel_std_is_numpy_std_bitwise(self, shape):
        """The row-sequential std that spares a full-size temporary."""
        from repro.data.datasets import _channel_std
        x = np.random.default_rng(shape[0]).normal(
            0.3, 1.7, size=shape).astype(np.float32)
        mu = x.mean(axis=(0, 2, 3), keepdims=True)
        got = _channel_std(x, mu)
        want = x.std(axis=(0, 2, 3), keepdims=True)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_deterministic(self):
        a = SyntheticCIFAR10(n_samples=50, size=16, seed=5)
        b = SyntheticCIFAR10(n_samples=50, size=16, seed=5)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_seed_changes_data(self):
        a = SyntheticCIFAR10(n_samples=50, size=16, seed=5)
        b = SyntheticCIFAR10(n_samples=50, size=16, seed=6)
        assert not np.array_equal(a.x, b.x)

    def test_split_changes_instances_not_classes(self):
        tr = SyntheticCIFAR10(n_samples=50, size=16, seed=5, split="train")
        te = SyntheticCIFAR10(n_samples=50, size=16, seed=5, split="test")
        assert not np.array_equal(tr.x, te.x)

    def test_standardized(self):
        ds = SyntheticCIFAR10(n_samples=500, size=16, seed=1)
        np.testing.assert_allclose(ds.x.mean(axis=(0, 2, 3)), np.zeros(3),
                                   atol=1e-3)
        np.testing.assert_allclose(ds.x.std(axis=(0, 2, 3)), np.ones(3),
                                   atol=1e-2)

    @pytest.mark.parametrize("size", [16, 32])
    def test_in_place_construction_equals_one_shot_formula(self, size):
        """Rolling into the output, chunked noise draws and in-place
        standardisation are the one-shot formula bit for bit — for an
        ``n_samples`` the noise chunk does not divide."""
        from repro.data import datasets
        from repro.utils.rng import spawn_rng
        n = 2 * datasets._NOISE_ROWS + 37
        ds = SyntheticCIFAR10(n_samples=n, size=size, seed=3)
        templates = datasets._make_prototypes(
            spawn_rng(3, "cifar", "prototypes"), 10, 3, size, 4)
        rng = spawn_rng(3, "cifar", "instances", "train")
        y = rng.integers(0, 10, size=n)
        x = templates[y, rng.integers(0, 4, size=n)].copy()
        shifts = rng.integers(-size // 8, size // 8 + 1, size=(n, 2))
        for i, (dy, dx) in enumerate(shifts):
            x[i] = np.roll(x[i], (int(dy), int(dx)), axis=(1, 2))
        x += rng.normal(0.0, 0.9, size=x.shape).astype(np.float32)
        mu = x.mean(axis=(0, 2, 3), keepdims=True)
        sd = x.std(axis=(0, 2, 3), keepdims=True) + 1e-6
        np.testing.assert_array_equal(ds.x, (x - mu) / sd)
        np.testing.assert_array_equal(ds.y, y)

    def test_classes_distinguishable_by_mean_template(self):
        # nearest-class-mean classifier must beat chance by a wide margin
        ds = SyntheticCIFAR10(n_samples=1500, size=16, seed=2, noise=0.9)
        flat = ds.x.reshape(len(ds), -1)
        means = np.stack([flat[ds.y == k].mean(axis=0) for k in range(10)])
        pred = np.argmax(flat @ means.T - 0.5 * (means ** 2).sum(1), axis=1)
        assert (pred == ds.y).mean() > 0.4  # chance = 0.1


class TestSyntheticFEMNIST:
    def test_writers_and_shapes(self):
        ds = SyntheticFEMNIST(n_writers=8, samples_per_writer=20, size=28,
                              seed=0, num_classes=20)
        assert ds.x.shape == (160, 1, 28, 28)
        assert len(np.unique(ds.writer_ids)) == 8

    def test_writer_class_skew(self):
        # writers use skewed class subsets — per-writer label distributions
        # must differ from uniform
        ds = SyntheticFEMNIST(n_writers=6, samples_per_writer=60, seed=0,
                              num_classes=10)
        summaries = partition_summary(
            ds.y, [np.flatnonzero(ds.writer_ids == w) for w in range(6)], 10)
        assert summaries["mean_tv_distance"] > 0.2

    def test_deterministic(self):
        a = SyntheticFEMNIST(n_writers=3, samples_per_writer=10, seed=4)
        b = SyntheticFEMNIST(n_writers=3, samples_per_writer=10, seed=4)
        np.testing.assert_array_equal(a.x, b.x)


class TestTrainValSplit:
    def test_disjoint_and_complete(self):
        ds = SyntheticCIFAR10(n_samples=100, size=16, seed=0)
        tr, va = train_val_split(ds, 0.2, seed=1)
        assert len(tr) + len(va) == 100
        assert len(va) == 20

    def test_invalid_fraction(self):
        ds = SyntheticCIFAR10(n_samples=10, size=16, seed=0)
        with pytest.raises(ValueError):
            train_val_split(ds, 1.5)


class TestDirichletPartition:
    def test_complete_and_disjoint(self):
        labels = np.random.default_rng(0).integers(0, 10, 500)
        parts = dirichlet_partition(labels, 8, beta=0.5, seed=0)
        all_idx = np.concatenate(parts)
        assert len(all_idx) == 500
        assert len(np.unique(all_idx)) == 500

    def test_min_size_respected(self):
        labels = np.random.default_rng(0).integers(0, 10, 500)
        parts = dirichlet_partition(labels, 8, beta=0.1, seed=0, min_size=5)
        assert min(len(p) for p in parts) >= 5

    def test_beta_controls_skew(self):
        labels = np.random.default_rng(0).integers(0, 10, 2000)
        skewed = partition_summary(labels, dirichlet_partition(
            labels, 10, beta=0.1, seed=1))["mean_tv_distance"]
        mild = partition_summary(labels, dirichlet_partition(
            labels, 10, beta=10.0, seed=1))["mean_tv_distance"]
        assert skewed > mild + 0.1

    def test_validates_args(self):
        labels = np.zeros(10, dtype=int)
        with pytest.raises(ValueError):
            dirichlet_partition(labels, 0)
        with pytest.raises(ValueError):
            dirichlet_partition(labels, 2, beta=-1)

    def test_impossible_min_size_raises(self):
        labels = np.zeros(4, dtype=int)
        with pytest.raises(RuntimeError):
            dirichlet_partition(labels, 4, beta=0.5, min_size=10,
                                max_retries=3)

    @given(st.integers(2, 12), st.floats(0.1, 5.0))
    @settings(max_examples=15, deadline=None)
    def test_property_partition_is_exact(self, n_clients, beta):
        labels = np.random.default_rng(42).integers(0, 5, 300)
        parts = dirichlet_partition(labels, n_clients, beta=beta, seed=7,
                                    min_size=1)
        joined = np.sort(np.concatenate(parts))
        np.testing.assert_array_equal(joined, np.arange(300))


class TestOtherPartitions:
    def test_iid_near_equal(self):
        labels = np.zeros(100, dtype=int)
        parts = iid_partition(labels, 7, seed=0)
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_shard_pathological(self):
        labels = np.repeat(np.arange(10), 50)
        parts = shard_partition(labels, 10, shards_per_client=2, seed=0)
        # each client sees at most 2 (often fewer distinct) classes... at
        # most the classes spanned by two contiguous shards
        for p in parts:
            assert len(np.unique(labels[p])) <= 4
        assert sum(len(p) for p in parts) == 500

    def test_by_writer_keeps_writers_whole(self):
        writer_ids = np.repeat(np.arange(6), 10)
        parts = by_writer_partition(writer_ids, 3, seed=0)
        for p in parts:
            writers_here = np.unique(writer_ids[p])
            for w in writers_here:
                assert np.isin(np.flatnonzero(writer_ids == w), p).all()

    def test_too_few_writers_raises(self):
        with pytest.raises(ValueError):
            by_writer_partition(np.zeros(10, dtype=int), 2)


class TestDataLoader:
    def _ds(self, n=20):
        return ArrayDataset(np.arange(n * 4).reshape(n, 1, 2, 2),
                            np.arange(n) % 3)

    def test_covers_everything(self):
        loader = DataLoader(self._ds(), batch_size=6, seed=0)
        seen = np.concatenate([yb for _, yb in loader])
        assert len(seen) == 20

    def test_drop_last(self):
        loader = DataLoader(self._ds(), batch_size=6, drop_last=True, seed=0)
        batches = list(loader)
        assert len(batches) == 3
        assert all(len(yb) == 6 for _, yb in batches)

    def test_len(self):
        assert len(DataLoader(self._ds(), batch_size=6)) == 4
        assert len(DataLoader(self._ds(), batch_size=6, drop_last=True)) == 3

    def test_deterministic_per_epoch_and_seed(self):
        l1 = DataLoader(self._ds(), batch_size=5, seed=3)
        l2 = DataLoader(self._ds(), batch_size=5, seed=3)
        e1 = [yb.tolist() for _, yb in l1]
        e2 = [yb.tolist() for _, yb in l2]
        assert e1 == e2
        # second epoch differs from the first (reshuffled)
        e1b = [yb.tolist() for _, yb in l1]
        assert e1b != e1

    def test_no_shuffle_is_sequential(self):
        loader = DataLoader(self._ds(), batch_size=7, shuffle=False)
        first = next(iter(loader))[1]
        np.testing.assert_array_equal(first, np.arange(7) % 3)

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            DataLoader(self._ds(), batch_size=0)
