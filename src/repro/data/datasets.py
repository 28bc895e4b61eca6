"""Synthetic image datasets standing in for CIFAR-10 and FEMNIST.

Construction principles (what makes these valid FL substitutes):

- **Class structure**: each class has fixed low-frequency prototype
  templates; instances are prototypes + instance-level jitter + pixel noise,
  so models must actually learn class structure (a linear probe is far from
  100%) yet CNN-scale models can overfit a small local shard — the regime in
  which non-IID FL pathologies (client drift, divergence) appear.
- **Determinism**: everything derives from one root seed through
  ``SeedSequence`` spawning; the same seed always yields bit-identical data.
- **FEMNIST writer styles**: each synthetic writer has an intensity/shift
  style transform applied to every sample they "write", giving LEAF's
  natural per-user distribution shift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import spawn_rng


@dataclass
class ArrayDataset:
    """In-memory dataset: ``x`` (N, C, H, W) float32, ``y`` (N,) int64."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float32)
        self.y = np.asarray(self.y, dtype=np.int64)
        if len(self.x) != len(self.y):
            raise ValueError("x and y length mismatch")

    def __len__(self) -> int:
        return len(self.y)

    def subset(self, indices) -> "ArrayDataset":
        indices = np.asarray(indices, dtype=np.int64)
        return ArrayDataset(self.x[indices], self.y[indices])

    @property
    def num_classes(self) -> int:
        return int(self.y.max()) + 1 if len(self.y) else 0

    def class_counts(self, num_classes: int | None = None) -> np.ndarray:
        k = num_classes or self.num_classes
        return np.bincount(self.y, minlength=k)


def _upsample(coarse: np.ndarray, size: int) -> np.ndarray:
    """Nearest-neighbour upsample of (..., h, w) coarse maps to (..., size, size)."""
    h = coarse.shape[-1]
    reps = size // h
    out = np.kron(coarse, np.ones((reps, reps), dtype=coarse.dtype))
    if out.shape[-1] < size:
        pad = size - out.shape[-1]
        out = np.pad(out, [(0, 0)] * (out.ndim - 2) + [(0, pad), (0, pad)], mode="edge")
    return out


def _make_prototypes(rng: np.random.Generator, num_classes: int, channels: int,
                     size: int, prototypes_per_class: int) -> np.ndarray:
    """(K, P, C, size, size) low-frequency class templates."""
    coarse_hw = max(2, size // 8)
    coarse = rng.normal(0.0, 1.0, size=(num_classes, prototypes_per_class,
                                        channels, coarse_hw, coarse_hw))
    templates = _upsample(coarse.astype(np.float32), size)
    # Add a class-specific oriented frequency component so classes differ in
    # texture, not just blob layout.
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float32) / size
    for k in range(num_classes):
        angle = 2 * np.pi * k / num_classes
        freq = 2.0 + (k % 4)
        wave = np.sin(2 * np.pi * freq * (np.cos(angle) * xx + np.sin(angle) * yy))
        templates[k] += 0.8 * wave
    return templates


# Rows of pixel noise per ``Generator.normal`` call: the float64 draw is the
# largest temporary, and a Generator stream is the same however it is chunked.
_NOISE_ROWS = 256


def _channel_std(x: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """``x.std(axis=(0, 2, 3), keepdims=True)`` bit for bit, for ``x`` of
    shape (N, C, H, W) and its channel mean ``mu``, without the full-size
    ``x - mu`` temporary ``np.std`` allocates.

    NumPy's reduction adds each (sample, channel) plane's pairwise sum
    into a float32 accumulator in sample order; so does this, one sample
    at a time, and it divides by an ``intp`` count as ``np.var`` does.
    """
    acc = np.zeros_like(mu)
    for k in range(len(x)):
        d = x[k:k + 1] - mu
        d *= d
        acc += np.add.reduce(d, axis=(0, 2, 3), keepdims=True)
    np.true_divide(acc, np.intp(x.size // x.shape[1]), out=acc,
                   casting="unsafe")
    return np.sqrt(acc, out=acc)


class SyntheticCIFAR10(ArrayDataset):
    """CIFAR-10 stand-in: (N, 3, size, size), 10 balanced classes.

    ``noise`` controls difficulty; at the default 0.9 a width-0.25
    ResNet-20 reaches ~80-90% centralized accuracy after a few epochs while
    single-client shards can be overfitted — matching the FL regime.
    """

    def __init__(self, n_samples: int = 10_000, size: int = 32, seed: int = 0,
                 num_classes: int = 10, noise: float = 0.9,
                 prototypes_per_class: int = 4, split: str = "train"):
        rng_proto = spawn_rng(seed, "cifar", "prototypes")
        rng_inst = spawn_rng(seed, "cifar", "instances", split)
        templates = _make_prototypes(rng_proto, num_classes, 3, size,
                                     prototypes_per_class)
        y = rng_inst.integers(0, num_classes, size=n_samples)
        proto_idx = rng_inst.integers(0, prototypes_per_class, size=n_samples)
        shifts = rng_inst.integers(-size // 8, size // 8 + 1, size=(n_samples, 2))
        # In place — the fancy index is the one copy — to peak near 2x, not 5x.
        x = templates[y, proto_idx]
        for img, (dy, dx) in zip(x, shifts):
            img[...] = np.roll(img, (int(dy), int(dx)), axis=(1, 2))
        for lo in range(0, n_samples, _NOISE_ROWS):
            part = x[lo:lo + _NOISE_ROWS]
            part += rng_inst.normal(0.0, noise, size=part.shape).astype(np.float32)
        # per-channel standardisation (the usual CIFAR transform)
        mu = x.mean(axis=(0, 2, 3), keepdims=True)
        sd = _channel_std(x, mu) + 1e-6
        np.subtract(x, mu, out=x)
        np.divide(x, sd, out=x)
        super().__init__(x, y)
        self.size = size
        self.seed = seed


class SyntheticFEMNIST(ArrayDataset):
    """FEMNIST stand-in: (N, 1, size, size) with per-writer style shift.

    Samples are grouped by synthetic writer; :attr:`writer_ids` records each
    sample's author so :func:`repro.data.partition.by_writer_partition` can
    reproduce LEAF's natural non-IID split.  ``num_classes`` defaults to 62
    (digits + upper + lower) like FEMNIST; scaled configs may use 10.
    """

    def __init__(self, n_writers: int = 50, samples_per_writer: int = 100,
                 size: int = 28, seed: int = 0, num_classes: int = 62,
                 noise: float = 0.7, split: str = "train"):
        rng_proto = spawn_rng(seed, "femnist", "prototypes")
        templates = _make_prototypes(rng_proto, num_classes, 1, size, 2)
        xs, ys, writers = [], [], []
        for wid in range(n_writers):
            rng_w = spawn_rng(seed, "femnist", "writer", wid, split)
            n = samples_per_writer
            # Writers use a skewed subset of classes (LEAF writers don't
            # produce all 62 characters equally).
            class_pref = rng_w.dirichlet(np.full(num_classes, 0.3))
            y = rng_w.choice(num_classes, size=n, p=class_pref)
            p = rng_w.integers(0, 2, size=n)
            x = templates[y, p].copy()
            # writer style: global intensity scale + bias + fixed slant shift
            scale = 0.7 + 0.6 * rng_w.random()
            bias = 0.4 * rng_w.normal()
            dy, dx = rng_w.integers(-2, 3, size=2)
            x = scale * np.roll(x, (int(dy), int(dx)), axis=(2, 3)) + bias
            x += rng_w.normal(0.0, noise, size=x.shape).astype(np.float32)
            xs.append(x)
            ys.append(y)
            writers.append(np.full(n, wid))
        x = np.concatenate(xs).astype(np.float32)
        y = np.concatenate(ys)
        mu, sd = x.mean(), x.std() + 1e-6
        super().__init__((x - mu) / sd, y)
        self.writer_ids = np.concatenate(writers)
        self.n_writers = n_writers
        self.size = size
        self.seed = seed


def train_val_split(dataset: ArrayDataset, val_fraction: float = 0.2,
                    seed: int = 0) -> tuple[ArrayDataset, ArrayDataset]:
    """Shuffled train/validation split (per-client local split in the FL runs)."""
    if not 0.0 < val_fraction < 1.0:
        raise ValueError("val_fraction must be in (0, 1)")
    rng = spawn_rng(seed, "train_val_split")
    order = rng.permutation(len(dataset))
    n_val = max(1, int(round(len(dataset) * val_fraction)))
    return dataset.subset(order[n_val:]), dataset.subset(order[:n_val])
