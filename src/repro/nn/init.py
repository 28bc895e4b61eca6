"""Weight initialisers (Kaiming / orthogonal / constant), numpy-Generator seeded.

Every initialiser takes an explicit ``rng`` so that model construction is
fully deterministic given a seed — a requirement for the FL experiments,
where all clients must start from bit-identical global weights.
"""

from __future__ import annotations

import math

import numpy as np


def _fan(shape: tuple[int, ...]) -> tuple[int, int]:
    """(fan_in, fan_out) for linear (out,in) or conv (out,in,kh,kw) weights."""
    if len(shape) == 2:
        fan_out, fan_in = shape
        return fan_in, fan_out
    if len(shape) == 4:
        out_c, in_c, kh, kw = shape
        rf = kh * kw
        return in_c * rf, out_c * rf
    raise ValueError(f"unsupported weight shape {shape}")


def kaiming_normal(shape, rng: np.random.Generator, gain: float = math.sqrt(2.0),
                   dtype=np.float32) -> np.ndarray:
    """He-normal initialisation: N(0, gain^2 / fan_in)."""
    fan_in, _ = _fan(tuple(shape))
    std = gain / math.sqrt(fan_in)
    return rng.normal(0.0, std, size=shape).astype(dtype)


def kaiming_uniform(shape, rng: np.random.Generator, gain: float = math.sqrt(2.0),
                    dtype=np.float32) -> np.ndarray:
    """He-uniform initialisation: U(-b, b) with b = gain * sqrt(3 / fan_in)."""
    fan_in, _ = _fan(tuple(shape))
    bound = gain * math.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def uniform_fan_in_bias(weight_shape, rng: np.random.Generator,
                        dtype=np.float32) -> np.ndarray:
    """PyTorch's default bias init: U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    fan_in, _ = _fan(tuple(weight_shape))
    bound = 1.0 / math.sqrt(fan_in)
    size = weight_shape[0]
    return rng.uniform(-bound, bound, size=size).astype(dtype)


def zeros(shape, dtype=np.float32) -> np.ndarray:
    """All-zeros init (biases, control variates)."""
    return np.zeros(shape, dtype=dtype)


def ones(shape, dtype=np.float32) -> np.ndarray:
    """All-ones init (norm scales)."""
    return np.ones(shape, dtype=dtype)


def orthogonal(shape, rng: np.random.Generator, gain: float = 1.0,
               dtype=np.float32) -> np.ndarray:
    """Orthogonal init (used by the PPO policy heads for stable RL)."""
    rows = shape[0]
    cols = int(np.prod(shape[1:]))
    a = rng.normal(size=(max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(a)
    q *= np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return (gain * q[:rows, :cols]).reshape(shape).astype(dtype)
