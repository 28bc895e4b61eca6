"""Differentiable functional operations built on :class:`repro.tensor.Tensor`.

These are the loss functions and nonlinearities used by the NN layers, the
PPO policy, and the FL training loops.  Numerically sensitive reductions
(softmax, cross-entropy) are implemented with the usual max-subtraction
stabilisation.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.tensor import Tensor


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    return x.relu()


def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent."""
    return x.tanh()


def sigmoid(x: Tensor) -> Tensor:
    """Logistic sigmoid."""
    return x.sigmoid()


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    """LeakyReLU: x for x>0, slope*x otherwise."""
    a = x
    mask = x.data > 0
    scale = np.where(mask, 1.0, negative_slope).astype(x.dtype)
    out_data = x.data * scale

    def backward(g):
        a._accumulate(g * scale, donate="fresh")

    return Tensor._make(out_data, (a,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    a = x
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        # dL/dx = s * (g - sum(g * s))
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        a._accumulate(out_data * (g - dot), donate="fresh")

    return Tensor._make(out_data, (a,), backward)


def _cross_entropy_forward(lg: np.ndarray, labels: np.ndarray,
                           logp: np.ndarray, soft: np.ndarray):
    """The cross-entropy forward kernel: the mean NLL of ``lg`` (N, C)
    against int64 ``labels`` (N,), as a NumPy scalar.

    Fills the caller's two logits-shaped arrays: ``logp`` (log-softmax)
    and ``soft`` (softmax, what :func:`_cross_entropy_backward` needs).
    """
    np.subtract(lg, lg.max(axis=1, keepdims=True), out=logp)     # shifted
    np.exp(logp, out=soft)
    np.subtract(logp, np.log(soft.sum(axis=1, keepdims=True)), out=logp)
    np.exp(logp, out=soft)
    return -logp[np.arange(len(labels)), labels].mean()


def _cross_entropy_backward(soft: np.ndarray, labels: np.ndarray,
                            scale: float, out: np.ndarray) -> None:
    """The cross-entropy backward kernel: ``out = (soft - onehot) * scale``
    (``scale`` is the seed gradient over the batch size)."""
    np.copyto(out, soft)
    out[np.arange(len(labels)), labels] -= 1.0
    np.multiply(out, scale, out=out)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy between raw ``logits`` (N, C) and integer labels (N,).

    Fused log-softmax + NLL with a single backward closure; this is the loss
    used for every classification model in the reproduction (Eq. 3/4 of the
    paper instantiate it as the local objective ``l_i``).  The arithmetic
    lives in the two kernels above, which a replayed step calls too.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2:
        raise ValueError(f"cross_entropy expects (N, C) logits, got {logits.shape}")
    n = logits.shape[0]
    a = logits
    soft = np.empty_like(logits.data)
    loss = _cross_entropy_forward(logits.data, labels,
                                  np.empty_like(logits.data), soft)

    def backward(g):
        grad = np.empty_like(soft)
        _cross_entropy_backward(soft, labels, float(g) / n, grad)
        a._accumulate(grad, donate="fresh")

    return Tensor._make(np.asarray(loss, dtype=logits.dtype), (a,), backward)


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout: zero with prob ``p`` and rescale by 1/(1-p)."""
    if not training or p <= 0.0:
        return x
    if p >= 1.0:
        raise ValueError("dropout probability must be < 1")
    a = x
    keep = (rng.random(x.shape) >= p).astype(x.dtype) / (1.0 - p)
    out_data = x.data * keep

    def backward(g):
        a._accumulate(g * keep, donate="fresh")

    return Tensor._make(out_data, (a,), backward)


def accuracy(logits, labels: np.ndarray) -> float:
    """Top-1 accuracy of ``logits`` (N, C) against integer labels."""
    data = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    pred = data.argmax(axis=1)
    return float((pred == np.asarray(labels)).mean())
