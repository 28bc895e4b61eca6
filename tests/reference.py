"""Verbatim pre-optimization kernels, kept as the byte-identity oracle.

The PR-4 workspace/in-place rewrites of ``conv2d``, the pooling
backwards, batch norm, ``SGD.step``, ``Tensor.__getitem__``, and
``Client.evaluate`` are required to keep *training* numerics
byte-identical (same op order, same accumulation order).  This module
preserves the original implementations, character-for-character where
the math is concerned, plus :func:`reference_kernels` — a context
manager that patches them back in so golden-state tests and
``benchmarks/bench_kernels.py`` can run the exact pre-PR code path and
compare final model states byte-for-byte against the optimized kernels.

It also keeps the per-element int4 nibble packer and the per-block
stochastic quantizer, the oracles of the quantized codec's vectorized
ones (``repro.fl.quant``).  It lives beside
its users, outside the package: nothing on the training path imports
it.  See DESIGN.md §10.
"""

from __future__ import annotations

import contextlib

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.tensor.tensor import Tensor


# --------------------------------------------------------------------- #
# int4 nibble packing (per-element, the codec's vectorized pack's oracle) #
# --------------------------------------------------------------------- #
def naive_pack_nibbles(codes: np.ndarray) -> np.ndarray:
    """Per-element reference packer (the bench's 10x-slower comparator)."""
    codes = list(np.asarray(codes, dtype=np.uint8))
    if len(codes) % 2:
        codes.append(np.uint8(0))
    out = np.empty(len(codes) // 2, dtype=np.uint8)
    for i in range(out.size):
        out[i] = (int(codes[2 * i]) | (int(codes[2 * i + 1]) << 4)) & 0xFF
    return out


def naive_unpack_nibbles(packed: np.ndarray, n: int) -> np.ndarray:
    """Per-element reference unpacker matching
    :func:`repro.fl.quant.unpack_nibbles`."""
    out = np.empty(n, dtype=np.uint8)
    for i in range(n):
        byte = int(packed[i // 2])
        out[i] = (byte & 0x0F) if i % 2 == 0 else (byte >> 4)
    return out


def naive_stochastic_quantize(values: np.ndarray, bits: int, block: int,
                              rng: np.random.Generator
                              ) -> tuple[np.ndarray, np.ndarray]:
    """Float64 oracle of :func:`repro.fl.quant.stochastic_quantize`, one
    block at a time: each block's float32 scale is its absmax over qmax,
    and each value rounds down or up by its slot of one
    ``rng.random((nb, width))`` draw (a short last block leaves its
    padding slots' draws unused)."""
    qmax, bias = 2 ** (bits - 1) - 1, 2 ** (bits - 1)
    flat = np.asarray(values, dtype=np.float64).ravel()
    width = flat.size if block == 0 else block
    nb = 1 if block == 0 else -(-flat.size // block)
    draws = rng.random((nb, width))
    codes = np.empty(flat.size, dtype=np.uint8)
    scales = np.empty(nb, dtype=np.float32)
    for b in range(nb):
        chunk = flat[b * width:(b + 1) * width]
        scales[b] = np.abs(chunk).max() / qmax
        y = chunk / (np.float64(scales[b]) if scales[b] > 0 else 1.0)
        lo = np.floor(y)
        q = np.clip(lo + (draws[b, :chunk.size] < y - lo), -qmax, qmax)
        codes[b * width:b * width + chunk.size] = (q + bias).astype(np.uint8)
    return codes, scales


# --------------------------------------------------------------------- #
# conv2d (original im2col / col2im formulation)                          #
# --------------------------------------------------------------------- #
def _reference_im2col(x, kh, kw, stride):
    windows = sliding_window_view(x, (kh, kw), axis=(2, 3))  # N,C,Ho*,Wo*,kh,kw
    windows = windows[:, :, ::stride, :: stride]
    n, c, ho, wo = windows.shape[:4]
    # (N, Ho, Wo, C, kh, kw) -> rows are receptive fields
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * ho * wo, c * kh * kw)
    return np.ascontiguousarray(cols), (n, ho, wo)


def _reference_col2im(dcols, x_shape, kh, kw, stride, n, ho, wo):
    _, c, hp, wp = x_shape
    dx = np.zeros(x_shape, dtype=dcols.dtype)
    d6 = dcols.reshape(n, ho, wo, c, kh, kw).transpose(0, 3, 1, 2, 4, 5)
    for i in range(kh):
        hi = i + stride * ho
        for j in range(kw):
            wj = j + stride * wo
            dx[:, :, i:hi:stride, j:wj:stride] += d6[:, :, :, :, i, j]
    return dx


def reference_conv2d(x, weight, bias, stride=1, padding=0):
    """The pre-PR ``conv2d``: allocates every temporary each call."""
    out_c, in_c, kh, kw = weight.shape
    if x.shape[1] != in_c:
        raise ValueError(f"input channels {x.shape[1]} != weight in-channels {in_c}")
    xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding))) \
        if padding else x.data
    cols, (n, ho, wo) = _reference_im2col(xp, kh, kw, stride)
    wmat = weight.data.reshape(out_c, -1)
    out = cols @ wmat.T                      # (N*Ho*Wo, O)
    if bias is not None:
        out += bias.data
    out_data = out.reshape(n, ho, wo, out_c).transpose(0, 3, 1, 2)
    out_data = np.ascontiguousarray(out_data)

    parents = (x, weight) if bias is None else (x, weight, bias)
    xp_shape = xp.shape

    def backward(g):
        gmat = g.transpose(0, 2, 3, 1).reshape(n * ho * wo, out_c)
        if bias is not None and bias.requires_grad:
            bias._accumulate(gmat.sum(axis=0))
        if weight.requires_grad:
            weight._accumulate((gmat.T @ cols).reshape(weight.shape))
        if x.requires_grad:
            dcols = gmat @ wmat
            dxp = _reference_col2im(dcols, xp_shape, kh, kw, stride, n, ho, wo)
            if padding:
                dxp = dxp[:, :, padding:-padding, padding:-padding]
            x._accumulate(dxp)

    return Tensor._make(out_data, parents, backward)


# --------------------------------------------------------------------- #
# pooling (original np.add.at / python-loop backwards)                   #
# --------------------------------------------------------------------- #
def reference_max_pool2d(x, kernel_size, stride=None):
    """Pre-PR max pool: ``np.add.at`` scatter backward."""
    k = kernel_size
    s = stride or k
    n, c, h, w = x.shape
    ho = (h - k) // s + 1
    wo = (w - k) // s + 1
    windows = sliding_window_view(x.data, (k, k), axis=(2, 3))[:, :, ::s, ::s]
    flat = windows.reshape(n, c, ho, wo, k * k)
    arg = flat.argmax(axis=-1)
    out_data = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
    out_data = np.ascontiguousarray(out_data)
    a = x

    def backward(g):
        dx = np.zeros_like(a.data)
        ki, kj = np.divmod(arg, k)
        nn_, cc, ii, jj = np.indices((n, c, ho, wo), sparse=False)
        rows = ii * s + ki
        cols = jj * s + kj
        np.add.at(dx, (nn_, cc, rows, cols), g)
        a._accumulate(dx)

    return Tensor._make(out_data, (a,), backward)


def reference_avg_pool2d(x, kernel_size, stride=None):
    """Pre-PR avg pool: python k*k loop backward."""
    k = kernel_size
    s = stride or k
    n, c, h, w = x.shape
    ho = (h - k) // s + 1
    wo = (w - k) // s + 1
    windows = sliding_window_view(x.data, (k, k), axis=(2, 3))[:, :, ::s, ::s]
    out_data = np.ascontiguousarray(windows.mean(axis=(-1, -2)))
    a = x

    def backward(g):
        dx = np.zeros_like(a.data)
        gk = g / (k * k)
        for i in range(k):
            for j in range(k):
                dx[:, :, i:i + s * ho:s, j:j + s * wo:s] += gk
        a._accumulate(dx)

    return Tensor._make(out_data, (a,), backward)


# --------------------------------------------------------------------- #
# batch norm (original allocating forward/backward)                      #
# --------------------------------------------------------------------- #
def reference_batchnorm_forward(self, x, donate=False):
    """The pre-PR ``_BatchNorm.forward`` (bound as a method when patched);
    it never writes over its input, so ``donate`` is ignored."""
    axes = self._axes(x)
    shape = self._shape(x)
    a = x
    if self.training:
        mean = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        n = x.data.size / self.num_features
        # unbiased running var, biased batch var for normalisation
        unbiased = var * n / max(n - 1, 1)
        m = self.momentum
        self.set_buffer("running_mean",
                        (1 - m) * self.running_mean + m * mean.astype(np.float32))
        self.set_buffer("running_var",
                        (1 - m) * self.running_var + m * unbiased.astype(np.float32))
        self.set_buffer("num_batches_tracked", self.num_batches_tracked + 1)
    else:
        mean = self.running_mean
        var = self.running_var

    mu = mean.reshape(shape)
    inv_std = 1.0 / np.sqrt(var.reshape(shape) + self.eps)
    xhat = (x.data - mu) * inv_std

    if self.affine:
        w = self.weight
        b = self.bias
        out_data = xhat * w.data.reshape(shape) + b.data.reshape(shape)
    else:
        w = b = None
        out_data = xhat

    training = self.training
    nred = x.data.size / self.num_features

    def backward(g):
        if b is not None and b.requires_grad:
            b._accumulate(g.sum(axis=axes))
        if w is not None and w.requires_grad:
            w._accumulate((g * xhat).sum(axis=axes))
        if a.requires_grad:
            gx = g * (w.data.reshape(shape) if w is not None else 1.0)
            if training:
                # full batch-norm backward (mean/var depend on x)
                gsum = gx.sum(axis=axes, keepdims=True)
                gxhat_sum = (gx * xhat).sum(axis=axes, keepdims=True)
                da = (gx - gsum / nred - xhat * gxhat_sum / nred) * inv_std
            else:
                da = gx * inv_std
            a._accumulate(da.astype(x.dtype, copy=False))

    parents = (a,) if w is None else (a, w, b)
    return Tensor._make(out_data.astype(x.dtype, copy=False), parents, backward)


# --------------------------------------------------------------------- #
# SGD.step (original allocating update)                                  #
# --------------------------------------------------------------------- #
def reference_sgd_step(self):
    """The pre-PR ``SGD.step`` (bound as a method when patched)."""
    scale = 1.0
    if self.max_grad_norm is not None:
        norm = self._global_grad_norm()
        if norm > self.max_grad_norm:
            scale = self.max_grad_norm / (norm + 1e-12)
    for name, p in self.params:
        if p.grad is None:
            continue
        g = p.grad
        if scale != 1.0:
            g = g * scale
        if self.weight_decay:
            g = g + self.weight_decay * p.data
        for hook in self._hooks:
            g = hook(name, g)
        if self.momentum:
            v = self._velocity.get(name)
            if v is None:
                v = np.zeros_like(p.data)
                self._velocity[name] = v
            v *= self.momentum
            v += g
            g = v
        p.data -= self.lr * g


# --------------------------------------------------------------------- #
# Tensor.relu (original copy-on-accumulate backward, no donation)        #
# --------------------------------------------------------------------- #
def reference_relu(self, donate=False):
    """Pre-PR relu: allocating mask-multiply forward/backward; ``donate``
    is ignored."""
    a = self
    mask = self.data > 0
    out_data = self.data * mask

    def backward(g):
        a._accumulate(g * mask)

    return Tensor._make(out_data, (a,), backward)


# --------------------------------------------------------------------- #
# Tensor.__getitem__ (original unconditional np.add.at backward)         #
# --------------------------------------------------------------------- #
def reference_getitem(self, idx):
    """Pre-PR ``__getitem__``: allocating zeros + index-assign backward."""
    a = self
    out_data = self.data[idx]

    def backward(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        a._accumulate(full)

    return Tensor._make(np.asarray(out_data), (a,), backward)


# --------------------------------------------------------------------- #
# Client.evaluate (original graph-building eval, no no_grad)             #
# --------------------------------------------------------------------- #
def reference_evaluate(self, model, data=None, batch_size=256):
    """Pre-PR ``Client.evaluate``: plain graph-building eval loop."""
    from repro.tensor import functional as F
    from repro.utils.metrics import RunningAverage
    data = data if data is not None else self.val_data
    model.eval()
    acc = RunningAverage()
    loss_avg = RunningAverage()
    for lo in range(0, len(data), batch_size):
        xb = data.x[lo:lo + batch_size]
        yb = data.y[lo:lo + batch_size]
        logits = model(Tensor(xb))
        acc.update(F.accuracy(logits, yb), len(yb))
        loss_avg.update(F.cross_entropy(logits, yb).item(), len(yb))
    model.train()
    return acc.value, loss_avg.value


@contextlib.contextmanager
def reference_kernels():
    """Patch the pre-PR kernels back in for the duration of the block.

    Swaps the layer forwards (so every model built from ``repro.nn``
    layers runs the original kernels), ``SGD.step``, the ``Tensor``
    getitem backward, and ``Client.evaluate``.  Works under the
    process-pool executor too: workers are forked after patching, so
    they inherit the patched module state.
    """
    from repro.fl.client import Client
    from repro.nn.conv import Conv2d
    from repro.nn.norm import _BatchNorm
    from repro.nn.pooling import AvgPool2d, MaxPool2d
    from repro.optim.sgd import SGD

    def conv_forward(self, x):
        return reference_conv2d(x, self.weight, self.bias, self.stride,
                                self.padding)

    def maxpool_forward(self, x):
        return reference_max_pool2d(x, self.kernel_size, self.stride)

    def avgpool_forward(self, x):
        return reference_avg_pool2d(x, self.kernel_size, self.stride)

    saved = [
        (Conv2d, "forward", Conv2d.forward),
        (MaxPool2d, "forward", MaxPool2d.forward),
        (AvgPool2d, "forward", AvgPool2d.forward),
        (_BatchNorm, "forward", _BatchNorm.forward),
        (SGD, "step", SGD.step),
        (Tensor, "__getitem__", Tensor.__getitem__),
        (Tensor, "relu", Tensor.relu),
        (Client, "evaluate", Client.evaluate),
    ]
    Conv2d.forward = conv_forward
    MaxPool2d.forward = maxpool_forward
    AvgPool2d.forward = avgpool_forward
    _BatchNorm.forward = reference_batchnorm_forward
    SGD.step = reference_sgd_step
    Tensor.__getitem__ = reference_getitem
    Tensor.relu = reference_relu
    Client.evaluate = reference_evaluate
    try:
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
