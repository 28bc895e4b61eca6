"""Batch and layer normalisation.

BatchNorm keeps running statistics as *buffers*; in the FL layer these are
part of the communicated encoder state (as in the Non-IID benchmark's
reference implementations), so they are registered buffers included in
``state_dict``.

The batch-norm forward/backward routes its batch-sized intermediates
through the layer's workspace slot and applies the elementwise chain
in place (``out=``) — every operation keeps the operand order and
accumulation order of the original allocating code, so training numerics
stay byte-identical (asserted against :mod:`repro.nn.reference`).
Under ``no_grad`` the forward skips closure/graph construction, and
inside :func:`repro.nn.fuse.folded_inference` a BatchNorm that has been
absorbed into its preceding conv becomes the identity (DESIGN.md §10).
"""

from __future__ import annotations

import numpy as np

from repro.nn import conv as _conv
from repro.nn.module import Module, Parameter
from repro.tensor import workspace
from repro.tensor.tensor import Tensor, is_grad_enabled


class _BatchNorm(Module):
    """Shared machinery for 1-D/2-D batch norm; subclass fixes reduce axes."""

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1,
                 affine: bool = True):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.affine = affine
        if affine:
            self.weight = Parameter(np.ones(num_features, dtype=np.float32))
            self.bias = Parameter(np.zeros(num_features, dtype=np.float32))
        else:
            self.weight = None
            self.bias = None
        self.register_buffer("running_mean", np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_var", np.ones(num_features, dtype=np.float32))
        self.register_buffer("num_batches_tracked", np.zeros((), dtype=np.int64))

    def _axes(self, x: Tensor) -> tuple[int, ...]:
        raise NotImplementedError

    def _shape(self, x: Tensor) -> tuple[int, ...]:
        raise NotImplementedError

    def forward(self, x: Tensor) -> Tensor:
        if _conv._FOLDED_BNS and not self.training \
                and id(self) in _conv._FOLDED_BNS:
            return x        # absorbed into the preceding conv for this eval
        axes = self._axes(x)
        shape = self._shape(x)
        a = x
        ws = workspace.slot_for(self)
        # xhat = (x - mu) * inv_std, built in an arena buffer (the backward
        # closure captures it; one forward per backward, DESIGN.md §10).
        xhat = ws.buffer("batchnorm.xhat", x.data.shape, x.data.dtype)
        if self.training:
            # Fused mean/var: ``np.var`` internally recomputes the keepdims
            # mean, subtracts, squares, sums, and divides by the reduced
            # count — replicating that exact op sequence with the same
            # primitives lets one subtraction serve both the variance and
            # the xhat numerator, bit-for-bit equal to the separate
            # ``mean()``/``var()`` calls of the allocating path.
            mu = x.data.mean(axis=axes, keepdims=True)   # shape == `shape`
            np.subtract(x.data, mu, out=xhat)            # x - mean
            sq = ws.buffer("batchnorm.scratch", x.data.shape, x.data.dtype)
            np.multiply(xhat, xhat, out=sq)
            var = sq.sum(axis=axes) / (x.data.size // self.num_features)
            mean = mu.reshape(-1)
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
            np.subtract(x.data, mean.reshape(shape), out=xhat)

        inv_std = 1.0 / np.sqrt(var.reshape(shape) + self.eps)
        np.multiply(xhat, inv_std, out=xhat)

        if self.affine:
            w = self.weight
            b = self.bias
            # out = xhat * w + b with the same op order as the allocating
            # form; out_data is fresh (it becomes the node payload).
            out_data = np.multiply(xhat, w.data.reshape(shape))
            np.add(out_data, b.data.reshape(shape), out=out_data)
        else:
            w = b = None
            out_data = xhat.copy()

        out_data = out_data.astype(x.dtype, copy=False)
        grad_needed = is_grad_enabled() and (
            a.requires_grad or (w is not None and w.requires_grad)
            or (b is not None and b.requires_grad))
        if not grad_needed:
            return Tensor(out_data, dtype=out_data.dtype)

        training = self.training
        nred = x.data.size / self.num_features

        def backward(g):
            if b is not None and b.requires_grad:
                b._accumulate(g.sum(axis=axes), donate="fresh")
            scratch = ws.buffer("batchnorm.scratch", g.shape, g.dtype)
            if w is not None and w.requires_grad:
                np.multiply(g, xhat, out=scratch)           # g * xhat
                w._accumulate(scratch.sum(axis=axes), donate="fresh")
            if a.requires_grad:
                gx = ws.buffer("batchnorm.gx", g.shape, g.dtype)
                if w is not None:
                    np.multiply(g, w.data.reshape(shape), out=gx)
                else:
                    np.multiply(g, 1.0, out=gx)
                if training:
                    # full batch-norm backward (mean/var depend on x);
                    # op-for-op the allocating form
                    # (gx - gsum/n - xhat*gxhat_sum/n) * inv_std.
                    gsum = gx.sum(axis=axes, keepdims=True)
                    np.multiply(gx, xhat, out=scratch)
                    gxhat_sum = scratch.sum(axis=axes, keepdims=True)
                    np.subtract(gx, gsum / nred, out=gx)
                    np.multiply(xhat, gxhat_sum, out=scratch)
                    np.divide(scratch, nred, out=scratch)
                    np.subtract(gx, scratch, out=gx)
                    np.multiply(gx, inv_std, out=gx)
                    da = gx
                else:
                    np.multiply(gx, inv_std, out=gx)
                    da = gx
                # ``da`` is arena memory, valid until this layer's next
                # forward; scratch donation lets non-leaf parents take it
                # without a copy while leaves still copy (DESIGN.md §10).
                a._accumulate(da.astype(x.dtype, copy=False),
                              donate="scratch")

        parents = (a,) if w is None else (a, w, b)
        return Tensor._make(out_data, parents, backward)

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}({self.num_features})"


class BatchNorm2d(_BatchNorm):
    """Batch norm over (N, H, W) for inputs of shape (N, C, H, W)."""

    def _axes(self, x):
        return (0, 2, 3)

    def _shape(self, x):
        return (1, self.num_features, 1, 1)


class BatchNorm1d(_BatchNorm):
    """Batch norm over N for inputs of shape (N, C)."""

    def _axes(self, x):
        return (0,)

    def _shape(self, x):
        return (1, self.num_features)


class LayerNorm(Module):
    """Layer norm over the last dimension (used by the GNN node encoder)."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.weight = Parameter(np.ones(dim, dtype=np.float32))
        self.bias = Parameter(np.zeros(dim, dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        xhat = (x - mu) / ((var + self.eps) ** 0.5)
        return xhat * self.weight + self.bias

    def __repr__(self) -> str:
        return f"LayerNorm({self.dim})"
