"""Batch and layer normalisation.

BatchNorm keeps running statistics as *buffers*; in the FL layer these are
part of the communicated encoder state (as in the Non-IID benchmark's
reference implementations), so they are registered buffers included in
``state_dict``.

One kernel per direction (DESIGN.md §10.3): :func:`_forward_data` and
:func:`_backward_data` hold the batch-norm arithmetic, and
:meth:`_BatchNorm._normalize` adds the running-statistics update.  The
eager :meth:`_BatchNorm.forward` and the step compiler's replay
(:mod:`repro.tensor.compile.kernels`) both go through them.  Batch-sized
intermediates are kept by lifetime (DESIGN.md §10.1): a kernel's work
array comes off the ``workspace.transient`` stack, which each kernel
resets on entry; the normalised input ``xhat`` lives from the forward to
the backward that reads it, and the input gradient as long as the
parent's gradient — eager allocates both, or writes ``xhat`` over a
donated input and ``dx`` over the output gradient (DESIGN.md §10.2; the
backward closure owns ``xhat``, ``dx`` is donated to the parent), a
replay plans both as handles.  A layer owns no memory of its own.  The
elementwise chain runs in place
(``out=``), in the operand and accumulation order of the allocating
reference kernels the golden-state tests keep, so training *and*
evaluation numerics are byte-identical to them.  Under ``no_grad`` the
forward skips closure/graph construction and ``xhat`` is transient.
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module, Parameter
from repro.tensor import workspace
from repro.tensor.tensor import Tensor, donatable, is_grad_enabled


def _forward_data(xdata: np.ndarray, wdata: np.ndarray | None,
                  bdata: np.ndarray | None, stats: tuple | None,
                  axes: tuple[int, ...], shape: tuple[int, ...], eps: float,
                  xhat: np.ndarray | None, out: np.ndarray | None = None):
    """The forward kernel: ``(out, inv_std, mean, var)``.

    ``stats`` is the frozen ``(mean, var)`` to normalise with (eval), or
    ``None`` to use the batch's own (training); either way the pair used
    is returned.
    ``xhat`` (input-shaped) is filled with the normalised input — with
    ``inv_std``, what :func:`_backward_data` needs; ``None`` when no
    backward will read it, and it is transient scratch.  ``out`` is freshly
    allocated unless supplied.
    """
    stack = workspace.transient
    stack.reset()
    if xhat is None:
        xhat = stack.buffer("batchnorm.xhat", xdata.shape, xdata.dtype)
    if stats is None:
        # Fused mean/var: ``np.var`` internally recomputes the keepdims
        # mean, subtracts, squares, sums, and divides by the reduced
        # count — replicating that exact op sequence with the same
        # primitives lets one subtraction serve both the variance and
        # the xhat numerator, bit-for-bit equal to separate
        # ``mean()``/``var()`` calls.
        mu = xdata.mean(axis=axes, keepdims=True)       # shape == `shape`
        np.subtract(xdata, mu, out=xhat)                # x - mean
        sq = stack.buffer("batchnorm.scratch", xdata.shape, xdata.dtype)
        np.multiply(xhat, xhat, out=sq)
        var = sq.sum(axis=axes) / (xdata.size // mu.size)
        mean = mu.reshape(-1)
    else:
        mean, var = stats
        np.subtract(xdata, mean.reshape(shape), out=xhat)

    inv_std = 1.0 / np.sqrt(var.reshape(shape) + eps)
    np.multiply(xhat, inv_std, out=xhat)
    if wdata is None:
        if out is None:
            out = np.empty_like(xhat)
        np.copyto(out, xhat)
    else:
        # out = xhat * w + b, in the allocating form's op order.
        out = np.multiply(xhat, wdata.reshape(shape), out=out)
        np.add(out, bdata.reshape(shape), out=out)
    return out, inv_std, mean, var


def _backward_data(g: np.ndarray, xhat: np.ndarray, inv_std: np.ndarray,
                   wdata: np.ndarray | None, axes: tuple[int, ...],
                   shape: tuple[int, ...], training: bool,
                   db: np.ndarray | None = None,
                   dw: np.ndarray | None = None,
                   dx: np.ndarray | None = None) -> None:
    """The backward kernel: fill the gradients the caller passes arrays for.

    ``xhat`` / ``inv_std`` come from the matching :func:`_forward_data`
    call; ``db`` / ``dw`` (per-feature) and ``dx`` (input-shaped) are
    overwritten, ``None`` skips that gradient.
    """
    workspace.transient.reset()
    scratch = workspace.transient.buffer("batchnorm.scratch", g.shape, g.dtype)
    if db is not None:
        g.sum(axis=axes, out=db)
    if dw is not None:
        np.multiply(g, xhat, out=scratch)               # g * xhat
        scratch.sum(axis=axes, out=dw)
    if dx is not None:
        np.multiply(g, 1.0 if wdata is None else wdata.reshape(shape), out=dx)
        if training:
            # Full batch-norm backward (mean/var depend on x), op-for-op
            # (gx - gsum/n - xhat*gxhat_sum/n) * inv_std.
            nred = g.size / inv_std.size
            gsum = dx.sum(axis=axes, keepdims=True)
            np.multiply(dx, xhat, out=scratch)
            gxhat_sum = scratch.sum(axis=axes, keepdims=True)
            np.subtract(dx, gsum / nred, out=dx)
            np.multiply(xhat, gxhat_sum, out=scratch)
            np.divide(scratch, nred, out=scratch)
            np.subtract(dx, scratch, out=dx)
        np.multiply(dx, inv_std, out=dx)


class _BatchNorm(Module):
    """Shared machinery for 1-D/2-D batch norm; subclass fixes reduce axes."""

    op_name = "batchnorm"

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

    def _normalize(self, xdata: np.ndarray, axes, shape,
                   xhat: np.ndarray | None, out: np.ndarray | None = None):
        """One forward on arrays, ``(out, inv_std)``: the kernel, plus — in
        training mode — the batch folded into the running statistics.
        What the eager forward and a replayed step both run."""
        wdata = bdata = None
        if self.affine:
            wdata, bdata = self.weight.data, self.bias.data
        stats = None if self.training else (self.running_mean,
                                            self.running_var)
        out, inv_std, mean, var = _forward_data(
            xdata, wdata, bdata, stats, axes, shape, self.eps, xhat, out)
        if self.training:
            n = xdata.size / self.num_features
            # unbiased running var, biased batch var for normalisation
            unbiased = var * n / max(n - 1, 1)
            m = self.momentum
            self.set_buffer("running_mean",
                            (1 - m) * self.running_mean + m * mean.astype(np.float32))
            self.set_buffer("running_var",
                            (1 - m) * self.running_var + m * unbiased.astype(np.float32))
            self.set_buffer("num_batches_tracked", self.num_batches_tracked + 1)
        return out, inv_std

    def forward(self, x: Tensor, donate: bool = False) -> Tensor:
        """Normalise ``x``.  ``donate=True`` is the caller's promise that
        nothing reads ``x.data`` again: the ``xhat`` the backward keeps is
        written over it when :func:`~repro.tensor.tensor.donatable` allows
        (DESIGN.md §10.2)."""
        axes = self._axes(x)
        shape = self._shape(x)
        w, b = self.weight, self.bias
        records = is_grad_enabled() and (
            x.requires_grad or (w is not None and
                                (w.requires_grad or b.requires_grad)))
        # The backward closure owns xhat, in the donated input if it may
        # be; without a closure it is transient scratch of the kernel.
        xhat = None
        if records:
            xhat = x.data if donate and donatable(x.data, x.data.dtype) \
                else np.empty(x.data.shape, x.data.dtype)
        out_data, inv_std = self._normalize(x.data, axes, shape, xhat)
        out_data = out_data.astype(x.dtype, copy=False)
        if not records:
            return Tensor(out_data, dtype=out_data.dtype)

        training = self.training

        def backward(g):
            db = dw = dx = None
            if b is not None and b.requires_grad:
                db = np.empty(b.shape, g.dtype)
            if w is not None and w.requires_grad:
                dw = np.empty(w.shape, g.dtype)
            if x.requires_grad:
                # Written over ``g`` when it may be: the kernel reads ``g``
                # for db and dw before it first writes dx.
                dx = g if donatable(g, x.dtype) else np.empty(g.shape, g.dtype)
            _backward_data(g, xhat, inv_std, None if w is None else w.data,
                           axes, shape, training, db, dw, dx)
            if db is not None:
                b._accumulate(db, donate="fresh")
            if dw is not None:
                w._accumulate(dw, donate="fresh")
            if dx is not None:
                x._accumulate(dx.astype(x.dtype, copy=False), donate="fresh")

        parents = (x,) if w is None else (x, w, b)
        return Tensor._make(out_data, parents, backward, (self, axes, shape))

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

    op_name = "layernorm"

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
