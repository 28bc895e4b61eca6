"""Spatial pooling layers (max / average / global average).

The pooling backwards are vectorized (DESIGN.md §10): max-pool scatter
uses flat-index assignment (windows are disjoint for ``stride >= k``, so
every input cell receives at most one gradient and plain fancy-index
assignment replaces ``np.add.at``), falling back to ``np.bincount`` for
overlapping windows; average-pool writes the scaled gradient through
k*k strided assignments into an arena buffer (skipping the zero-fill
entirely when the window tiling covers the input).  For the non-overlapping
configurations the models use, results are byte-identical to the
original formulation (see :mod:`repro.nn.reference`); the overlapping
``np.bincount`` path accumulates in float64 and is covered by float64
gradchecks instead.

Max pooling's arithmetic is written once, in :func:`_max_forward_data`
and :func:`_max_backward_data`: the eager :func:`max_pool2d` allocates
the arrays they fill, the step compiler's replay passes planned ones.
The backward's window-corner index is one sample's ``(C, Ho, Wo)`` array,
cached process-wide per geometry with the batch offset added at use, so
a pool layer owns no memory whatever batch sizes it meets.  (A
non-overlapping pool as reshape plus a two-axis max was measured and
rejected: 2.1-2.4x slower forward, DESIGN.md §10.3.)
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn.module import Module
from repro.tensor import workspace
from repro.tensor.tensor import Tensor, is_grad_enabled


# Flat index of each window's top-left corner in *one* sample, keyed by pool
# geometry (C, H, W, Ho, Wo, stride): sample n's is sample 0's plus n*C*H*W,
# added at use, so every batch size shares one (C, Ho, Wo) array.  Immutable
# and shared across layers and model copies (``workspace.reset()`` drops).
_POOL_BASE: dict[tuple, np.ndarray] = workspace.shared_cache("maxpool.base")


def _pool_flat_base(c: int, h: int, w: int, ho: int, wo: int,
                    s: int) -> np.ndarray:
    """(C, Ho, Wo) int64 flat index of each window's top-left corner in
    one (C, H, W) sample — the same array for every batch size."""
    key = (c, h, w, ho, wo, s)
    base = _POOL_BASE.get(key)
    if base is None:
        base = (np.arange(c).reshape(c, 1, 1) * h
                + np.arange(ho).reshape(1, ho, 1) * s) * w
        base = _POOL_BASE[key] = base + np.arange(wo).reshape(1, 1, wo) * s
    return base


def _batch_flat_base(n: int, c: int, h: int, w: int, ho: int, wo: int,
                     s: int) -> np.ndarray:
    """(N, C, Ho, Wo) window corners of a batch, as a broadcast sum:
    sample 0's (cached) base plus each sample's offset."""
    return (_pool_flat_base(c, h, w, ho, wo, s)
            + (np.arange(n) * (c * h * w)).reshape(n, 1, 1, 1))


def _windows(xdata: np.ndarray, k: int, s: int) -> np.ndarray:
    """(N, C, Ho, Wo, k, k) strided view of every pooling window."""
    return sliding_window_view(xdata, (k, k), axis=(2, 3))[:, :, ::s, ::s]


def _max_forward_data(windows: np.ndarray, flat: np.ndarray, arg: np.ndarray,
                      out: np.ndarray) -> None:
    """The max-pool forward kernel over :func:`_windows` of the input.

    Fills ``flat`` (the windows, materialised contiguously), ``arg`` (intp,
    each window's argmax in ``0..k*k``, what :func:`_max_backward_data`
    needs) and ``out`` (the maxima).
    """
    np.copyto(flat, windows)
    flat = flat.reshape(arg.shape + (-1,))
    np.argmax(flat, axis=-1, out=arg)
    np.copyto(out, np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0])


def _max_backward_data(g: np.ndarray, arg: np.ndarray, k: int, s: int,
                       dx: np.ndarray) -> None:
    """The max-pool backward kernel: route ``g`` to each window's argmax
    cell of ``dx``, the zeroed, C-contiguous input-shaped gradient."""
    n, c, h, w = dx.shape
    ho, wo = arg.shape[2:]
    flat_idx, kj = np.divmod(arg, k)        # argmax row and column
    flat_idx *= w
    flat_idx += kj
    flat_idx += _batch_flat_base(n, c, h, w, ho, wo, s)
    if s >= k:
        # Disjoint windows: each input cell gets at most one gradient,
        # so fancy-index assignment into zeros equals the add-scatter.
        dx.reshape(-1)[flat_idx.reshape(-1)] = np.ravel(g)
    else:
        # Overlapping windows can hit a cell repeatedly; bincount
        # accumulates (in float64 — exact for the float64 gradchecks).
        acc = np.bincount(flat_idx.reshape(-1), weights=np.ravel(g),
                          minlength=dx.size)
        dx[...] = acc.reshape(dx.shape)


def max_pool2d(x: Tensor, kernel_size: int,
               stride: int | None = None) -> Tensor:
    """Max pooling with square window; stride defaults to the window size."""
    k = kernel_size
    s = stride or k
    windows = _windows(x.data, k, s)
    if not (is_grad_enabled() and x.requires_grad):
        # Inference fast path: the max alone, no argmax bookkeeping.
        flat = windows.reshape(windows.shape[:4] + (k * k,))
        return Tensor(np.ascontiguousarray(flat.max(axis=-1)),
                      dtype=x.data.dtype)

    flat = np.empty(windows.shape, x.data.dtype)
    arg = np.empty(windows.shape[:4], np.intp)
    out_data = np.empty(windows.shape[:4], x.data.dtype)
    _max_forward_data(windows, flat, arg, out_data)

    def backward(g):
        dx = np.zeros_like(x.data)
        _max_backward_data(g, arg, k, s, dx)
        x._accumulate(dx, donate="fresh")

    return Tensor._make(out_data, (x,), backward, (k, s))


def avg_pool2d(x: Tensor, kernel_size: int, stride: int | None = None,
               ws: workspace.WorkspaceSlot | None = None) -> Tensor:
    """Average pooling with square window; stride defaults to window size."""
    k = kernel_size
    s = stride or k
    n, c, h, w = x.shape
    ho = (h - k) // s + 1
    wo = (w - k) // s + 1
    out_data = np.ascontiguousarray(_windows(x.data, k, s).mean(axis=(-1, -2)))

    if not (is_grad_enabled() and x.requires_grad):
        return Tensor(out_data, dtype=out_data.dtype)

    ws = ws or workspace.WorkspaceSlot()
    a = x

    def backward(g):
        if s == k:
            # Non-overlapping tiling: k*k strided assignments of the
            # scaled gradient, each writing every window's (i, j) tap in
            # one pass — no scatter, and (when the tiling covers the
            # input exactly) nothing to zero first.  dx comes from the
            # arena when the consumer can take scratch (non-leaf input);
            # a leaf input gets a fresh array since leaves never alias
            # arena memory.
            covered = (h == ho * k and w == wo * k)
            if a._backward is not None:
                dx = ws.buffer("avgpool.dx", a.data.shape, a.data.dtype,
                               zero="never" if covered else "always")
                donate = "scratch"
            else:
                dx = (np.empty_like(a.data) if covered
                      else np.zeros_like(a.data))
                donate = "fresh"
            gk = ws.buffer("avgpool.gk", g.shape, g.dtype)
            np.divide(g, k * k, gk)
            for i in range(k):
                for j in range(k):
                    dx[:, :, i:i + s * ho:s, j:j + s * wo:s] = gk
            a._accumulate(dx, donate=donate)
            return
        dx = np.zeros_like(a.data)
        gk = g / (k * k)
        if s > k:
            # Disjoint but gapped windows: the strided-slice adds touch
            # each cell once, so the original formulation is already exact.
            for i in range(k):
                for j in range(k):
                    dx[:, :, i:i + s * ho:s, j:j + s * wo:s] += gk
        else:
            # Overlapping windows: accumulate every tap via bincount
            # (float64 inside — exact for the float64 gradchecks).
            base = _batch_flat_base(n, c, h, w, ho, wo, s)
            taps = (base[..., None, None] + np.arange(k).reshape(k, 1) * w
                    + np.arange(k))                    # (N, C, Ho, Wo, k, k)
            gtap = np.broadcast_to(gk[..., None, None], taps.shape)
            acc = np.bincount(taps.reshape(-1), weights=np.ravel(gtap),
                              minlength=dx.size)
            dx[...] = acc.reshape(dx.shape)
        a._accumulate(dx, donate="fresh")

    return Tensor._make(out_data, (a,), backward)


class MaxPool2d(Module):
    """Max-pool layer wrapper."""

    def __init__(self, kernel_size: int, stride: int | None = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return max_pool2d(x, self.kernel_size, self.stride)

    def __repr__(self) -> str:
        return f"MaxPool2d(k={self.kernel_size}, s={self.stride})"


class AvgPool2d(Module):
    """Average-pool layer wrapper."""

    def __init__(self, kernel_size: int, stride: int | None = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return avg_pool2d(x, self.kernel_size, self.stride,
                          ws=workspace.slot_for(self))

    def __repr__(self) -> str:
        return f"AvgPool2d(k={self.kernel_size}, s={self.stride})"


class GlobalAvgPool2d(Module):
    """Mean over all spatial positions: (N, C, H, W) -> (N, C)."""

    def forward(self, x: Tensor) -> Tensor:
        return x.mean(axis=(2, 3))

    def __repr__(self) -> str:
        return "GlobalAvgPool2d()"
