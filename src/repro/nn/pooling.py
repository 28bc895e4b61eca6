"""Spatial pooling layers (max / average / global average).

Max pooling reads its input as k*k strided *tap* views, one per window
position: tap ``t = i*k + j`` of every window at once is the
``(N, C, Ho, Wo)`` view ``x[:, :, i:i+(Ho-1)*s+1:s, j:j+(Wo-1)*s+1:s]``
(:func:`_tap`).  No max-pool kernel copies the windows (DESIGN.md §10.3):

- the training forward takes the max and the argmax together, one pass per
  tap: a tap strictly larger than the running max, or the first NaN,
  replaces it through a branch-free select on the unsigned bit view, and
  the tap's index raises the ``uint8`` argmax — ``np.argmax``'s
  first-maximum rule exactly, ``-0.0``/``0.0`` ties and NaNs included;
- the ``no_grad`` forward is an ``np.maximum`` cascade over the taps in
  the same order (ties between ``-0.0`` and ``0.0`` go to the later tap,
  as ``np.maximum`` resolves them);
- the backward writes, per tap, ``g``'s bits where that tap is the argmax
  (``+0.0`` elsewhere) through the tap's view of ``dx`` when the windows
  are disjoint (``stride >= k``), zero-filling first only when the taps
  leave cells uncovered; overlapping windows can route several gradients
  to one cell, so they accumulate through ``np.bincount`` over flat
  indices, in float64 (covered by float64 gradchecks).

Max pooling's arithmetic is written once, in :func:`_max_forward_data`
and :func:`_max_backward_data`: the eager :func:`max_pool2d` allocates
the arrays they fill, the step compiler's replay passes planned ones.
Their scratch comes off ``workspace.transient``.  The overlapping
backward's window-corner index is one sample's ``(C, Ho, Wo)`` array,
cached process-wide per geometry with the batch offset added at use, so
a pool layer owns no memory whatever batch sizes it meets.

Average pooling writes the scaled gradient through the same k*k strided
assignments into a fresh input gradient it donates (skipping the
zero-fill entirely when the window tiling covers the input).  For the
non-overlapping configurations the models use, results are
byte-identical to the original formulation (the reference kernels the
golden-state tests keep).
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
# Only overlapping windows (``stride < k``) read it.
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


def _tap(a: np.ndarray, t: int, k: int, s: int, ho: int,
         wo: int) -> np.ndarray:
    """Tap ``t`` (row-major within the window) of every ``k``x``k``,
    stride-``s`` window of ``a``: a strided (N, C, Ho, Wo) view."""
    i, j = divmod(t, k)
    return a[:, :, i:i + (ho - 1) * s + 1:s, j:j + (wo - 1) * s + 1:s]


def _bits(a: np.ndarray) -> np.ndarray:
    """``a`` viewed as the unsigned integers of its item width."""
    return a.view(f"u{a.dtype.itemsize}")


def _max_forward_data(xdata: np.ndarray, k: int, s: int,
                      arg: np.ndarray | None, out: np.ndarray) -> None:
    """The max-pool forward kernel: fill ``out`` with each window's maximum
    and ``arg`` (uint8) with its index in ``0..k*k`` — the first maximum,
    as ``np.argmax`` picks it, what :func:`_max_backward_data` needs.
    ``arg=None`` (no backward) takes the maxima alone, by ``np.maximum``.
    """
    ho, wo = out.shape[2:]
    np.copyto(out, _tap(xdata, 0, k, s, ho, wo))
    if arg is None:
        for t in range(1, k * k):
            np.maximum(out, _tap(xdata, t, k, s, ho, wo), out=out)
        return
    arg.fill(0)
    stack = workspace.transient
    stack.reset()
    cand = stack.buffer("maxpool.cand", out.shape, out.dtype)
    take = stack.buffer("maxpool.take", out.shape, np.bool_)
    isnum = stack.buffer("maxpool.isnum", out.shape, np.bool_)
    out_bits, cand_bits, take_t = _bits(out), _bits(cand), take.view(np.uint8)
    for t in range(1, k * k):
        np.copyto(cand, _tap(xdata, t, k, s, ho, wo))
        # take = ~(cand <= out) & (out == out): the tap is larger, or it is
        # the first NaN.  Equal taps and -0.0/0.0 ties keep the earlier one.
        np.less_equal(cand, out, out=take)
        np.equal(out, out, out=isnum)
        np.greater(isnum, take, out=take)           # isnum & ~take
        # out ^= (out ^ cand) * take: cand's bits where take, branch-free
        # (a masked copy costs several times this pass).
        np.bitwise_xor(out_bits, cand_bits, out=cand_bits)
        np.multiply(cand_bits, take, out=cand_bits)
        np.bitwise_xor(out_bits, cand_bits, out=out_bits)
        # arg = max(arg, take * t): t exceeds every earlier tap's index.
        np.multiply(take_t, t, out=take_t)
        np.maximum(arg, take_t, out=arg)


def _max_backward_data(g: np.ndarray, arg: np.ndarray, k: int, s: int,
                       dx: np.ndarray) -> None:
    """The max-pool backward kernel: route ``g`` to each window's argmax
    cell of ``dx``, the C-contiguous input-shaped gradient, and zero every
    other cell (``dx`` arrives uninitialised)."""
    n, c, h, w = dx.shape
    ho, wo = arg.shape[2:]
    if s < k:
        # Overlapping windows can hit a cell repeatedly; bincount
        # accumulates (in float64 — exact for the float64 gradchecks).
        flat_idx, kj = np.divmod(arg.astype(np.intp), k)   # argmax row, col
        flat_idx *= w
        flat_idx += kj
        flat_idx += _batch_flat_base(n, c, h, w, ho, wo, s)
        acc = np.bincount(flat_idx.reshape(-1), weights=np.ravel(g),
                          minlength=dx.size)
        dx[...] = acc.reshape(dx.shape)
        return
    # Disjoint windows: each input cell is one window's tap at most, so
    # every tap view of dx takes g's bits where that tap is the argmax and
    # +0.0 elsewhere, exactly what adding g into zeros leaves.  Only cells
    # no window covers (gaps, a ragged edge) need zeroing first.
    if not (s == k and h == ho * k and w == wo * k):
        dx.fill(0)
    stack = workspace.transient
    stack.reset()
    # g contiguous: the tap views are strided, and a strided g too turns
    # each select into short inner loops.
    gc = stack.buffer("maxpool.g", g.shape, dx.dtype)
    np.copyto(gc, g)
    hit = stack.buffer("maxpool.hit", arg.shape, np.bool_)
    g_bits, dx_bits = _bits(gc), _bits(dx)
    for t in range(k * k):
        np.equal(arg, t, out=hit)
        np.multiply(g_bits, hit, out=_tap(dx_bits, t, k, s, ho, wo))


def max_pool2d(x: Tensor, kernel_size: int,
               stride: int | None = None) -> Tensor:
    """Max pooling with square window; stride defaults to the window size."""
    k = kernel_size
    s = stride or k
    if k * k > 256:
        raise ValueError(f"max_pool2d: a {k}x{k} window has more taps than "
                         "the uint8 argmax can index (256)")
    n, c, h, w = x.data.shape
    oshape = (n, c, (h - k) // s + 1, (w - k) // s + 1)
    out_data = np.empty(oshape, x.data.dtype)
    if not (is_grad_enabled() and x.requires_grad):
        # Inference: the max alone, no argmax bookkeeping.
        _max_forward_data(x.data, k, s, None, out_data)
        return Tensor(out_data, dtype=x.data.dtype)

    arg = np.empty(oshape, np.uint8)
    _max_forward_data(x.data, k, s, arg, out_data)

    def backward(g):
        dx = np.empty_like(x.data)
        _max_backward_data(g, arg, k, s, dx)
        x._accumulate(dx, donate="fresh")

    return Tensor._make(out_data, (x,), backward, (k, s))


def avg_pool2d(x: Tensor, kernel_size: int,
               stride: int | None = None) -> Tensor:
    """Average pooling with square window; stride defaults to window size."""
    k = kernel_size
    s = stride or k
    n, c, h, w = x.shape
    ho = (h - k) // s + 1
    wo = (w - k) // s + 1
    out_data = np.ascontiguousarray(_windows(x.data, k, s).mean(axis=(-1, -2)))

    if not (is_grad_enabled() and x.requires_grad):
        return Tensor(out_data, dtype=out_data.dtype)

    a = x

    def backward(g):
        if s == k:
            # Non-overlapping tiling: k*k strided assignments of the
            # scaled gradient, each writing every window's (i, j) tap in
            # one pass — no scatter, and (when the tiling covers the
            # input exactly) nothing to zero first.
            covered = (h == ho * k and w == wo * k)
            dx = np.empty_like(a.data) if covered else np.zeros_like(a.data)
            gk = np.divide(g, k * k)
            for i in range(k):
                for j in range(k):
                    dx[:, :, i:i + s * ho:s, j:j + s * wo:s] = gk
            a._accumulate(dx, donate="fresh")
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
        return avg_pool2d(x, self.kernel_size, self.stride)

    def __repr__(self) -> str:
        return f"AvgPool2d(k={self.kernel_size}, s={self.stride})"


class GlobalAvgPool2d(Module):
    """Mean over all spatial positions: (N, C, H, W) -> (N, C)."""

    def forward(self, x: Tensor) -> Tensor:
        return x.mean(axis=(2, 3))

    def __repr__(self) -> str:
        return "GlobalAvgPool2d()"
