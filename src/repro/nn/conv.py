"""2-D convolution via im2col / col2im.

The forward pass lowers the convolution to a single large matmul over an
im2col patch matrix (one BLAS GEMM instead of nested Python loops); the
backward pass scatters column gradients back with a small ``kh*kw`` loop
of strided adds.

One kernel per direction (DESIGN.md §10.3): :func:`_forward_data` and
:func:`_backward_data` are the only places the arithmetic is written.
The eager :func:`conv2d` allocates its outputs and calls them, and the
step compiler's replay (:mod:`repro.tensor.compile.kernels`) calls the
same two functions with planned output buffers.  Temporaries — the padded
input, the patch matrix, the GEMM outputs — live in the caller's
workspace slot (the :class:`Conv2d` layer passes its own; a bare
functional call gets a private one), never re-allocated per step.  Every
op keeps the operand order and accumulation order of the allocating
formulation kept in :mod:`repro.nn.reference`, so results are
byte-identical to it (asserted by the golden-state tests).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.tensor import workspace
from repro.tensor.tensor import Tensor, is_grad_enabled

# Flat gather indices for the im2col copy, keyed by conv geometry (C, H, W,
# kh, kw, stride) and built for the largest batch seen: row r of the index
# matrix does not depend on N, so a smaller batch is served the row prefix.
# ``np.take`` with a precomputed int64 index matrix beats the strided
# window copy by ~1.3-2x on the measured hot shapes (the window copy's
# inner runs are only ``kw`` elements) — except when the index matrix
# itself outgrows the last-level cache, where streaming 8 bytes of index
# per 4-byte element loses; ``_GATHER_IDX_MAX_BYTES`` gates that, per
# request.  The indices are immutable and shared across layers and model
# copies, so they are cached process-wide (``workspace.reset()`` drops them).
_GATHER_IDX: dict[tuple, np.ndarray] = workspace.shared_cache("conv.gather_idx")
_GATHER_IDX_MAX_BYTES = 24_000_000


def _gather_indices(shape: tuple[int, int, int, int], kh: int, kw: int,
                    stride: int) -> np.ndarray:
    """(N*Ho*Wo, C*kh*kw) int64 flat indices into a C-contiguous input."""
    n, c, h, w = shape
    ho = (h - kh) // stride + 1
    wo = (w - kw) // stride + 1
    key = (c, h, w, kh, kw, stride)
    idx = _GATHER_IDX.get(key)
    if idx is None or len(idx) < n * ho * wo:
        nn, hh, ww, cc, ii, jj = np.ix_(*(np.arange(d)
                                          for d in (n, ho, wo, c, kh, kw)))
        flat = ((nn * c + cc) * h + hh * stride + ii) * w + ww * stride + jj
        idx = _GATHER_IDX[key] = flat.reshape(n * ho * wo, c * kh * kw)
    return idx[:n * ho * wo]


def _col2im_into(dcols: np.ndarray, dx: np.ndarray, kh: int, kw: int,
                 stride: int, n: int, ho: int, wo: int) -> None:
    """Scatter-add (N*Ho*Wo, C*kh*kw) gradients into a zeroed ``dx``."""
    c = dx.shape[1]
    d6 = dcols.reshape(n, ho, wo, c, kh, kw).transpose(0, 3, 1, 2, 4, 5)
    for i in range(kh):
        hi = i + stride * ho
        for j in range(kw):
            wj = j + stride * wo
            dx[:, :, i:hi:stride, j:wj:stride] += d6[:, :, :, :, i, j]


def _forward_data(xdata: np.ndarray, wdata: np.ndarray,
                  bdata: np.ndarray | None, stride: int, padding: int,
                  ws: workspace.WorkspaceSlot,
                  out_arr: np.ndarray | None = None):
    """The forward kernel: ``(out_data, cols)``.

    ``out_data`` is freshly allocated (it becomes a graph node's payload)
    unless the caller supplies ``out_arr``, a C-contiguous
    (N, C_out, Ho, Wo) buffer the result is written into instead.
    ``cols`` is the im2col patch matrix :func:`_backward_data` needs — an
    arena buffer, valid until the slot's next forward (the one-forward-
    per-backward discipline).
    """
    out_c, _, kh, kw = wdata.shape
    if padding:
        nb, c, h, w = xdata.shape
        pshape = (nb, c, h + 2 * padding, w + 2 * padding)
        # Border zeroed whenever the served shape changes; only the
        # interior is rewritten, so the zero frame persists across reuses.
        xp = ws.buffer("conv2d.pad", pshape, xdata.dtype, zero="alloc")
        np.copyto(xp[:, :, padding:padding + h, padding:padding + w], xdata)
    else:
        xp = xdata

    n, c, h, w = xp.shape
    ho, wo = (h - kh) // stride + 1, (w - kw) // stride + 1
    rows, width = n * ho * wo, c * kh * kw
    cols = ws.buffer("conv2d.cols", (rows, width), xp.dtype)
    if xp.flags["C_CONTIGUOUS"] and rows * width * 8 <= _GATHER_IDX_MAX_BYTES:
        # Same elements as the strided window copy, materialized by an
        # indexed gather (byte-identical by construction, faster).
        np.take(xp.reshape(-1), _gather_indices(xp.shape, kh, kw, stride),
                out=cols)
    elif padding:
        # xp is a stable arena buffer: the strided window view over it
        # is built once per shape and reused until the slot grows.
        win = ws.cached("conv2d.win", (xp.shape, xp.dtype, kh, kw, stride),
                        lambda: sliding_window_view(xp, (kh, kw), axis=(2, 3))
                        [:, :, ::stride, ::stride].transpose(0, 2, 3, 1, 4, 5))
        np.copyto(cols.reshape(win.shape), win)
    else:
        win = sliding_window_view(xp, (kh, kw), axis=(2, 3)) \
            [:, :, ::stride, ::stride].transpose(0, 2, 3, 1, 4, 5)
        np.copyto(cols.reshape(win.shape), win)

    out = ws.buffer("conv2d.out", (rows, out_c), cols.dtype)
    np.matmul(cols, wdata.reshape(out_c, -1).T, out=out)    # (N*Ho*Wo, O)
    if bdata is not None:
        out += bdata
    nhwc = out.reshape(n, ho, wo, out_c).transpose(0, 3, 1, 2)
    if out_arr is None:
        return np.ascontiguousarray(nhwc), cols
    np.copyto(out_arr, nhwc)
    return out_arr, cols


def _backward_scratch(ws: workspace.WorkspaceSlot,
                      g_shape: tuple[int, int, int, int],
                      w_shape: tuple[int, int, int, int],
                      x_shape: tuple[int, int, int, int], padding: int,
                      dtype, need_dx: bool):
    """``(gmat, dcols, dxp, dx)``: the arena arrays one
    :func:`_backward_data` call works in, valid until the slot's next
    backward.  ``dxp`` is the padded scatter target and ``dx`` its
    interior, the input gradient; without ``need_dx`` the last three are
    ``None``."""
    n, out_c, ho, wo = g_shape
    rows = n * ho * wo
    gmat = ws.buffer("conv2d.gmat", (rows, out_c), dtype)
    if not need_dx:
        return gmat, None, None, None
    _, c, h, w = x_shape
    dcols = ws.buffer("conv2d.dcols", (rows, c * w_shape[2] * w_shape[3]),
                      dtype)
    dxp = ws.buffer("conv2d.dx", (n, c, h + 2 * padding, w + 2 * padding),
                    dtype)
    return gmat, dcols, dxp, (dxp[:, :, padding:-padding, padding:-padding]
                              if padding else dxp)


def _backward_data(g: np.ndarray, cols: np.ndarray, wdata: np.ndarray,
                   stride: int, gmat: np.ndarray, dcols: np.ndarray | None,
                   db: np.ndarray | None = None, dw: np.ndarray | None = None,
                   dxp: np.ndarray | None = None) -> None:
    """The backward kernel: fill the gradients the caller passes arrays for.

    ``g`` is the (N, C_out, Ho, Wo) output gradient and ``cols`` the patch
    matrix of the matching :func:`_forward_data` call; ``gmat`` / ``dcols``
    are scratch (:func:`_backward_scratch`).  ``db`` (C_out,), ``dw``
    (weight-shaped, C-contiguous) and ``dxp`` (the padded input's shape)
    are overwritten; ``None`` skips that gradient.
    """
    out_c, _, kh, kw = wdata.shape
    n, _, ho, wo = g.shape
    gt = g.transpose(0, 2, 3, 1)
    view = None
    # When the transposed grad is reshape-compatible (N == 1, 1x1 spatial
    # maps), the allocating formulation got a zero-copy view whose memory
    # layout steers BLAS into a different GEMM kernel — bitwise different
    # sums.  Reproduce that operand layout: view when a view exists,
    # scratch copy only where the reshape copied.  (A C-contiguous ``g``
    # with N, C_out and Ho*Wo all above 1 never has one: skip the attempt
    # and its exception on the common layout.)
    if n == 1 or out_c == 1 or ho * wo == 1 or not g.flags.c_contiguous:
        try:
            view = np.reshape(gt, gmat.shape, copy=False)
        except ValueError:
            pass
    if view is None:
        np.copyto(gmat.reshape(n, ho, wo, out_c), gt)
    else:
        gmat = view
    if db is not None:
        gmat.sum(axis=0, out=db)
    if dw is not None:
        np.matmul(gmat.T, cols, out=dw.reshape(out_c, -1))
    if dxp is not None:
        np.matmul(gmat, wdata.reshape(out_c, -1), out=dcols)
        dxp[...] = 0        # here, so the scatter-add finds it in cache
        _col2im_into(dcols, dxp, kh, kw, stride, n, ho, wo)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None,
           stride: int = 1, padding: int = 0,
           ws: workspace.WorkspaceSlot | None = None) -> Tensor:
    """Differentiable 2-D convolution.

    ``x``: (N, C_in, H, W); ``weight``: (C_out, C_in, kh, kw);
    ``bias``: (C_out,) or None.  Returns (N, C_out, H_out, W_out).
    ``ws`` is the workspace slot the temporaries live in; without one the
    call runs on a private slot that dies with the graph.
    """
    if x.shape[1] != weight.shape[1]:
        raise ValueError(f"input channels {x.shape[1]} != weight in-channels "
                         f"{weight.shape[1]}")
    ws = ws or workspace.WorkspaceSlot()
    out_data, cols = _forward_data(
        x.data, weight.data, None if bias is None else bias.data,
        stride, padding, ws)

    if not (is_grad_enabled() and (x.requires_grad or weight.requires_grad or
                                   (bias is not None and bias.requires_grad))):
        # Inference fast path: no closure, no graph edges, nothing retained.
        return Tensor(out_data, dtype=out_data.dtype)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g):
        gmat, dcols, dxp, dx = _backward_scratch(
            ws, g.shape, weight.shape, x.shape, padding, g.dtype,
            x.requires_grad)
        db = dw = None
        if bias is not None and bias.requires_grad:
            db = np.empty(bias.shape, g.dtype)
        if weight.requires_grad:
            dw = np.empty(weight.shape, g.dtype)
        _backward_data(g, cols, weight.data, stride, gmat, dcols, db, dw, dxp)
        if db is not None:
            bias._accumulate(db, donate="fresh")
        if dw is not None:
            weight._accumulate(dw, donate="fresh")
        if dx is not None:
            # Arena memory, valid until this slot's next backward: non-leaf
            # parents take it in place, leaves copy (DESIGN.md §10).
            x._accumulate(dx, donate="scratch")

    return Tensor._make(out_data, parents, backward, (stride, padding, ws))


class Conv2d(Module):
    """Convolution layer with square kernel/stride/padding.

    Weight layout matches PyTorch: ``(out_channels, in_channels, k, k)``;
    the salient-parameter machinery treats dim-0 slices as the per-filter
    (output-channel) granularity of selection.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(init.kaiming_normal(shape, rng))
        if bias:
            self.bias = Parameter(init.uniform_fan_in_bias(shape, rng))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, self.stride, self.padding,
                      ws=workspace.slot_for(self))

    def __repr__(self) -> str:
        return (f"Conv2d({self.in_channels}, {self.out_channels}, "
                f"k={self.kernel_size}, s={self.stride}, p={self.padding}, "
                f"bias={self.bias is not None})")
