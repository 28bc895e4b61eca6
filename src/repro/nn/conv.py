"""2-D convolution via im2col / col2im.

The forward pass lowers the convolution to a single large matmul using
``numpy.lib.stride_tricks.sliding_window_view`` (zero-copy patch extraction),
which on a CPU-only NumPy stack is the fastest formulation by a wide margin
(one BLAS GEMM instead of nested Python loops).  The backward pass scatters
column gradients back with a small ``kh*kw`` loop of strided adds.

Workspace-backed hot path (DESIGN.md §10): when called with a
``workspace`` slot (the :class:`Conv2d` layer passes its own), the padded
input, im2col patch matrix, GEMM outputs, and col2im scatter target live
in per-layer arena buffers instead of being re-allocated every step.
Every arithmetic op keeps the exact operand order and accumulation order
of the allocating path, so results are byte-identical (asserted against
:mod:`repro.nn.reference` by the golden-state tests).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.tensor import workspace
from repro.tensor.tensor import Tensor, is_grad_enabled

# Populated by repro.nn.fuse.folded_inference while active: maps
# ``id(conv)`` to ``(folded_weight, folded_bias)`` arrays with the
# downstream BatchNorm absorbed.  Empty outside the context, so the
# training path pays one falsy check.  ``_FOLDED_BNS`` is the matching
# set of ``id(bn)`` whose forward becomes the identity.
_ACTIVE_FOLDS: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_FOLDED_BNS: set[int] = set()

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


def _im2col(x: np.ndarray, kh: int, kw: int,
            stride: int) -> tuple[np.ndarray, tuple[int, int, int]]:
    """(N, C, H, W) -> ``(cols, (n, ho, wo))`` where ``cols`` is the
    (N*Ho*Wo, C*kh*kw) patch matrix (copies once)."""
    windows = sliding_window_view(x, (kh, kw), axis=(2, 3))  # N,C,Ho*,Wo*,kh,kw
    windows = windows[:, :, ::stride, :: stride]
    n, c, ho, wo = windows.shape[:4]
    # (N, Ho, Wo, C, kh, kw) -> rows are receptive fields
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * ho * wo, c * kh * kw)
    return np.ascontiguousarray(cols), (n, ho, wo)


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


def _col2im(dcols: np.ndarray, x_shape: tuple[int, int, int, int], kh: int,
            kw: int, stride: int, n: int, ho: int, wo: int) -> np.ndarray:
    """Scatter-add (N*Ho*Wo, C*kh*kw) gradients back to a fresh (N, C, H, W)."""
    dx = np.zeros(x_shape, dtype=dcols.dtype)
    _col2im_into(dcols, dx, kh, kw, stride, n, ho, wo)
    return dx


def _forward_data(xdata: np.ndarray, wdata: np.ndarray,
                  bdata: np.ndarray | None, stride: int, padding: int,
                  ws: workspace.WorkspaceSlot | None,
                  out_arr: np.ndarray | None = None):
    """Shared forward arithmetic for the autodiff and inference paths.

    Returns ``(out_data, cols, wmat, xp_shape, n, ho, wo)`` — ``out_data``
    is freshly allocated (it becomes a graph node's payload) unless the
    caller supplies ``out_arr``, a C-contiguous (N, C_out, Ho, Wo) buffer
    the result is written into instead (the step compiler's replay path
    owns its output placement); ``cols`` may be an arena buffer (captured
    by the backward closure under the one-forward-per-backward
    discipline).
    """
    out_c = wdata.shape[0]
    kh, kw = wdata.shape[2], wdata.shape[3]
    if padding:
        if ws is None:
            xp = np.pad(xdata, ((0, 0), (0, 0), (padding, padding),
                                (padding, padding)))
        else:
            nb, c, h, w = xdata.shape
            pshape = (nb, c, h + 2 * padding, w + 2 * padding)
            # Border zeroed whenever the served shape changes; only the
            # interior is rewritten, so the zero frame persists across reuses.
            xp = ws.buffer("conv2d.pad", pshape, xdata.dtype, zero="alloc")
            np.copyto(xp[:, :, padding:padding + h, padding:padding + w], xdata)
    else:
        xp = xdata

    if ws is None:
        cols, (n, ho, wo) = _im2col(xp, kh, kw, stride)
    else:
        nb, c, h, w = xp.shape
        n, ho, wo = nb, (h - kh) // stride + 1, (w - kw) // stride + 1
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

    wmat = wdata.reshape(out_c, -1)
    if ws is None:
        out = cols @ wmat.T                  # (N*Ho*Wo, O)
    else:
        out = ws.buffer("conv2d.out", (cols.shape[0], out_c), cols.dtype)
        np.matmul(cols, wmat.T, out=out)
    if bdata is not None:
        out += bdata
    if out_arr is None:
        out_data = np.ascontiguousarray(
            out.reshape(n, ho, wo, out_c).transpose(0, 3, 1, 2))
    else:
        np.copyto(out_arr, out.reshape(n, ho, wo, out_c).transpose(0, 3, 1, 2))
        out_data = out_arr
    return out_data, cols, wmat, xp.shape, n, ho, wo


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None,
           stride: int = 1, padding: int = 0,
           ws: workspace.WorkspaceSlot | None = None) -> Tensor:
    """Differentiable 2-D convolution.

    ``x``: (N, C_in, H, W); ``weight``: (C_out, C_in, kh, kw);
    ``bias``: (C_out,) or None.  Returns (N, C_out, H_out, W_out).
    ``ws`` routes the temporaries through a workspace arena slot.
    """
    out_c, in_c, kh, kw = weight.shape
    if x.shape[1] != in_c:
        raise ValueError(f"input channels {x.shape[1]} != weight in-channels {in_c}")
    out_data, cols, wmat, xp_shape, n, ho, wo = _forward_data(
        x.data, weight.data, None if bias is None else bias.data,
        stride, padding, ws)

    if not (is_grad_enabled() and (x.requires_grad or weight.requires_grad or
                                   (bias is not None and bias.requires_grad))):
        # Inference fast path: no closure, no graph edges, nothing retained.
        return Tensor(out_data, dtype=out_data.dtype)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g):
        gt = g.transpose(0, 2, 3, 1)
        if ws is None:
            gmat = gt.reshape(n * ho * wo, out_c)
        else:
            try:
                # When the transposed grad is reshape-compatible (N == 1,
                # 1x1 spatial maps), the allocating path got a zero-copy
                # view whose memory layout steers BLAS into a different
                # GEMM kernel — bitwise different sums.  Reproduce the
                # exact pre-PR operand layout: view when a view exists,
                # arena copy only where the original reshape copied.
                gmat = np.reshape(gt, (n * ho * wo, out_c), copy=False)
            except ValueError:
                gmat = ws.buffer("conv2d.gmat", (n * ho * wo, out_c), g.dtype)
                np.copyto(gmat.reshape(n, ho, wo, out_c), gt)
        if bias is not None and bias.requires_grad:
            bias._accumulate(gmat.sum(axis=0), donate="fresh")
        if weight.requires_grad:
            weight._accumulate((gmat.T @ cols).reshape(weight.shape),
                               donate="fresh")
        if x.requires_grad:
            if ws is None:
                dcols = gmat @ wmat
                dxp = _col2im(dcols, xp_shape, kh, kw, stride, n, ho, wo)
            else:
                dcols = ws.buffer("conv2d.dcols", (gmat.shape[0], wmat.shape[1]),
                                  g.dtype)
                np.matmul(gmat, wmat, out=dcols)
                dxp = ws.buffer("conv2d.dx", xp_shape, g.dtype, zero="always")
                _col2im_into(dcols, dxp, kh, kw, stride, n, ho, wo)
            if padding:
                dxp = dxp[:, :, padding:-padding, padding:-padding]
            # The allocating path hands over a fresh array; the arena path
            # hands over scratch valid until this layer's next forward —
            # non-leaf parents take it in place, leaves copy (DESIGN.md §10).
            x._accumulate(dxp, donate="fresh" if ws is None else "scratch")

    return Tensor._make(out_data, parents, backward)


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
        if _ACTIVE_FOLDS and not self.training:
            fold = _ACTIVE_FOLDS.get(id(self))
            if fold is not None:
                w, b = fold
                out_data, *_ = _forward_data(x.data, w, b, self.stride,
                                             self.padding,
                                             workspace.slot_for(self))
                return Tensor(out_data, dtype=out_data.dtype)
        return conv2d(x, self.weight, self.bias, self.stride, self.padding,
                      ws=workspace.slot_for(self))

    def __repr__(self) -> str:
        return (f"Conv2d({self.in_channels}, {self.out_channels}, "
                f"k={self.kernel_size}, s={self.stride}, p={self.padding}, "
                f"bias={self.bias is not None})")
