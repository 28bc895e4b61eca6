"""2-D convolution via im2col / col2im.

The forward pass lowers the convolution to a single large matmul over an
im2col patch matrix (one BLAS GEMM instead of nested Python loops); the
backward pass scatters column gradients back with a small ``kh*kw`` loop
of strided adds into a channel-last staging array, then one transposing
copy.

One kernel per direction (DESIGN.md §10.3): :func:`_forward_data` and
:func:`_backward_data` are the only places the arithmetic is written.
The eager :func:`conv2d` allocates its outputs and calls them, and the
step compiler's replay (:mod:`repro.tensor.compile.kernels`) calls the
same two functions with planned output buffers.  Memory is kept by
lifetime (DESIGN.md §10.1): what is dead when the kernel returns — padded
input, patch matrix, GEMM outputs, transposed output gradient, col2im
staging — comes off the ``workspace.transient`` stack, which each kernel
resets on entry; the input gradient lives as long as the parent's
gradient, so eager allocates it fresh and donates it, and a replay plans
it as a handle.  A layer owns no memory of its own.  The patch matrix is
a pure function of the conv's input, which the graph keeps alive anyway,
so nothing holds it from forward to backward: :func:`_gather_cols` builds
it for the forward GEMM and again for the weight gradient.  Every op
keeps the operand and accumulation order of the allocating reference
kernels the golden-state tests keep, so results are byte-identical to
them.
"""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.tensor import workspace
from repro.tensor.tensor import Tensor, is_grad_enabled

# Gather indices for the im2col copy of *one* sample, keyed by conv geometry
# (C, H, W, kh, kw, stride): row r of sample n is row r of sample 0 shifted
# by n*C*H*W, so ``np.take(..., axis=1)`` over the (N, C*H*W) input serves
# every batch size from one L2-sized matrix.  Immutable and shared across
# layers and model copies: cached process-wide (``workspace.reset()`` drops).
_GATHER_IDX: dict[tuple, np.ndarray] = workspace.shared_cache("conv.gather_idx")


def _gather_indices(shape: tuple[int, int, int, int], kh: int, kw: int,
                    stride: int) -> np.ndarray:
    """(Ho*Wo, C*kh*kw) intp indices into one flattened (C, H, W) sample of
    an input of ``shape`` — the same array for every batch size."""
    _, c, h, w = shape
    key = (c, h, w, kh, kw, stride)
    idx = _GATHER_IDX.get(key)
    if idx is None:
        ho = (h - kh) // stride + 1
        wo = (w - kw) // stride + 1
        hh, ww, cc, ii, jj = np.ix_(*(np.arange(d)
                                      for d in (ho, wo, c, kh, kw)))
        flat = (cc * h + hh * stride + ii) * w + ww * stride + jj
        idx = flat.reshape(ho * wo, c * kh * kw)
        # The bound is checked here, once per geometry, so the gather can
        # run with mode="clip" (mode="raise" buffers ``out``).
        assert 0 <= idx.min() and idx.max() < c * h * w, key
        _GATHER_IDX[key] = idx
    return idx


def _col2im_into(dcols: np.ndarray, dxp: np.ndarray, kh: int, kw: int,
                 stride: int, n: int, ho: int, wo: int) -> None:
    """Scatter-add (N*Ho*Wo, C*kh*kw) patch gradients into ``dxp``, the
    padded (N, C, Hp, Wp) input gradient, overwriting it.

    The taps accumulate into a zeroed channel-last (N, Hp, Wp, C) staging
    array — the same adds onto zeros in the same (i, j) order as adding
    into ``dxp`` directly, so every element's sum is unchanged, but each add
    walks the patch gradients at a kh*kw-element stride instead of a
    C*kh*kw one — and one transposing copy lands the result in ``dxp``.
    """
    _, c, hp, wp = dxp.shape
    stage = workspace.transient.buffer("conv2d.col2im", (n, hp, wp, c),
                                       dxp.dtype)
    stage.fill(0)
    d6 = dcols.reshape(n, ho, wo, c, kh, kw)
    for i in range(kh):
        hi = i + stride * ho
        for j in range(kw):
            wj = j + stride * wo
            stage[:, i:hi:stride, j:wj:stride] += d6[..., i, j]
    np.copyto(dxp, stage.transpose(0, 3, 1, 2))


def _gather_cols(xdata: np.ndarray, kh: int, kw: int, stride: int,
                 padding: int) -> np.ndarray:
    """The (N*Ho*Wo, C*kh*kw) im2col patch matrix of ``xdata``.

    A pure function of the conv's input, so it is scratch, not an
    activation: it comes off the transient stack, and is dead when the
    kernel that asked for it returns.  The forward and the backward of a
    layer each call this on the same input and get the same bytes.
    """
    if padding or not xdata.flags.c_contiguous:
        # The gather indexes C-contiguous samples: an un-padded strided input
        # is staged through the same buffer (padding 0).  The stack promises
        # nothing about what the region held, so the frame strips are zeroed
        # on every request and the interior is overwritten.
        nb, c, h, w = xdata.shape
        p = padding
        xp = workspace.transient.buffer(
            "conv2d.pad", (nb, c, h + 2 * p, w + 2 * p), xdata.dtype)
        if p:
            xp[:, :, :p] = 0
            xp[:, :, -p:] = 0
            xp[:, :, p:-p, :p] = 0
            xp[:, :, p:-p, -p:] = 0
        np.copyto(xp[:, :, p:p + h, p:p + w], xdata)
    else:
        xp = xdata

    n, c, h, w = xp.shape
    ho, wo = (h - kh) // stride + 1, (w - kw) // stride + 1
    width = c * kh * kw
    cols = workspace.transient.buffer("conv2d.cols", (n * ho * wo, width),
                                      xp.dtype)
    # Same elements in the same order as a strided window copy; the index
    # bound was checked where the index was built.
    np.take(xp.reshape(n, -1), _gather_indices(xp.shape, kh, kw, stride),
            axis=1, out=cols.reshape(n, ho * wo, width), mode="clip")
    return cols


def _forward_data(xdata: np.ndarray, wdata: np.ndarray,
                  bdata: np.ndarray | None, stride: int, padding: int,
                  out_arr: np.ndarray | None = None) -> np.ndarray:
    """The forward kernel: the (N, C_out, Ho, Wo) output.

    Freshly allocated (it becomes a graph node's payload) unless the caller
    supplies ``out_arr``, a C-contiguous buffer of that shape the result is
    written into instead.  Nothing is kept for the backward: it re-gathers
    the patch matrix from ``xdata``.
    """
    out_c, _, kh, kw = wdata.shape
    n, _, h, w = xdata.shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    workspace.transient.reset()
    cols = _gather_cols(xdata, kh, kw, stride, padding)
    out = workspace.transient.buffer("conv2d.out", (n * ho * wo, out_c),
                                     cols.dtype)
    np.matmul(cols, wdata.reshape(out_c, -1).T, out=out)    # (N*Ho*Wo, O)
    if bdata is not None:
        out += bdata
    if out_arr is None:     # always a copy: ``out`` is every conv's scratch
        out_arr = np.empty((n, out_c, ho, wo), out.dtype)
    np.copyto(out_arr, out.reshape(n, ho, wo, out_c).transpose(0, 3, 1, 2))
    return out_arr


def _padded_shape(x_shape: tuple[int, int, int, int],
                  padding: int) -> tuple[int, int, int, int]:
    """Shape of the padded scatter target ``dxp`` :func:`_backward_data`
    fills for an input of ``x_shape``."""
    n, c, h, w = x_shape
    return (n, c, h + 2 * padding, w + 2 * padding)


def _interior(dxp: np.ndarray, padding: int) -> np.ndarray:
    """The input gradient: ``dxp`` without its padding frame (a view)."""
    return dxp[:, :, padding:-padding, padding:-padding] if padding else dxp


def _backward_data(g: np.ndarray, xdata: np.ndarray, wdata: np.ndarray,
                   stride: int, padding: int, db: np.ndarray | None = None,
                   dw: np.ndarray | None = None,
                   dxp: np.ndarray | None = None) -> None:
    """The backward kernel: fill the gradients the caller passes arrays for.

    ``g`` is the (N, C_out, Ho, Wo) output gradient and ``xdata`` the input
    the matching :func:`_forward_data` call was given, unchanged since.
    ``db`` (C_out,), ``dw`` (weight-shaped, C-contiguous) and ``dxp`` (shaped
    :func:`_padded_shape`) are overwritten; ``None``
    skips that gradient.  Only ``dw`` reads the patch matrix, so only a
    wanted ``dw`` re-gathers it, and its region of the transient stack is
    released after the weight-gradient GEMM: ``dcols`` (the same shape) and
    the col2im staging reuse it.
    """
    out_c, in_c, kh, kw = wdata.shape
    n, _, ho, wo = g.shape
    gshape = (n * ho * wo, out_c)
    stack = workspace.transient
    stack.reset()
    gt = g.transpose(0, 2, 3, 1)
    gmat = None
    # When the transposed grad is reshape-compatible (N == 1, 1x1 spatial
    # maps), the allocating formulation got a zero-copy view whose memory
    # layout steers BLAS into a different GEMM kernel — bitwise different
    # sums.  Reproduce that operand layout: view when a view exists,
    # scratch copy only where the reshape copied.  (A C-contiguous ``g``
    # with N, C_out and Ho*Wo all above 1 never has one: skip the attempt
    # and its exception on the common layout.)
    if n == 1 or out_c == 1 or ho * wo == 1 or not g.flags.c_contiguous:
        try:
            gmat = np.reshape(gt, gshape, copy=False)
        except ValueError:
            pass
    if gmat is None:
        gmat = stack.buffer("conv2d.gmat", gshape, g.dtype)
        np.copyto(gmat.reshape(n, ho, wo, out_c), gt)
    if db is not None:
        gmat.sum(axis=0, out=db)
    if dw is not None:
        top = stack.mark()
        cols = _gather_cols(xdata, kh, kw, stride, padding)
        np.matmul(gmat.T, cols, out=dw.reshape(out_c, -1))
        stack.release(top)
    if dxp is not None:
        dcols = stack.buffer("conv2d.dcols", (gshape[0], in_c * kh * kw),
                             g.dtype)
        np.matmul(gmat, wdata.reshape(out_c, -1), out=dcols)
        _col2im_into(dcols, dxp, kh, kw, stride, n, ho, wo)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """Differentiable 2-D convolution.

    ``x``: (N, C_in, H, W); ``weight``: (C_out, C_in, kh, kw);
    ``bias``: (C_out,) or None.  Returns (N, C_out, H_out, W_out).
    """
    if x.shape[1] != weight.shape[1]:
        raise ValueError(f"input channels {x.shape[1]} != weight in-channels "
                         f"{weight.shape[1]}")
    out_data = _forward_data(
        x.data, weight.data, None if bias is None else bias.data,
        stride, padding)
    if not (is_grad_enabled() and (
            x.requires_grad or weight.requires_grad or
            (bias is not None and bias.requires_grad))):
        # Inference fast path: no closure, no graph edges, nothing retained.
        return Tensor(out_data, dtype=out_data.dtype)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g):
        db = dw = dxp = dx = None
        if bias is not None and bias.requires_grad:
            db = np.empty(bias.shape, g.dtype)
        if weight.requires_grad:
            dw = np.empty(weight.shape, g.dtype)
        if x.requires_grad:
            dxp = np.empty(_padded_shape(x.shape, padding), g.dtype)
            dx = _interior(dxp, padding)
        _backward_data(g, x.data, weight.data, stride, padding, db, dw, dxp)
        if db is not None:
            bias._accumulate(db, donate="fresh")
        if dw is not None:
            weight._accumulate(dw, donate="fresh")
        if dx is not None:
            x._accumulate(dx, donate="fresh")

    return Tensor._make(out_data, parents, backward, (stride, padding))


class Conv2d(Module):
    """Convolution layer with square kernel/stride/padding.

    Weight layout matches PyTorch: ``(out_channels, in_channels, k, k)``;
    the salient-parameter machinery treats dim-0 slices as the per-filter
    (output-channel) granularity of selection.
    """

    op_name = "conv2d"

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
        return conv2d(x, self.weight, self.bias, self.stride, self.padding)

    def __repr__(self) -> str:
        return (f"Conv2d({self.in_channels}, {self.out_channels}, "
                f"k={self.kernel_size}, s={self.stride}, p={self.padding}, "
                f"bias={self.bias is not None})")
