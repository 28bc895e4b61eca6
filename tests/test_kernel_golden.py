"""Golden-state byte-identity: optimized kernels vs the pre-PR reference.

The workspace/in-place kernel rewrites (DESIGN.md §10) must not change
training numerics *at all*: after identical FedAvg and SPATL rounds, the
serialized global model state produced by the optimized kernels must be
byte-for-byte equal to the state produced by the verbatim pre-PR
implementations in :mod:`tests.reference` — and the process-parallel
executor must agree with both.  Evaluation runs the same kernels, so
what a run *reports* (per-round accuracy and loss, ``Client.evaluate``)
is held to the oracle with ``==`` as well.
"""

import numpy as np
import pytest

from tests.reference import reference_kernels

from tests import matrix


@pytest.mark.parametrize("algo_name", ["fedavg", "spatl"])
class TestGoldenState:
    """Two rounds of ``config_for("tiny", n_clients=4, n_samples=400)``:
    the matrix's ``kernel/<algo>-serial``, ``-oracle`` (under
    :func:`reference_kernels`) and ``-pool`` (two workers) cells."""

    def test_serial_matches_reference(self, algo_name):
        opt = matrix.reference(f"kernel/{algo_name}-serial")
        ref = matrix.reference(f"kernel/{algo_name}-oracle")
        assert opt.model == ref.model, (
            f"{algo_name}: optimized kernels changed training numerics")
        assert [(r.avg_val_acc, r.avg_train_loss) for r in opt.results] \
            == [(r.avg_val_acc, r.avg_train_loss) for r in ref.results], (
            f"{algo_name}: optimized kernels changed the reported metrics")
        assert opt.extra["evaluate"] == ref.extra["evaluate"], (
            f"{algo_name}: Client.evaluate diverged from the oracle")

    def test_workers2_matches_serial(self, algo_name):
        assert matrix.reference(f"kernel/{algo_name}-serial").model \
            == matrix.reference(f"kernel/{algo_name}-pool").model, (
            f"{algo_name}: worker-pool run diverged from serial")


def test_partial_batch_conv_backward_matches_reference():
    """Batch sizes whose transposed grad reshapes to a zero-copy view
    (N == 1) steer BLAS differently; the optimized backward must follow
    the reference layout exactly.  Regression test for the last-partial-
    batch divergence found during the rewrite."""
    from repro.models import build_model
    from repro.optim.sgd import SGD
    from repro.tensor import Tensor, functional as F

    def train(use_reference):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 3, 12, 12)).astype(np.float32)
        y = rng.integers(0, 10, 1)

        def steps():
            model = build_model("resnet20", width_mult=0.25, input_size=12,
                                seed=4)
            opt = SGD(model.named_parameters(), lr=0.05, momentum=0.9)
            for _ in range(2):
                opt.zero_grad()
                F.cross_entropy(model(Tensor(x)), y).backward()
                opt.step()
            return {k: v.copy() for k, v in model.state_dict().items()}

        if use_reference:
            with reference_kernels():
                return steps()
        return steps()

    opt_state = train(False)
    ref_state = train(True)
    for key in ref_state:
        assert np.array_equal(opt_state[key], ref_state[key]), key


def _conv_fwd_bwd(x, weight, bias, *, stride=1, padding=1,
                  reference=False):
    """Output, input grad and weight grad of one conv2d call — on the arena
    kernels, or on the allocating oracle."""
    from repro.nn.conv import conv2d
    from tests.reference import reference_conv2d
    from repro.tensor import Tensor
    xt = Tensor(x, requires_grad=True)
    wt = Tensor(weight, requires_grad=True)
    if reference:
        out = reference_conv2d(xt, wt, Tensor(bias), stride, padding)
    else:
        out = conv2d(xt, wt, Tensor(bias), stride=stride, padding=padding)
    (out * out).sum().backward()
    return out.data.copy(), xt.grad.copy(), wt.grad.copy()


def _stack_end(*nbytes):
    """Where a run of transient-stack requests ends: each one starts at the
    next ``workspace.ALIGN``-byte offset."""
    from repro.tensor.workspace import ALIGN
    top = 0
    for b in nbytes:
        top = -(-top // ALIGN) * ALIGN + b
    return top


def _conv_stack_bytes(x_shape, out_c, k, stride, padding, staged, dx=True,
                      itemsize=4):
    """The most transient stack one conv's kernels use on an input of
    ``x_shape`` (``staged``: padded, or strided and copied through the pad
    buffer; ``dx``: the input takes a gradient).  Forward: pad, patch
    matrix, GEMM output.  Backward: the output-gradient copy (the GEMM
    output's size), then pad + patch matrix for ``dw`` — released — then
    the patch-gradient matrix (the patch matrix's size) and the col2im
    staging (the padded input's size) for ``dx``."""
    n, c, h, w = x_shape
    hp, wp = h + 2 * padding, w + 2 * padding
    ho, wo = (hp - k) // stride + 1, (wp - k) // stride + 1
    pad = [n * c * hp * wp * itemsize] if staged else []
    cols = n * ho * wo * c * k * k * itemsize
    out = n * ho * wo * out_c * itemsize
    ends = [_stack_end(*pad, cols, out), _stack_end(out, *pad, cols)]
    if dx:
        ends.append(_stack_end(out, cols, n * c * hp * wp * itemsize))
    return max(ends)


@pytest.mark.parametrize("padded", [True, False])
@pytest.mark.parametrize("shapes,grows", [
    ([(8, 6), (5, 6), (8, 6)], False),     # partial batch and back
    ([(8, 6), (16, 6), (8, 6)], True),     # larger batch: every tag grows
    ([(6, 6), (6, 4), (6, 6)], False),     # border lands on an old interior
])
def test_conv_slot_shared_across_input_shapes(padded, shapes, grows):
    """The process-wide transient stack serving one conv's alternating
    ``(batch, height)`` inputs — prefix views of one base, pad frame
    re-zeroed on every request — is byte-equal to the allocating oracle.
    ``padded=False`` is the one input the gather cannot index in place: an
    un-padded strided view, staged through the same ``conv2d.pad``
    region."""
    from repro.tensor import workspace
    workspace.reset()
    rng = np.random.default_rng(5)
    weight = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
    bias = rng.standard_normal(4).astype(np.float32)
    for i, (n, hw) in enumerate(shapes):
        # Non-zero everywhere, so a stale interior left where a border
        # belongs would show.
        x = (rng.standard_normal((n, 3, hw, 2 * hw)) + 3.0).astype(np.float32)
        x = np.ascontiguousarray(x[..., ::2]) if padded else x[..., ::2]
        got = _conv_fwd_bwd(x, weight, bias, padding=int(padded))
        want = _conv_fwd_bwd(x, weight, bias, padding=int(padded),
                             reference=True)
        for g, w in zip(got, want):
            assert np.array_equal(g, w), (padded, n, hw)
        if i == 0:
            workspace.transient.reset()     # re-based to the first shape
            generation = workspace.transient.generation
    # Nothing but the stack is resident: no conv owns memory — the input
    # gradient is donated fresh, the patch matrix and the padded input are
    # every conv's transient scratch — and only a larger batch re-bases it.
    assert set(workspace.resident_bytes()) == {"transient"}
    assert (workspace.transient.generation > generation) == grows
    # And the stack is one base, the largest batch's kernel: forward pad +
    # patch matrix + GEMM output, or the backward's matrices, whichever is
    # more (83 712 B at (16, 3, 6, 6) padded: 12 288 + 62 208 + 9 216).
    want = max(_conv_stack_bytes((n, 3, hw, hw), 4, 3, 1, int(padded), True)
               for n, hw in shapes)
    assert workspace.resident_bytes() == {
        "transient": want}, want


def test_gather_index_is_batch_independent():
    """Row r of sample n is row r of sample 0 plus n*C*H*W, so one
    per-sample index serves every batch size: the forward equals the
    oracle at every N, the cached array is the same object, and the cache
    does not grow with N."""
    from repro.nn import conv
    from repro.tensor import workspace
    workspace.reset()
    rng = np.random.default_rng(7)
    weight = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
    bias = rng.standard_normal(4).astype(np.float32)
    for stride in (1, 2):
        for padding in (0, 1, 2):
            held, seen = None, set()
            for n in (1, 5, 64):
                x = rng.standard_normal((n, 3, 7, 6)).astype(np.float32)
                got = _conv_fwd_bwd(x, weight, bias, stride=stride,
                                    padding=padding)
                want = _conv_fwd_bwd(x, weight, bias, stride=stride,
                                     padding=padding, reference=True)
                for g, w in zip(got, want):
                    assert np.array_equal(g, w), (stride, padding, n)
                pshape = (n, 3, 7 + 2 * padding, 6 + 2 * padding)
                seen.add(id(conv._gather_indices(pshape, 3, 3, stride)))
                nbytes = workspace.shared_bytes()["conv.gather_idx"]
                assert held in (None, nbytes)
                held = nbytes
            assert len(seen) == 1
    # The bound the clipping gather relies on, for every index built.
    for (c, h, w, *_), idx in conv._GATHER_IDX.items():
        assert idx.ndim == 2 and 0 <= idx.min() and idx.max() < c * h * w


def test_shared_pad_border_across_paddings():
    """A k5/p2 conv on 14x14 and a k3/p1 conv on 16x16 request the same
    padded shape at the same place — the bottom of the transient stack —
    with borders of different widths: the frame is re-zeroed on every
    request."""
    from repro.tensor import workspace
    workspace.reset()
    rng = np.random.default_rng(9)
    layers = []
    for k, p, hw in ((5, 2, 14), (3, 1, 16)):
        layers.append((rng.standard_normal((4, 3, k, k)).astype(np.float32),
                       rng.standard_normal(4).astype(np.float32), p, hw))
    for _ in range(2):
        for weight, bias, p, hw in layers:
            x = (rng.standard_normal((6, 3, hw, hw)) + 3.0).astype(np.float32)
            got = _conv_fwd_bwd(x, weight, bias, padding=p)
            want = _conv_fwd_bwd(x, weight, bias, padding=p, reference=True)
            for g, w in zip(got, want):
                assert np.array_equal(g, w), (p, hw)
    # Both layers' (6, 3, 18, 18) pads sat at offset 0 of one base, sized by
    # the larger kernel: the k5 layer's patch matrix (6*14*14 rows of 75).
    want = [_conv_stack_bytes((6, 3, hw, hw), 4, k, 1, p, True)
            for k, p, hw in ((5, 2, 14), (3, 1, 16))]
    assert want == [395008, 213824]
    assert workspace.resident_bytes() == {
        "transient": max(want)}


def _spy_gather(monkeypatch):
    """Record a copy of every patch matrix ``_gather_cols`` builds."""
    from repro.nn import conv
    built = []
    gather = conv._gather_cols

    def spy(*args):
        cols = gather(*args)
        built.append(cols.copy())
        return cols

    monkeypatch.setattr(conv, "_gather_cols", spy)
    return built


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", [0, 1])
@pytest.mark.parametrize("batches,contiguous", [
    ([1], True),            # N == 1: the zero-copy gmat layout
    ([8, 5], True),         # a partial last batch on a slot sized by 8
    ([6], False),           # strided input, staged through conv2d.pad
])
def test_conv_backward_regathers_bitwise(monkeypatch, stride, padding,
                                         batches, contiguous):
    """Nothing holds the patch matrix from forward to backward: another conv
    overwrites the transient ``conv2d.cols`` (and ``conv2d.pad``) in between,
    the backward gathers again from the conv's input, and what it rebuilds is
    forward's matrix byte for byte — so ``dw`` / ``db`` / ``dx`` and the
    output equal the allocating oracle's."""
    from repro.nn.conv import conv2d
    from tests.reference import reference_conv2d
    from repro.tensor import Tensor, workspace
    workspace.reset()
    built = _spy_gather(monkeypatch)
    rng = np.random.default_rng(11)
    weight = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
    bias = rng.standard_normal(4).astype(np.float32)
    other = (Tensor(rng.standard_normal((9, 3, 11, 11)).astype(np.float32)),
             Tensor(rng.standard_normal((2, 3, 5, 5)).astype(np.float32)))
    for n in batches:
        x = (rng.standard_normal((n, 3, 7, 12)) + 3.0).astype(np.float32)
        x = np.ascontiguousarray(x[..., ::2]) if contiguous else x[..., ::2]
        grads = []
        for fn in (conv2d, reference_conv2d):
            xt, wt, bt = (Tensor(a, requires_grad=True)
                          for a in (x, weight, bias))
            out = fn(xt, wt, bt, stride, padding)
            if fn is conv2d:
                conv2d(*other, None, stride=1, padding=2)   # clobbers scratch
            (out * out).sum().backward()
            grads.append((out.data, xt.grad, wt.grad, bt.grad))
        for got, want in zip(*grads):
            assert np.array_equal(got, want), (stride, padding, n)
        forward, _, backward = built
        assert forward.tobytes() == backward.tobytes()
        del built[:]


def test_frozen_weight_conv_backward_never_gathers(monkeypatch):
    """Only ``dw`` reads the patch matrix: with the weight frozen the
    backward produces ``dx`` / ``db`` (equal to the oracle's) from the output
    gradient and the weight alone."""
    from repro.nn.conv import conv2d
    from tests.reference import reference_conv2d
    from repro.tensor import Tensor
    built = _spy_gather(monkeypatch)
    rng = np.random.default_rng(13)
    x = rng.standard_normal((4, 3, 6, 6)).astype(np.float32)
    weight = rng.standard_normal((5, 3, 3, 3)).astype(np.float32)
    bias = rng.standard_normal(5).astype(np.float32)
    grads = []
    for fn in (conv2d, reference_conv2d):
        xt, bt = (Tensor(a, requires_grad=True) for a in (x, bias))
        wt = Tensor(weight)
        out = fn(xt, wt, bt, 1, 1)
        calls = len(built)
        (out * out).sum().backward()
        assert len(built) == calls and wt.grad is None
        grads.append((xt.grad, bt.grad))
    assert len(built) == 1          # conv2d's forward; the oracle never calls
    for got, want in zip(*grads):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("compiled", [False, True])
@pytest.mark.parametrize("arch", ["resnet20", "vgg11"])
def test_patch_matrix_residency_is_one_layer(arch, compiled, monkeypatch):
    """After training steps — eager, or captured and replayed — the process
    holds one transient base, the size of the largest single conv kernel's
    scratch (its patch matrix plus pad and GEMM output, or the backward's
    patch gradients and col2im staging): max-over-layers, whatever the
    depth, and no tag owns a patch matrix."""
    from repro.models import build_model
    from repro.nn.conv import Conv2d
    from repro.optim.sgd import SGD
    from repro.tensor import Tensor, functional as F, workspace
    from repro.tensor.compile import StepCompiler
    workspace.reset()
    matrices, kernels = [], []
    forward = Conv2d.forward

    def sized(self, x):
        n, c, h, w = x.shape
        k, s, p = self.kernel_size, self.stride, self.padding
        ho, wo = (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1
        matrices.append(n * ho * wo * c * k * k * x.data.itemsize)
        kernels.append(_conv_stack_bytes(
            x.shape, self.out_channels, k, s, p,
            staged=bool(p) or not x.data.flags.c_contiguous,
            dx=x.requires_grad, itemsize=x.data.itemsize))
        return forward(self, x)

    monkeypatch.setattr(Conv2d, "forward", sized)
    rng = np.random.default_rng(0)
    model = build_model(arch, width_mult=0.25, input_size=32, seed=2)
    model.train()
    opt = SGD(model.named_parameters(), lr=0.05, momentum=0.9)
    compiler = StepCompiler() if compiled else None
    for _ in range(3):
        x = rng.standard_normal((16, 3, 32, 32)).astype(np.float32)
        y = rng.integers(0, 10, 16)
        if compiled:
            assert compiler.try_step(model, x, y) is not None
        else:
            opt.zero_grad()
            F.cross_entropy(model(Tensor(x)), y).backward()
        opt.step()
    assert sum(matrices) > 3 * max(matrices)     # many layers, one base
    # Batch-norm kernels need one input-sized array: never the largest.
    assert workspace.resident_bytes() == {
        "transient": max(kernels)}
    assert max(matrices) < max(kernels) < 2 * max(matrices)
    assert "conv2d.cols" not in workspace.resident_bytes()


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", [0, 1])
@pytest.mark.parametrize("batches,contiguous", [
    ([1], True),            # N == 1
    ([8, 5], True),         # a partial last batch on a stack sized by 8
    ([6], False),           # strided input, staged through conv2d.pad
])
def test_col2im_matches_reference_bitwise(stride, padding, batches,
                                          contiguous):
    """The channel-last col2im — the nine taps added onto a zeroed
    (N, Hp, Wp, C) staging region in the same (i, j) order, then one
    transposing copy — is bitwise the reference's direct NCHW scatter, on a
    stack region a previous kernel left full of NaN; and so is the input
    gradient of a whole frozen-weight conv backward."""
    from repro.nn import conv
    from tests.reference import _reference_col2im, reference_conv2d
    from repro.tensor import Tensor, workspace
    workspace.reset()
    rng = np.random.default_rng(17)
    weight = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
    stack = workspace.transient
    for n in batches:
        x = (rng.standard_normal((n, 3, 7, 12)) + 3.0).astype(np.float32)
        x = np.ascontiguousarray(x[..., ::2]) if contiguous else x[..., ::2]
        grads = []
        for fn in (conv.conv2d, reference_conv2d):
            xt = Tensor(x, requires_grad=True)
            out = fn(xt, Tensor(weight), None, stride, padding)
            (out * out).sum().backward()
            grads.append(xt.grad)
        assert grads[0].tobytes() == grads[1].tobytes(), (stride, padding, n)

        hp, wp = 7 + 2 * padding, 6 + 2 * padding
        ho, wo = (hp - 3) // stride + 1, (wp - 3) // stride + 1
        dcols = rng.standard_normal((n * ho * wo, 27)).astype(np.float32)
        stack.reset()
        stack.buffer("t.dirt", (stack.nbytes,), np.uint8).fill(0xFF)
        stack.reset()
        dxp = np.full((n, 3, hp, wp), np.nan, np.float32)
        conv._col2im_into(dcols, dxp, 3, 3, stride, n, ho, wo)
        want = _reference_col2im(dcols, dxp.shape, 3, 3, stride, n, ho, wo)
        assert dxp.tobytes() == want.tobytes(), (stride, padding, n)


def test_max_pool_backward_one_base_per_geometry():
    """Max-pool backward across batch sizes 32 / 31 / 2 is bitwise the
    reference's ``np.add.at`` scatter, for disjoint (k = s = 2) and
    overlapping (k = 3, s = 2) windows.  Only the overlapping layer reads
    the window-corner index, and it is cached once for the geometry — one
    sample's (C, Ho, Wo) int64 array, the batch offset added at use — not
    once per batch size."""
    from repro.nn import pooling
    from tests.reference import reference_max_pool2d
    from repro.tensor import Tensor, workspace
    workspace.reset()
    rng = np.random.default_rng(19)
    layers = [pooling.MaxPool2d(2, 2), pooling.MaxPool2d(3, 2)]
    for layer in layers:
        k, s = layer.kernel_size, layer.stride
        for n in (32, 31, 2):
            x = rng.standard_normal((n, 8, 10, 10)).astype(np.float32)
            grads = []
            for fn in (layer, lambda t: reference_max_pool2d(t, k, s)):
                xt = Tensor(x, requires_grad=True)
                out = fn(xt)
                (out * out).sum().backward()
                grads.append(xt.grad)
            assert grads[0].tobytes() == grads[1].tobytes(), (k, n)
    assert list(pooling._POOL_BASE) == [(8, 10, 10, 4, 4, 2)]
    assert workspace.shared_bytes()["maxpool.base"] == 8 * 4 * 4 * 8
