"""Float64 gradchecks for the rewritten hot-path kernels (DESIGN.md §10).

The arena-backed conv2d and the vectorized pooling backwards replace the
original formulations; these checks exercise exactly the configurations
whose code paths differ — strided, padded, non-square spatial maps,
overlapping and gapped pooling windows — against central differences.
"""

import numpy as np
import pytest

from repro.nn.conv import conv2d
from repro.nn.pooling import avg_pool2d, max_pool2d
from repro.tensor import Tensor
from tests.conftest import assert_grad_close, numerical_gradient

R = np.random.default_rng(7)


def _t(arr):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True,
                  dtype=np.float64)


class TestConv2dWorkspaceGradcheck:
    """conv2d on the transient stack: gather/copyto im2col, buffered GEMMs,
    in-place col2im — per stride/padding/aspect combination."""

    @pytest.mark.parametrize("stride,padding,hw", [
        (1, 0, (6, 6)),
        (1, 1, (6, 6)),
        (2, 1, (7, 7)),
        (2, 0, (8, 5)),     # non-square map, strided
        (1, 2, (5, 8)),     # non-square map, wide padding
        (3, 1, (9, 7)),
    ])
    def test_gradcheck(self, stride, padding, hw):
        h, w = hw
        x0 = R.normal(size=(2, 2, h, w))
        w0 = R.normal(size=(3, 2, 3, 3)) * 0.5
        b0 = R.normal(size=(3,)) * 0.1

        def f(xv, wv, bv):
            x, wt, b = _t(xv), _t(wv), _t(bv)
            out = conv2d(x, wt, b, stride, padding)
            return x, wt, b, (out ** 2).sum()

        x, wt, b, out = f(x0, w0, b0)
        out.backward()
        assert_grad_close(x.grad, numerical_gradient(
            lambda v: f(v, w0, b0)[3].item(), x0.copy()), atol=1e-5)
        assert_grad_close(wt.grad, numerical_gradient(
            lambda v: f(x0, v, b0)[3].item(), w0.copy()), atol=1e-5)
        assert_grad_close(b.grad, numerical_gradient(
            lambda v: f(x0, w0, v)[3].item(), b0.copy()), atol=1e-5)

    def test_workspace_matches_allocating_path(self):
        """The arena kernels against the allocating oracle,
        ``reference_conv2d`` (float64, repeated so the second call runs
        entirely on warm buffers)."""
        from tests.reference import reference_conv2d
        x0 = R.normal(size=(2, 3, 6, 7))
        w0 = R.normal(size=(4, 3, 3, 3))
        b0 = R.normal(size=(4,))
        for _ in range(2):
            xa, xb = _t(x0), _t(x0)
            wa, wb = _t(w0), _t(w0)
            ba, bb = _t(b0), _t(b0)
            oa = (conv2d(xa, wa, ba, 2, 1) ** 2).sum()
            ob = (reference_conv2d(xb, wb, bb, 2, 1) ** 2).sum()
            assert np.array_equal(oa.data, ob.data)
            oa.backward()
            ob.backward()
            assert np.array_equal(xa.grad, xb.grad)
            assert np.array_equal(wa.grad, wb.grad)
            assert np.array_equal(ba.grad, bb.grad)


class TestPoolingGradcheck:
    """Vectorized pooling backwards: disjoint (k == s), gapped (s > k),
    and overlapping (s < k, the bincount path) windows."""

    @pytest.mark.parametrize("k,s,hw", [
        (2, 2, (6, 6)),     # tiling: flat-index assignment
        (3, 2, (7, 7)),     # overlapping: bincount accumulation
        (2, 3, (8, 8)),     # gapped: strided-slice adds
        (2, 2, (6, 8)),     # non-square
    ])
    def test_max_pool(self, k, s, hw):
        h, w = hw
        # Distinct values so argmax ties (non-differentiable points)
        # cannot occur and central differences are valid.
        x0 = R.permutation(2 * 3 * h * w).astype(np.float64).reshape(2, 3, h, w)
        x0 /= x0.size

        def f(xv):
            x = _t(xv)
            return x, (max_pool2d(x, k, s) ** 2).sum()

        x, out = f(x0)
        out.backward()
        assert_grad_close(x.grad, numerical_gradient(
            lambda v: f(v)[1].item(), x0.copy()), atol=1e-5)

    @pytest.mark.parametrize("k,s,hw", [
        (2, 2, (6, 6)),
        (3, 2, (7, 7)),
        (2, 3, (8, 8)),
        (2, 2, (4, 8)),
    ])
    def test_avg_pool(self, k, s, hw):
        h, w = hw
        x0 = R.normal(size=(2, 3, h, w))

        def f(xv):
            x = _t(xv)
            return x, (avg_pool2d(x, k, s) ** 2).sum()

        x, out = f(x0)
        out.backward()
        assert_grad_close(x.grad, numerical_gradient(
            lambda v: f(v)[1].item(), x0.copy()), atol=1e-5)

    def test_max_pool_workspace_slot_reuse(self):
        """The layer-owned cached base-index array survives repeat calls."""
        from repro.nn.pooling import MaxPool2d
        layer = MaxPool2d(2, 2)
        x0 = R.normal(size=(2, 3, 6, 6))
        grads = []
        for _ in range(2):
            x = _t(x0)
            (layer(x) ** 2).sum().backward()
            grads.append(x.grad)
        assert np.array_equal(grads[0], grads[1])
