"""Unit tests: Linear, Conv2d, norms, pooling, dropout, init."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn import (AvgPool2d, BatchNorm1d, BatchNorm2d, Conv2d, Dropout,
                      GlobalAvgPool2d, LayerNorm, Linear, MaxPool2d, init)
from repro.nn.conv import conv2d
from repro.nn.pooling import avg_pool2d, max_pool2d
from repro.tensor import Tensor
from tests.conftest import assert_grad_close, numerical_gradient

R = np.random.default_rng(3)


def _t(arr):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True,
                  dtype=np.float64)


class TestLinear:
    def test_shapes_and_math(self):
        lin = Linear(3, 5, rng=R)
        x = np.asarray(R.normal(size=(2, 3)), dtype=np.float32)
        out = lin(Tensor(x))
        expected = x @ lin.weight.data.T + lin.bias.data
        np.testing.assert_allclose(out.data, expected, rtol=1e-5)

    def test_no_bias(self):
        lin = Linear(3, 5, bias=False, rng=R)
        assert lin.bias is None
        assert lin(Tensor(np.zeros((1, 3), dtype=np.float32))).data.max() == 0


class TestConv2d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (3, 2)])
    def test_gradcheck(self, stride, padding):
        x0 = R.normal(size=(2, 2, 7, 7))
        w0 = R.normal(size=(3, 2, 3, 3)) * 0.5
        b0 = R.normal(size=(3,)) * 0.1

        def f(xv, wv, bv):
            x, w, b = _t(xv), _t(wv), _t(bv)
            return x, w, b, (conv2d(x, w, b, stride, padding) ** 2).sum()

        x, w, b, out = f(x0, w0, b0)
        out.backward()
        assert_grad_close(x.grad, numerical_gradient(
            lambda v: f(v, w0, b0)[3].item(), x0.copy()), atol=1e-5)
        assert_grad_close(w.grad, numerical_gradient(
            lambda v: f(x0, v, b0)[3].item(), w0.copy()), atol=1e-5)
        assert_grad_close(b.grad, numerical_gradient(
            lambda v: f(x0, w0, v)[3].item(), b0.copy()), atol=1e-5)

    def test_matches_naive_convolution(self):
        x = R.normal(size=(1, 1, 5, 5))
        w = R.normal(size=(1, 1, 3, 3))
        out = conv2d(Tensor(x, dtype=np.float64),
                     Tensor(w, dtype=np.float64), None).data
        naive = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                naive[i, j] = (x[0, 0, i:i + 3, j:j + 3] * w[0, 0]).sum()
        np.testing.assert_allclose(out[0, 0], naive, rtol=1e-10)

    def test_output_shape(self):
        conv = Conv2d(3, 8, 3, stride=2, padding=1, rng=R)
        out = conv(Tensor(np.zeros((2, 3, 16, 16), dtype=np.float32)))
        assert out.shape == (2, 8, 8, 8)

    def test_channel_mismatch_raises(self):
        conv = Conv2d(3, 8, 3, rng=R)
        with pytest.raises(ValueError):
            conv(Tensor(np.zeros((1, 4, 8, 8), dtype=np.float32)))


class TestBatchNorm:
    def test_training_normalizes(self):
        bn = BatchNorm2d(4)
        x = Tensor(R.normal(5, 3, size=(8, 4, 6, 6)).astype(np.float32))
        out = bn(x)
        np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)),
                                   np.zeros(4), atol=1e-4)
        np.testing.assert_allclose(out.data.std(axis=(0, 2, 3)),
                                   np.ones(4), atol=1e-3)

    def test_running_stats_update(self):
        bn = BatchNorm2d(2, momentum=0.5)
        x = Tensor(np.ones((4, 2, 3, 3), dtype=np.float32) * 10)
        bn(x)
        assert bn.running_mean.mean() > 0
        assert bn.num_batches_tracked == 1

    def test_eval_uses_running_stats(self):
        bn = BatchNorm2d(2)
        for _ in range(80):  # EMA with momentum 0.1 needs ~60 steps to settle
            bn(Tensor(R.normal(2.0, 1.0, size=(16, 2, 4, 4)).astype(np.float32)))
        bn.eval()
        x = Tensor(np.full((1, 2, 4, 4), 2.0, dtype=np.float32))
        out = bn(x)
        np.testing.assert_allclose(out.data, np.zeros_like(out.data), atol=0.2)

    def test_gradcheck_training(self):
        bn = BatchNorm2d(3)
        bn.weight.data = np.asarray(R.normal(1, 0.2, 3), dtype=np.float32)
        x0 = R.normal(size=(4, 3, 4, 4))

        def f(v):
            bn2 = BatchNorm2d(3)
            bn2.weight.data = bn.weight.data.copy()
            bn2.bias.data = bn.bias.data.copy()
            return (bn2(_t(v)) ** 2).sum()

        x = _t(x0)
        (bn(x) ** 2).sum().backward()
        assert_grad_close(x.grad, numerical_gradient(
            lambda v: f(v).item(), x0.copy()), atol=1e-4, rtol=1e-3)

    def test_batchnorm1d(self):
        bn = BatchNorm1d(5)
        out = bn(Tensor(R.normal(size=(16, 5)).astype(np.float32)))
        np.testing.assert_allclose(out.data.mean(axis=0), np.zeros(5),
                                   atol=1e-5)

    def test_no_affine(self):
        bn = BatchNorm2d(2, affine=False)
        assert bn.weight is None
        out = bn(Tensor(R.normal(size=(4, 2, 3, 3)).astype(np.float32)))
        assert out.shape == (4, 2, 3, 3)


class TestLayerNorm:
    def test_normalizes_last_dim(self):
        ln = LayerNorm(8)
        out = ln(Tensor(R.normal(3, 2, size=(4, 8)).astype(np.float32)))
        np.testing.assert_allclose(out.data.mean(axis=-1), np.zeros(4),
                                   atol=1e-4)


class TestPooling:
    def test_max_pool_values(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = max_pool2d(Tensor(x, dtype=np.float64), 2)
        np.testing.assert_allclose(out.data[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_grad_goes_to_max(self):
        x = _t(np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4))
        max_pool2d(x, 2).sum().backward()
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1
        np.testing.assert_allclose(x.grad[0, 0], expected)

    @pytest.mark.parametrize("k,s", [(2, 2), (3, 1), (2, 1)])
    def test_avg_pool_gradcheck(self, k, s):
        x0 = R.normal(size=(1, 2, 5, 5))
        x = _t(x0)
        (avg_pool2d(x, k, s) ** 2).sum().backward()
        num = numerical_gradient(
            lambda v: float((avg_pool2d(_t(v), k, s).data ** 2).sum()),
            x0.copy())
        assert_grad_close(x.grad, num, atol=1e-6)

    def test_layer_wrappers(self):
        x = Tensor(R.normal(size=(2, 3, 8, 8)).astype(np.float32))
        assert MaxPool2d(2)(x).shape == (2, 3, 4, 4)
        assert AvgPool2d(2)(x).shape == (2, 3, 4, 4)
        assert GlobalAvgPool2d()(x).shape == (2, 3)

    def test_global_avg_pool_value(self):
        x = Tensor(np.ones((1, 2, 3, 3), dtype=np.float32) * 7)
        np.testing.assert_allclose(GlobalAvgPool2d()(x).data, [[7.0, 7.0]])


class TestDropoutLayer:
    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            Dropout(1.0)

    def test_eval_identity(self):
        d = Dropout(0.9, seed=0)
        d.eval()
        x = Tensor(np.ones(100, dtype=np.float32))
        assert d(x) is x

    def test_train_zeroes_roughly_p(self):
        d = Dropout(0.5, seed=0)
        out = d(Tensor(np.ones(10_000, dtype=np.float32)))
        frac_zero = (out.data == 0).mean()
        assert 0.45 < frac_zero < 0.55


class TestInit:
    @pytest.mark.parametrize("fn", [init.kaiming_normal, init.kaiming_uniform])
    def test_shapes_and_dtype(self, fn):
        w = fn((16, 8, 3, 3), np.random.default_rng(0))
        assert w.shape == (16, 8, 3, 3)
        assert w.dtype == np.float32

    def test_kaiming_variance(self):
        rng = np.random.default_rng(0)
        w = init.kaiming_normal((2000, 100), rng)
        np.testing.assert_allclose(w.std(), np.sqrt(2.0 / 100), rtol=0.05)

    def test_orthogonal_is_orthogonal(self):
        w = init.orthogonal((8, 8), np.random.default_rng(0))
        np.testing.assert_allclose(w @ w.T, np.eye(8), atol=1e-5)

    def test_bad_shape_raises(self):
        with pytest.raises(ValueError):
            init.kaiming_normal((3,), np.random.default_rng(0))

    def test_deterministic_given_seed(self):
        a = init.kaiming_uniform((4, 4), np.random.default_rng(5))
        b = init.kaiming_uniform((4, 4), np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    @given(st.integers(1, 64), st.integers(1, 64))
    @settings(max_examples=20, deadline=None)
    def test_fan_in_bias_bounds(self, out_f, in_f):
        b = init.uniform_fan_in_bias((out_f, in_f), np.random.default_rng(0))
        assert b.shape == (out_f,)
        assert np.all(np.abs(b) <= 1.0 / np.sqrt(in_f) + 1e-7)
