"""Unit tests: elementary tensor operations and their gradients."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.tensor import Tensor, tensor
from repro.tensor.tensor import concatenate, stack, unbroadcast
from tests.conftest import assert_grad_close, numerical_gradient

R = np.random.default_rng(0)


def _t(arr):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True,
                  dtype=np.float64)


def check_unary(op, x0, **tol):
    x = _t(x0)
    out = op(x)
    out.sum().backward()
    num = numerical_gradient(lambda v: float(op(_t(v)).sum().item()), x0.copy())
    assert_grad_close(x.grad, num, **tol)


class TestArithmetic:
    def test_add_broadcast(self):
        a = _t(R.normal(size=(3, 4)))
        b = _t(R.normal(size=(4,)))
        out = a + b
        assert out.shape == (3, 4)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 4)))
        np.testing.assert_allclose(b.grad, np.full(4, 3.0))

    def test_radd_scalar(self):
        a = _t([1.0, 2.0])
        out = 5.0 + a
        np.testing.assert_allclose(out.data, [6.0, 7.0])

    def test_sub_rsub(self):
        a = _t([3.0])
        out = 10.0 - a
        out.backward(np.ones(1))
        np.testing.assert_allclose(out.data, [7.0])
        np.testing.assert_allclose(a.grad, [-1.0])

    def test_mul_grad(self):
        x0 = R.normal(size=(2, 3))
        y0 = R.normal(size=(2, 3))
        x, y = _t(x0), _t(y0)
        (x * y).sum().backward()
        np.testing.assert_allclose(x.grad, y0)
        np.testing.assert_allclose(y.grad, x0)

    def test_div_grad(self):
        x0 = R.normal(size=(3,)) + 3.0
        y0 = R.normal(size=(3,)) + 3.0
        x, y = _t(x0), _t(y0)
        (x / y).sum().backward()
        assert_grad_close(x.grad, 1.0 / y0)
        assert_grad_close(y.grad, -x0 / y0 ** 2)

    def test_neg(self):
        x = _t([1.0, -2.0])
        (-x).sum().backward()
        np.testing.assert_allclose(x.grad, [-1.0, -1.0])

    def test_pow(self):
        x0 = np.abs(R.normal(size=(4,))) + 0.5
        check_unary(lambda t: t ** 3, x0)

    def test_pow_tensor_exponent_rejected(self):
        with pytest.raises(TypeError):
            _t([1.0]) ** _t([2.0])

    @given(hnp.arrays(np.float64, hnp.array_shapes(max_dims=3, max_side=4),
                      elements=st.floats(-5, 5)))
    @settings(max_examples=30, deadline=None)
    def test_add_commutes(self, arr):
        a, b = Tensor(arr, dtype=np.float64), Tensor(arr * 2, dtype=np.float64)
        np.testing.assert_allclose((a + b).data, (b + a).data)


class TestMatmul:
    @pytest.mark.parametrize("sa,sb", [((3, 4), (4, 5)), ((4,), (4, 5)),
                                       ((3, 4), (4,)), ((4,), (4,)),
                                       ((2, 3, 4), (4, 5))])
    def test_matmul_grad(self, sa, sb):
        a0, b0 = R.normal(size=sa), R.normal(size=sb)

        def f(av, bv):
            a, b = _t(av), _t(bv)
            return a, b, ((a @ b) * (a @ b)).sum()

        a, b, out = f(a0, b0)
        out.backward()
        assert_grad_close(a.grad, numerical_gradient(
            lambda v: f(v, b0)[2].item(), a0.copy()))
        assert_grad_close(b.grad, numerical_gradient(
            lambda v: f(a0, v)[2].item(), b0.copy()))


class TestReductionsShapes:
    def test_sum_axis_keepdims(self):
        x = _t(R.normal(size=(2, 3, 4)))
        out = x.sum(axis=1, keepdims=True)
        assert out.shape == (2, 1, 4)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3, 4)))

    def test_mean_tuple_axis(self):
        x0 = R.normal(size=(2, 3, 4, 4))
        check_unary(lambda t: (t.mean(axis=(2, 3)) ** 2), x0)

    def test_var(self):
        x0 = R.normal(size=(5, 3))
        check_unary(lambda t: t.var(axis=0), x0, atol=1e-5)

    def test_max_grad_spreads_ties(self):
        x = _t([[1.0, 2.0, 2.0]])
        x.max().backward()
        np.testing.assert_allclose(x.grad, [[0.0, 0.5, 0.5]])

    def test_max_axis(self):
        x0 = R.normal(size=(3, 5))
        check_unary(lambda t: t.max(axis=1), x0)

    def test_reshape_roundtrip(self):
        x0 = R.normal(size=(2, 6))
        check_unary(lambda t: (t.reshape(3, 4) ** 2), x0)

    def test_transpose(self):
        x0 = R.normal(size=(2, 3, 4))
        check_unary(lambda t: (t.transpose(2, 0, 1) ** 2), x0)

    def test_getitem(self):
        x0 = R.normal(size=(5, 3))
        check_unary(lambda t: (t[1:4] ** 2), x0)

    def test_getitem_fancy(self):
        x0 = R.normal(size=(5, 3))
        idx = np.asarray([0, 2, 2])

        def op(t):
            return (t[idx] ** 2)
        check_unary(op, x0)

    def test_flatten_from(self):
        x = _t(R.normal(size=(2, 3, 4)))
        assert x.flatten_from(1).shape == (2, 12)


class TestElementwise:
    @pytest.mark.parametrize("name", ["exp", "tanh", "sigmoid", "relu", "sqrt"])
    def test_unary_grad(self, name):
        x0 = np.abs(R.normal(size=(3, 3))) + 0.5
        check_unary(lambda t: getattr(t, name)(), x0)

    def test_log(self):
        x0 = np.abs(R.normal(size=(4,))) + 1.0
        check_unary(lambda t: t.log(), x0)

    def test_clip_grad_zero_outside(self):
        x = _t([-2.0, 0.5, 2.0])
        x.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])

    def test_comparisons_return_arrays(self):
        x = Tensor([1.0, 2.0])
        assert (x > 1.5).dtype == bool
        assert (x <= 2.0).all()


class TestConcatStack:
    def test_concatenate_grad(self):
        a0, b0 = R.normal(size=(2, 3)), R.normal(size=(4, 3))

        def f(av, bv):
            a, b = _t(av), _t(bv)
            return a, b, (concatenate([a, b], axis=0) ** 2).sum()

        a, b, out = f(a0, b0)
        out.backward()
        assert_grad_close(a.grad, 2 * a0)
        assert_grad_close(b.grad, 2 * b0)

    def test_stack_grad(self):
        a0 = R.normal(size=(3,))
        a, b = _t(a0), _t(a0 * 2)
        (stack([a, b], axis=0) ** 2).sum().backward()
        assert_grad_close(a.grad, 2 * a0)
        assert_grad_close(b.grad, 4 * a0)


class TestUnbroadcast:
    @given(st.sampled_from([((3, 4), (4,)), ((2, 3, 4), (3, 4)),
                            ((5, 1, 3), (5, 1, 3)), ((2, 4), (1, 4)),
                            ((6, 2, 3), (1, 1, 3))]))
    @settings(max_examples=20, deadline=None)
    def test_matches_explicit_sum(self, shapes):
        big, small = shapes
        g = np.arange(np.prod(big), dtype=np.float64).reshape(big)
        reduced = unbroadcast(g, small)
        assert reduced.shape == small
        # total mass is preserved by the reduction
        np.testing.assert_allclose(reduced.sum(), g.sum())

    def test_identity(self):
        g = np.ones((2, 2))
        assert unbroadcast(g, (2, 2)) is g


def test_tensor_constructor_helpers():
    t = tensor([1, 2, 3], dtype=np.float32)
    assert t.dtype == np.float32
    assert t.size == 3 and t.ndim == 1 and len(t) == 3
    d = t.detach()
    assert not d.requires_grad and d.data is t.data
    c = t.copy()
    assert c.data is not t.data
    assert "Tensor" in repr(t)
