"""Unit + property tests: functional ops (losses, softmax, dropout)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.tensor import Tensor, functional as F
from tests.conftest import assert_grad_close, numerical_gradient

R = np.random.default_rng(7)


def _t(arr):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True,
                  dtype=np.float64)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        x = _t(R.normal(size=(4, 6)) * 10)
        out = F.softmax(x, axis=1)
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(4), atol=1e-12)

    def test_stable_under_large_logits(self):
        x = _t(np.asarray([[1000.0, 1000.0, -1000.0]]))
        out = F.softmax(x, axis=1)
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data[0, :2], [0.5, 0.5], atol=1e-9)

    def test_gradcheck(self):
        x0 = R.normal(size=(3, 4))

        def f(v):
            return (F.softmax(_t(v), axis=1) ** 2).sum()

        x = _t(x0)
        (F.softmax(x, axis=1) ** 2).sum().backward()
        assert_grad_close(x.grad, numerical_gradient(
            lambda v: f(v).item(), x0.copy()))

class TestCrossEntropy:
    def test_matches_manual(self):
        logits = R.normal(size=(5, 3))
        labels = R.integers(0, 3, 5)
        loss = F.cross_entropy(_t(logits), labels)
        # manual
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        manual = -np.log(p[np.arange(5), labels]).mean()
        np.testing.assert_allclose(loss.item(), manual, rtol=1e-10)

    def test_gradcheck(self):
        logits0 = R.normal(size=(4, 5))
        labels = R.integers(0, 5, 4)
        x = _t(logits0)
        F.cross_entropy(x, labels).backward()
        num = numerical_gradient(
            lambda v: F.cross_entropy(_t(v), labels).item(), logits0.copy())
        assert_grad_close(x.grad, num)

    def test_perfect_prediction_low_loss(self):
        logits = np.full((2, 3), -20.0)
        logits[0, 1] = 20.0
        logits[1, 2] = 20.0
        loss = F.cross_entropy(_t(logits), np.asarray([1, 2]))
        assert loss.item() < 1e-6

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            F.cross_entropy(_t(np.zeros((2, 3, 4))), np.zeros(2, dtype=int))

    @given(st.integers(2, 8), st.integers(2, 6))
    @settings(max_examples=20, deadline=None)
    def test_uniform_logits_give_log_k(self, n, k):
        loss = F.cross_entropy(Tensor(np.zeros((n, k))),
                               np.zeros(n, dtype=int))
        np.testing.assert_allclose(loss.item(), np.log(k), rtol=1e-5)


class TestDropoutAccuracyHelpers:
    def test_dropout_eval_is_identity(self):
        x = Tensor(R.normal(size=(10,)).astype(np.float32))
        out = F.dropout(x, 0.5, np.random.default_rng(0), training=False)
        assert out is x

    def test_dropout_preserves_expectation(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((200, 200), dtype=np.float32))
        out = F.dropout(x, 0.3, rng, training=True)
        np.testing.assert_allclose(out.data.mean(), 1.0, atol=0.02)

    def test_dropout_p_one_rejected(self):
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(3)), 1.0, np.random.default_rng(0))

    def test_accuracy(self):
        logits = np.asarray([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        assert F.accuracy(logits, np.asarray([0, 1, 1])) == pytest.approx(2 / 3)

    def test_leaky_relu_grad(self):
        x = _t([-2.0, 3.0])
        F.leaky_relu(x, 0.1).sum().backward()
        np.testing.assert_allclose(x.grad, [0.1, 1.0])
