"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import sys

# One BLAS thread, set before NumPy loads, as every bench pins it
# (benchmarks/_harness.py): a process pool's workers inherit the pin, and
# unpinned, two workers plus the parent oversubscribe a small box's cores.
if "numpy" not in sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from tests import matrix  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def numerical_gradient(f, x, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar-valued ``f`` at ``x``."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        old = x[i]
        x[i] = old + eps
        hi = f(x)
        x[i] = old - eps
        lo = f(x)
        x[i] = old
        g[i] = (hi - lo) / (2 * eps)
    return g


def assert_grad_close(analytic, numeric, atol=1e-6, rtol=1e-4):
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    np.testing.assert_allclose(analytic, numeric, atol=atol, rtol=rtol)


@pytest.fixture(scope="session")
def tiny_dataset():
    """800-sample 12x12 synthetic CIFAR — shared read-only across tests."""
    return matrix.tiny_dataset()


@pytest.fixture(scope="session")
def tiny_setting():
    """(model_fn, partition) for FL tests; clients built per test."""
    return matrix.model_fn(), matrix.parts()


@pytest.fixture
def tiny_clients():
    return matrix.clients()


@pytest.fixture
def tiny_model_fn():
    return matrix.model_fn()
