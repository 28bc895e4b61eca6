"""Property-based tests of the max-pool kernel pair (DESIGN.md §10.3).

Hypothesis draws (N, C, H, W) inputs, windows ``k`` in {2, 3} and strides
``s`` in {1, 2, 3} — tiling, overlapping, gapped and non-covering
geometries — in float32 and float64, from a small value set so that
windows hold many exact ties, ``-0.0`` next to ``0.0``, and NaNs of both
signs.  Whatever the draw, against :func:`tests.reference.reference_max_pool2d`
(``np.argmax`` plus ``np.add.at``):

- the training forward is byte-identical, and the argmax it saves for the
  backward is uint8 and ``np.argmax``'s;
- the input gradient is byte-identical;
- the ``no_grad`` forward equals the reference's maxima in value, and its
  bytes are the ``np.maximum`` fold over the reference's windows in tap
  order (so a ``-0.0``/``0.0`` tie takes the later tap); for ``k = 2`` they
  are also the bytes of ``max(axis=-1)`` over the windows, the formulation
  the ``no_grad`` forward replaced.
"""

import functools

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.nn.pooling import max_pool2d  # noqa: E402
from tests.reference import reference_max_pool2d  # noqa: E402
from repro.tensor import Tensor, no_grad  # noqa: E402

VALUES = (0.0, -0.0, 1.0, -1.0, 2.0, np.nan, -np.nan, np.inf, -np.inf)


@st.composite
def pools(draw):
    k = draw(st.sampled_from([2, 3]))
    s = draw(st.sampled_from([1, 2, 3]))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    n, c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    h, w = draw(st.integers(k, 9)), draw(st.integers(k, 9))
    seed = draw(st.integers(0, 2 ** 16))
    return k, s, dtype, (n, c, h, w), seed


def _upstream(shape, dtype, rng):
    """Upstream gradient: nonzero, so that the reference's ``0.0 + g``
    scatter keeps g's bits, and dyadic, so that overlapping windows' sums
    are exact in any order (the kernel accumulates in float64, the
    reference in the input's dtype)."""
    g = rng.integers(1, 64, size=shape) * rng.choice([-0.125, 0.125], shape)
    return g.astype(dtype)


def _grad(fn, x, g):
    xt = Tensor(x, dtype=x.dtype, requires_grad=True)
    out = fn(xt)
    out.backward(g)
    return out, xt.grad


@given(pools())
@settings(max_examples=150, deadline=None)
def test_kernel_pair_matches_reference(draw):
    k, s, dtype, shape, seed = draw
    rng = np.random.default_rng(seed)
    x = rng.choice(np.array(VALUES, dtype), size=shape)
    n, c, h, w = shape
    oshape = (n, c, (h - k) // s + 1, (w - k) // s + 1)
    g = _upstream(oshape, dtype, rng)

    out, dx = _grad(lambda t: max_pool2d(t, k, s), x, g)
    ref_out, ref_dx = _grad(lambda t: reference_max_pool2d(t, k, s), x, g)
    assert out.data.dtype == dtype and out.data.flags.c_contiguous
    assert out.data.tobytes() == ref_out.data.tobytes()
    assert dx.tobytes() == ref_dx.tobytes()
    backward = out._backward
    saved = dict(zip(backward.__code__.co_freevars,
                     (cell.cell_contents for cell in backward.__closure__)))
    windows = np.lib.stride_tricks.sliding_window_view(
        x, (k, k), axis=(2, 3))[:, :, ::s, ::s].reshape(oshape + (k * k,))
    assert saved["arg"].dtype == np.uint8
    np.testing.assert_array_equal(saved["arg"], np.argmax(windows, axis=-1))

    with no_grad():
        inference = max_pool2d(Tensor(x, dtype=dtype), k, s).data
    np.testing.assert_array_equal(inference, ref_out.data)
    fold = functools.reduce(np.maximum, np.moveaxis(windows, -1, 0))
    assert inference.tobytes() == fold.tobytes()
    if k == 2 and not np.any(np.isnan(x) & np.signbit(x)):
        assert inference.tobytes() == windows.max(axis=-1).tobytes()


def test_window_past_uint8_is_refused():
    x = Tensor(np.zeros((1, 1, 17, 17), np.float32), requires_grad=True)
    with pytest.raises(ValueError, match="uint8"):
        max_pool2d(x, 17)
    assert max_pool2d(x, 16).shape == (1, 1, 1, 1)
