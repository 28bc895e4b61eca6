"""Property test of ReLU, which keeps no mask for its backward.

The forward is ``x * (x > 0)``; the backward reads ``out > 0``, which is
``x > 0`` for every float — ``-inf`` becomes NaN, and neither NaN, ``±0``
nor a negative is positive.  Hypothesis draws float32 and float64 arrays
from ``{±0, ±1, ±inf, ±NaN}`` and normals: forward bytes and input
gradient bytes equal ``x * (x > 0)`` and ``g * (x > 0)``, and the backward
closure holds no bool array.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.tensor import Tensor  # noqa: E402

SPECIAL = (0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, -np.nan)


@st.composite
def arrays(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    n = draw(st.integers(1, 24))
    values = st.one_of(st.sampled_from(SPECIAL),
                       st.floats(-1e3, 1e3, allow_nan=False))
    x = np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype)
    g = np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype)
    return x, g


@settings(max_examples=200, deadline=None)
@given(arrays())
@np.errstate(invalid="ignore")         # -inf * 0 and inf * 0 are NaN
def test_relu_bytes_and_no_mask(xg):
    x, g = xg
    t = Tensor(x, requires_grad=True, dtype=x.dtype)
    out = t.relu()
    assert out.data.tobytes() == (x * (x > 0)).tobytes()
    cells = [c.cell_contents for c in out._backward.__closure__]
    assert not [c for c in cells
                if isinstance(c, np.ndarray) and c.dtype == np.bool_]
    out.backward(g)
    assert t.grad.dtype == x.dtype
    assert t.grad.tobytes() == (g * (x > 0)).tobytes()
