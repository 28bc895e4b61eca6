"""Property tests of donated activations (DESIGN.md §10.2).

``Tensor.relu(donate=True)`` writes its output over the input array and
``_BatchNorm.forward(x, donate=True)`` writes the ``xhat`` its backward
keeps over ``x.data``; the ReLU and batch-norm backward closures write the
input gradient over the output gradient they are handed.  Donation moves
no value: Hypothesis draws float32 and float64 arrays from
``{±0, ±1, ±inf, ±NaN}`` and normals, and the donated call's output,
``xhat``, running statistics and every gradient are byte-equal to an
undonated call's, in the donated buffer.  A read-only, strided or
other-dtype array is refused: the op allocates, as undonated.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.nn import BatchNorm1d, BatchNorm2d  # noqa: E402
from repro.tensor import Tensor  # noqa: E402

SPECIAL = (0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, -np.nan)


def _values(draw, dtype, shape):
    values = st.one_of(st.sampled_from(SPECIAL),
                       st.floats(-1e3, 1e3, allow_nan=False))
    n = int(np.prod(shape))
    return np.array(draw(st.lists(values, min_size=n, max_size=n)),
                    dtype).reshape(shape)


@st.composite
def relu_cases(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 6)))
    return _values(draw, dtype, shape), _values(draw, dtype, shape)


@st.composite
def bn_cases(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    two_d = draw(st.booleans())
    n, c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    shape = (n, c, draw(st.integers(1, 3)), draw(st.integers(1, 3))) \
        if two_d else (n, c)
    # A finite input most of the time, so the statistics are not all NaN.
    if draw(st.booleans()):
        x = _values(draw, dtype, shape)
    else:
        x = np.array(draw(st.lists(st.floats(-1e3, 1e3, allow_nan=False),
                                   min_size=int(np.prod(shape)),
                                   max_size=int(np.prod(shape)))),
                     dtype).reshape(shape)
    return two_d, draw(st.booleans()), x, _values(draw, dtype, shape)


def _read_only(a):
    a = a.copy()
    a.setflags(write=False)
    return a


def _strided(a):
    wide = np.zeros(a.shape[:-1] + (2 * a.shape[-1],), a.dtype)
    wide[..., ::2] = a
    return wide[..., ::2]


def _bytes(*arrays):
    return [a.tobytes() for a in arrays]


def _xhat(out):
    """The normalised input a batch-norm backward closure keeps."""
    fn = out._backward
    return fn.__closure__[fn.__code__.co_freevars.index("xhat")].cell_contents


@settings(max_examples=150, deadline=None)
@given(relu_cases())
@np.errstate(invalid="ignore")         # -inf * 0 and inf * 0 are NaN
def test_donated_relu_is_byte_equal_in_place(case):
    x, g = case
    kept = Tensor(x.copy(), requires_grad=True, dtype=x.dtype)
    want = kept.relu()
    want._backward(_read_only(g))                   # refused: allocates
    buf = x.copy()
    t = Tensor(buf, requires_grad=True, dtype=x.dtype)
    out = t.relu(donate=True)
    assert out.data is buf
    gbuf = g.copy()
    out._backward(gbuf)
    assert np.shares_memory(t.grad, gbuf)
    assert _bytes(out.data, t.grad) == _bytes(want.data, kept.grad)
    assert t.grad.dtype == x.dtype


@settings(max_examples=150, deadline=None)
@given(bn_cases())
@np.errstate(invalid="ignore", divide="ignore", over="ignore")
def test_donated_batchnorm_is_byte_equal_in_place(case):
    two_d, training, x, g = case
    layers = []
    for _ in range(2):
        layer = (BatchNorm2d if two_d else BatchNorm1d)(x.shape[1])
        layer.running_mean[:] = 0.5
        layer.running_var[:] = 2.0
        layer.train(training)
        layers.append(layer)
    kept = Tensor(x.copy(), requires_grad=True, dtype=x.dtype)
    want = layers[0](kept)
    want_xhat = _xhat(want).copy()
    want._backward(_read_only(g))                   # refused: allocates
    buf = x.copy()
    t = Tensor(buf, requires_grad=True, dtype=x.dtype)
    out = layers[1](t, donate=True)
    assert _xhat(out) is buf
    assert _bytes(out.data, buf) == _bytes(want.data, want_xhat)
    gbuf = g.copy()
    out._backward(gbuf)
    assert np.shares_memory(t.grad, gbuf)
    for name in ("running_mean", "running_var", "num_batches_tracked"):
        assert _bytes(getattr(layers[1], name)) == \
            _bytes(getattr(layers[0], name)), name
    for p_got, p_want in zip(layers[1].parameters(), layers[0].parameters()):
        assert _bytes(p_got.grad) == _bytes(p_want.grad)
    assert _bytes(t.grad) == _bytes(kept.grad)


@pytest.mark.parametrize("refuse", [_read_only, _strided])
def test_forward_refuses_read_only_and_strided_inputs(refuse):
    rng = np.random.default_rng(0)
    x = refuse(rng.standard_normal((4, 3, 2, 2)).astype(np.float32))
    before = x.copy()
    out = Tensor(x, requires_grad=True).relu(donate=True)
    assert not np.shares_memory(out.data, x)
    bn_out = BatchNorm2d(3)(Tensor(x, requires_grad=True), donate=True)
    assert not np.shares_memory(_xhat(bn_out), x)
    assert np.array_equal(x, before)


@pytest.mark.parametrize("refuse", [_read_only, _strided,
                                    lambda a: a.astype(np.float64)])
@pytest.mark.parametrize("layer", ["relu", "batchnorm"])
def test_backward_refuses_read_only_strided_and_other_dtype_grads(refuse,
                                                                  layer):
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal((4, 3, 2, 2)).astype(np.float32),
               requires_grad=True)
    out = x.relu() if layer == "relu" else BatchNorm2d(3)(x)
    g = refuse(rng.standard_normal(out.shape).astype(np.float32))
    before = g.copy()
    out._backward(g)
    assert x.grad.dtype == np.float32
    assert not np.shares_memory(x.grad, g)
    assert _bytes(g) == _bytes(before)


@pytest.mark.parametrize("layer", ["relu", "batchnorm"])
def test_root_keeps_its_gradient(layer):
    """The root's closure gets a copy: after ``y.backward(g)``, ``y.grad``
    is still ``g`` and the input gradient is an undonated call's."""
    rng = np.random.default_rng(2)
    data = rng.standard_normal((4, 3, 2, 2)).astype(np.float32)
    g = rng.standard_normal(data.shape).astype(np.float32)

    def run():
        x = Tensor(data.copy(), requires_grad=True)
        return x, (x.relu() if layer == "relu" else BatchNorm2d(3)(x))

    x, y = run()
    y.backward(g)
    assert _bytes(y.grad) == _bytes(g)
    kept, want = run()
    want._backward(_read_only(g))
    assert _bytes(x.grad) == _bytes(kept.grad)
