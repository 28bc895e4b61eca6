"""Property-based tests of the low-bit quant codec (DESIGN.md §16).

Hypothesis drives the codec across arbitrary shapes, dtypes, bit widths,
block sizes, and value ranges (including zeros, denormals, and large
magnitudes).  Whatever the draw:

- sizing is *exact* — ``quant_payload_nbytes`` equals the serialized
  length of the encoded payload, byte for byte, checksummed or not;
- the round trip is bounded — every dequantized value sits within one
  scale step of its input (stochastic rounding may land on either
  neighbouring grid point, so the bound is ``scale``, not the
  ``scale / 2`` a deterministic nearest-round would give);
- the codec is a pure function of the RNG stream — the same seed
  reproduces the identical wire bytes, sender-side decode, and residual;
- rounding is unbiased — the mean dequantized value over many
  independent draws converges on the input.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.fl.comm import payload_nbytes, serialize_state  # noqa: E402
from repro.fl.quant import (QuantConfig, dequantize_values,  # noqa: E402
                            quant_payload_nbytes, quantize_payload,
                            stochastic_quantize)

BITS = st.sampled_from([16, 8, 4])
BLOCKS = st.sampled_from([0, 1, 7, 32, 256])
SHAPES = st.sampled_from([(1,), (5,), (64,), (3, 7), (4, 4, 4), (1, 130)])
FLOATS = st.sampled_from([np.float32, np.float64])


def _payload(shape, dtype, seed, scale_pow):
    rng = np.random.default_rng(seed)
    arr = (rng.normal(size=shape) * 10.0 ** scale_pow).astype(dtype)
    return {
        "w": arr,
        "idx": rng.integers(0, 99, size=11).astype(np.int32),
        "step": np.asarray(3, dtype=np.int64),
    }


@given(bits=BITS, block=BLOCKS, shape=SHAPES, dtype=FLOATS,
       seed=st.integers(0, 2 ** 16), scale_pow=st.integers(-6, 3),
       checksums=st.booleans())
@settings(max_examples=80, deadline=None)
def test_sizing_is_exact_for_any_draw(bits, block, shape, dtype, seed,
                                      scale_pow, checksums):
    payload = _payload(shape, dtype, seed, scale_pow)
    config = QuantConfig(bits=bits, block=block)
    wire_dict, _ = quantize_payload(payload, config,
                                    np.random.default_rng(seed + 1))
    predicted = quant_payload_nbytes(payload, config, checksums=checksums)
    assert predicted == payload_nbytes(wire_dict, checksums=checksums)
    assert predicted == len(serialize_state(wire_dict, checksums=checksums))


@given(bits=st.sampled_from([8, 4]), block=BLOCKS, shape=SHAPES,
       seed=st.integers(0, 2 ** 16), scale_pow=st.integers(-6, 3))
@settings(max_examples=80, deadline=None)
def test_roundtrip_error_is_within_one_scale_step(bits, block, shape, seed,
                                                  scale_pow):
    rng = np.random.default_rng(seed)
    x = (rng.normal(size=shape) * 10.0 ** scale_pow).ravel()
    codes, scales = stochastic_quantize(x, bits, block,
                                        np.random.default_rng(seed + 1))
    deq = dequantize_values(codes, scales, bits, block)
    width = x.size if block == 0 else block
    for b in range(scales.size):
        seg = slice(b * width, (b + 1) * width)
        bound = float(scales[b]) * (1 + 1e-5) + 1e-12
        assert np.abs(x[seg] - deq[seg].astype(np.float64)).max() <= bound


@given(bits=BITS, block=BLOCKS, shape=SHAPES, dtype=FLOATS,
       seed=st.integers(0, 2 ** 16))
@settings(max_examples=60, deadline=None)
def test_same_seed_reproduces_wire_bytes_and_residuals(bits, block, shape,
                                                       dtype, seed):
    payload = _payload(shape, dtype, seed, 0)
    config = QuantConfig(bits=bits, block=block)
    outs = []
    for _ in range(2):
        residuals = {}
        wire_dict, decoded = quantize_payload(
            payload, config, np.random.default_rng(seed + 7), residuals)
        outs.append((serialize_state(wire_dict),
                     {k: v.tobytes() for k, v in decoded.items()},
                     {k: v.tobytes() for k, v in residuals.items()}))
    assert outs[0] == outs[1]


@given(block=st.sampled_from([0, 16]), seed=st.integers(0, 2 ** 10),
       scale_pow=st.integers(-3, 2))
@settings(max_examples=15, deadline=None)
def test_rounding_is_unbiased_over_many_draws(block, seed, scale_pow):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=32) * 10.0 ** scale_pow
    draws = 1500
    acc = np.zeros_like(x)
    draw_rng = np.random.default_rng(seed + 1)
    for _ in range(draws):
        codes, scales = stochastic_quantize(x, 4, block, draw_rng)
        acc += dequantize_values(codes, scales, 4, block).astype(np.float64)
    # per-block scale bounds the per-draw error; the mean of `draws`
    # draws has std <= scale / (2 sqrt(draws)), so 0.15 * scale is a
    # many-sigma acceptance band for the pinned seed range.
    width = x.size if block == 0 else block
    for b in range(scales.size):
        seg = slice(b * width, (b + 1) * width)
        tol = 0.15 * max(float(scales[b]), 1e-30)
        np.testing.assert_allclose(acc[seg] / draws, x[seg], atol=tol)


def _rows_of(residuals, name, n_rows, width):
    """A row-keyed residual as a dense (n_rows, width) float64 array."""
    dense = np.zeros((n_rows, width))
    ids = residuals.get(name[:-4] + ".idx")
    if ids is not None:
        dense[ids] = residuals[name]
    return dense


@given(bits=st.sampled_from([8, 4]), block=st.sampled_from([0, 4, 32]),
       n_rows=st.integers(2, 12), width=st.integers(1, 20),
       rounds=st.integers(2, 4), seed=st.integers(0, 2 ** 16))
@settings(max_examples=60, deadline=None)
def test_error_feedback_conserves_each_row(bits, block, n_rows, width,
                                           rounds, seed):
    """Per row (a SPATL filter, a top-k coordinate), whatever rows each
    round selects: ``residual_t + decoded_t == residual_{t-1} + update_t``
    to float32 rounding for a sent row, and an unsent row's residual is
    carried unchanged.  The dense entry beside it conserves positionally."""
    rng = np.random.default_rng(seed)
    config = QuantConfig(bits=bits, block=block)
    residuals: dict = {}
    for t in range(rounds):
        rows = np.sort(rng.choice(n_rows, size=rng.integers(1, n_rows + 1),
                                  replace=False)).astype(np.int32)
        update = rng.normal(size=(rows.size, width)).astype(np.float32)
        dense = rng.normal(size=(5, 9)).astype(np.float32)
        before = _rows_of(residuals, "w.val", n_rows, width)
        dense_before = residuals.get("d", np.zeros((5, 9), np.float32))
        wire, decoded = quantize_payload(
            {"w.idx": rows, "w.val": update, "d": dense}, config,
            np.random.default_rng(seed + t), residuals)
        after = _rows_of(residuals, "w.val", n_rows, width)
        sent = np.isin(np.arange(n_rows), rows)
        np.testing.assert_array_equal(after[~sent], before[~sent])
        if "w.val\x00q" not in wire:
            continue                    # too small to quantize: sent dense
        scale = 1e-6 * max(1.0, np.abs(update).max() + np.abs(before).max())
        np.testing.assert_allclose(after[rows] + decoded["w.val"],
                                   before[rows] + update, rtol=0, atol=scale)
        np.testing.assert_allclose(residuals["d"] + decoded["d"],
                                   dense_before + dense, rtol=0, atol=1e-5)


@given(shape=st.sampled_from([(7,), (4, 6), (3, 3, 5)]),
       fraction=st.sampled_from([0.1, 0.25, 0.5, 1.0]),
       rounds=st.integers(1, 4), seed=st.integers(0, 2 ** 16))
@settings(max_examples=60, deadline=None)
def test_topk_feedback_conserves_each_coordinate(shape, fraction, rounds,
                                                 seed):
    """FedTopK's sparsifier: what is sent plus what is carried is exactly
    the update plus what was carried before, coordinate by coordinate."""
    from repro.fl.topk import topk_feedback
    rng = np.random.default_rng(seed)
    residual = 0.0
    for _ in range(rounds):
        update = rng.normal(size=shape).astype(np.float32)
        idx, vals, new = topk_feedback(update, residual, fraction)
        sent = np.zeros(update.size, np.float32)
        sent[idx] = vals
        assert new.dtype == np.float32 and idx.size == max(
            1, int(round(fraction * update.size)))
        np.testing.assert_array_equal(new + sent.reshape(shape),
                                      update + residual)
        residual = new
