"""Low-bit quantized transport (DESIGN.md §16) and sparse-at-init masks.

The contracts under test:

- the codec level — vectorized nibble kernels bitwise-match the naive
  reference, stochastic rounding stays on the grid with per-block error
  at most one scale step, records are self-describing and round-trip
  through the ordinary wire format, and structural damage raises
  :class:`PayloadError`;
- the payload level — non-float and tiny entries pass through
  bit-exactly, ``quant_payload_nbytes`` predicts the serialized size
  exactly, error feedback carries rounding residuals across rounds, and
  NUL-bearing names are rejected;
- the algorithm level — ``bits=32`` is byte-identical to the unquantized
  run (the CI golden), the ledger charges exactly the codec-reported
  bytes, and quantized runs compose byte-identically across the process
  pool, the async runtime, and the population-scale streaming folds;
- the sparse-at-init algorithms — SSFL's zero-bootstrap magnitude mask
  and SalientGrads' charged gradient-saliency mask, index-free uplinks,
  unmasked coordinates pinned at init, and multiplicative stacking with
  the low-bit codec.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.fl import (AsyncConfig, AsyncFederatedRunner, AsyncProfile,
                      ScaleRunner, make_executor, make_quant_config)
from repro.fl.comm import PayloadError, deserialize_state, payload_nbytes, \
    serialize_state
from repro.fl.quant import (QUANT_SUFFIX, QuantConfig,
                            decode_record, dequantize_payload,
                            dequantize_values, encode_record,
                            pack_nibbles, quant_payload_nbytes,
                            quantize_payload, record_nbytes,
                            stochastic_quantize, unpack_nibbles)
from repro.fl.sparse_init import SSFL, SalientGrads

from tests import matrix
from tests.reference import (naive_pack_nibbles, naive_stochastic_quantize,
                             naive_unpack_nibbles)

INT8 = QuantConfig(bits=8)
INT4 = QuantConfig(bits=4)


def _rng(seed=0):
    return np.random.default_rng(seed)


# --------------------------------------------------------------------- #
# codec core                                                            #
# --------------------------------------------------------------------- #
class TestNibbleKernels:
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 64, 1023])
    def test_vectorized_matches_naive_bitwise(self, n):
        codes = _rng(n).integers(0, 16, size=n).astype(np.uint8)
        packed = pack_nibbles(codes)
        np.testing.assert_array_equal(packed, naive_pack_nibbles(codes))
        np.testing.assert_array_equal(unpack_nibbles(packed, n),
                                      naive_unpack_nibbles(packed, n))

    @pytest.mark.parametrize("n", [1, 5, 6, 333])
    def test_roundtrip_is_identity(self, n):
        codes = _rng(7 + n).integers(0, 16, size=n).astype(np.uint8)
        np.testing.assert_array_equal(
            unpack_nibbles(pack_nibbles(codes), n), codes)

    def test_packed_size_is_ceil_half(self):
        assert pack_nibbles(np.zeros(5, dtype=np.uint8)).size == 3
        assert pack_nibbles(np.zeros(6, dtype=np.uint8)).size == 3


class TestStochasticQuantize:
    @pytest.mark.parametrize("bits,block", [(8, 0), (8, 16), (4, 0), (4, 16)])
    def test_codes_stay_on_grid_and_error_bounded(self, bits, block):
        x = _rng(1).normal(size=200).astype(np.float64)
        codes, scales = stochastic_quantize(x, bits, block, _rng(2))
        qmax = 127 if bits == 8 else 7
        bias = 128 if bits == 8 else 8
        assert codes.dtype == np.uint8
        assert codes.min() >= bias - qmax and codes.max() <= bias + qmax
        assert scales.dtype == np.float32
        deq = dequantize_values(codes, scales, bits, block)
        # Stochastic rounding can land on either neighbouring grid point,
        # so the per-value bound is one full scale step (not scale / 2 as
        # deterministic nearest-rounding would give).
        width = x.size if block == 0 else block
        for b in range(scales.size):
            seg = slice(b * width, (b + 1) * width)
            err = np.abs(x[seg] - deq[seg])
            assert err.max() <= scales[b] * (1 + 1e-5) + 1e-12

    def test_zero_tensor_has_zero_scale_and_exact_roundtrip(self):
        codes, scales = stochastic_quantize(np.zeros(10), 8, 0, _rng(0))
        assert scales[0] == 0.0
        np.testing.assert_array_equal(
            dequantize_values(codes, scales, 8, 0), np.zeros(10))

    def test_same_rng_stream_reproduces_codes(self):
        x = _rng(5).normal(size=97)
        a, _ = stochastic_quantize(x, 4, 16, _rng(11))
        b, _ = stochastic_quantize(x, 4, 16, _rng(11))
        np.testing.assert_array_equal(a, b)

    def test_unbiased_over_many_draws(self):
        x = np.asarray([0.3, -0.7, 0.123, 1.0], dtype=np.float64)
        draws = 3000
        acc = np.zeros_like(x)
        rng = _rng(3)
        for _ in range(draws):
            codes, scales = stochastic_quantize(x, 4, 0, rng)
            acc += dequantize_values(codes, scales, 4, 0)
        scale = float(np.abs(x).max() / 7)
        # mean of `draws` draws has std <= scale/2/sqrt(draws); 0.1*scale
        # is a > 10-sigma band for the seeds pinned here.
        np.testing.assert_allclose(acc / draws, x, atol=0.1 * scale)

    def test_block_count_rounds_up(self):
        _, scales = stochastic_quantize(np.ones(100), 8, 32, _rng(0))
        assert scales.size == 4          # ceil(100 / 32)

    @pytest.mark.parametrize("bits", [8, 4])
    @pytest.mark.parametrize("block", [0, 256])
    def test_matches_the_per_block_oracle_bitwise(self, bits, block):
        """Same seeded stream, same codes and scales as the float64
        per-block loop — over a length that is no multiple of the block,
        with one all-zero block."""
        x = _rng(9).normal(size=1000).astype(np.float32)
        x[256:512] = 0.0
        got = stochastic_quantize(x, bits, block, _rng(4))
        want = naive_stochastic_quantize(x, bits, block, _rng(4))
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        if block:
            assert got[1].size == 4 and got[1][1] == 0.0


class TestRecords:
    @pytest.mark.parametrize("config", [INT8, INT4, QuantConfig(bits=16),
                                        QuantConfig(bits=8, block=64)])
    def test_decode_reconstructs_exactly_what_encode_reports(self, config):
        arr = _rng(9).normal(size=(6, 5, 4)).astype(np.float32)
        record, deq = encode_record(arr, config, _rng(1))
        assert record.dtype == np.uint8
        assert record.size == record_nbytes(arr, config.bits, config.block)
        decoded = decode_record(record)
        assert decoded.dtype == arr.dtype and decoded.shape == arr.shape
        np.testing.assert_array_equal(decoded, deq)

    def test_fp16_record_restores_original_float64_dtype(self):
        arr = np.asarray([0.5, -1.25, 3.0], dtype=np.float64)
        record, deq = encode_record(arr, QuantConfig(bits=16), _rng(0))
        decoded = decode_record(record)
        assert decoded.dtype == np.float64
        np.testing.assert_array_equal(decoded, arr)   # fp16-representable
        np.testing.assert_array_equal(deq, arr)

    def test_record_survives_wire_roundtrip(self):
        arr = _rng(2).normal(size=33).astype(np.float32)
        record, deq = encode_record(arr, INT4, _rng(3))
        blob = serialize_state({"w" + QUANT_SUFFIX: record})
        back = deserialize_state(blob)
        np.testing.assert_array_equal(decode_record(back["w" + QUANT_SUFFIX]),
                                      deq)

    def test_truncated_record_raises_payload_error(self):
        record, _ = encode_record(np.ones(20, dtype=np.float32), INT8,
                                  _rng(0))
        with pytest.raises(PayloadError):
            decode_record(record[:3])          # shorter than the header
        with pytest.raises(PayloadError):
            decode_record(record[:-1])         # data bytes missing

    def test_garbage_bit_width_raises_payload_error(self):
        record, _ = encode_record(np.ones(8, dtype=np.float32), INT8,
                                  _rng(0))
        bad = record.copy()
        bad[0] = 3
        with pytest.raises(PayloadError, match="bit width"):
            decode_record(bad)


def _hostile_records():
    """``(id, record)``: well-formed records with one lie each.  Header
    layout: ``[u8 bits][u8 dtype][u8 ndim][u8 flags][u32 block][u32 dims]*``
    then float32 scales and the codes."""
    values = _rng(4).normal(size=(5, 7)).astype(np.float32)       # n = 35
    blocked = QuantConfig(bits=4, block=8)
    cases = []

    def case(name, config, edit, source=values):
        record = encode_record(source, config, _rng(5))[0].copy()
        cases.append(pytest.param(edit(record), id=name))

    def put(offset, fmt, *fields):
        def edit(record):
            struct.pack_into(fmt, record.data, offset, *fields)
            return record
        return edit

    case("bits-unknown", INT8, put(0, "<B", 7))
    case("bits-int8-claims-int4", INT8, put(0, "<B", 4))
    case("bits-int4-claims-int8", INT4, put(0, "<B", 8))
    case("bits-int8-claims-fp16", INT8, put(0, "<B", 16))
    case("dtype-code-out-of-range", INT8, put(1, "<B", 200))
    case("dtype-code-int32", INT8, put(1, "<B", 2))
    case("dtype-code-bool", INT4, put(1, "<B", 5))
    case("ndim-larger-than-record", INT8, put(2, "<B", 255))
    case("ndim-one-short", INT8, put(2, "<B", 1))
    case("flags-set", INT8, put(3, "<B", 1))
    case("block-smaller", blocked, put(4, "<I", 4))
    case("block-larger", blocked, put(4, "<I", 16))
    case("block-zero", blocked, put(4, "<I", 0))
    case("block-on-per-tensor-record", INT8, put(4, "<I", 8))
    case("shape-grown", INT8, put(8, "<I", 6))
    case("shape-shrunk", INT4, put(12, "<I", 6))
    case("shape-zero-dim", INT8, put(8, "<I", 0))
    case("shape-overflows-u64", INT8, put(8, "<II", 2 ** 32 - 1, 2 ** 32 - 1))
    case("scale-missing", blocked, lambda r: np.delete(r, slice(16, 20)))
    case("scale-extra", blocked, lambda r: np.insert(r, 16, [0, 0, 128, 63]))
    case("codes-truncated", INT4, lambda r: r[:-1])
    case("codes-extra", INT8, lambda r: np.append(r, np.uint8(128)))
    case("cut-inside-header", INT8, lambda r: r[:5])
    case("cut-inside-shape", INT8, lambda r: r[:13])
    case("cut-inside-scales", blocked, lambda r: r[:18])
    case("fp16-odd-length", QuantConfig(bits=16), lambda r: r[:-1])
    case("nibble-tail-set", INT4, lambda r: np.append(r[:-1], r[-1] | 0x90))
    case("not-uint8", INT8, lambda r: r.astype(np.float32))
    case("not-1d", INT8, lambda r: r.reshape(1, -1))
    return cases


class TestHostileRecords:
    """The record header is sender-supplied: every lie ends in a
    ``PayloadError`` that names the wire entry — never an exception of
    another type, an allocation sized by the lie, or a tensor decoded from
    the wrong bytes."""

    @pytest.mark.parametrize("record", _hostile_records())
    def test_lie_is_a_payload_error_naming_the_entry(self, record):
        name = "enc.conv1.weight" + QUANT_SUFFIX
        with pytest.raises(PayloadError) as err:
            dequantize_payload({"ok": np.ones(2, np.float32), name: record})
        assert err.value.entry == name and repr(name) in str(err.value)
        with pytest.raises(PayloadError):
            decode_record(record)

    def test_claimed_block_never_sizes_an_allocation(self):
        # A 35-value record claiming a 4-Gi block is *valid* (one short
        # block) and must decode through 35-element arrays, not a 16 GiB
        # zero-padded one.
        values = _rng(4).normal(size=35).astype(np.float32)
        for config in (INT8, INT4):
            record, deq = encode_record(values, config, _rng(5))
            record = record.copy()
            struct.pack_into("<I", record.data, 4, 2 ** 32 - 1)
            np.testing.assert_array_equal(decode_record(record), deq)

    def test_random_prefixes_and_byte_flips_never_crash(self):
        # Fuzz: any prefix or single-byte mutation either decodes to the
        # record's claimed shape and dtype or raises PayloadError.
        rng = _rng(6)
        values = rng.normal(size=(3, 11)).astype(np.float32)
        for config in (INT8, INT4, QuantConfig(bits=4, block=8),
                       QuantConfig(bits=16)):
            record = encode_record(values, config, _rng(7))[0]
            mutants = [record[:k] for k in range(record.size)]
            for _ in range(300):
                flipped = record.copy()
                flipped[rng.integers(record.size)] = rng.integers(256)
                mutants.append(flipped)
            for mutant in mutants:
                try:
                    out = decode_record(mutant)
                except PayloadError:
                    continue
                assert out.dtype.kind == "f" and out.size == values.size


# --------------------------------------------------------------------- #
# payload level                                                         #
# --------------------------------------------------------------------- #
def _mixed_payload(seed=0):
    rng = _rng(seed)
    return {
        "conv.weight": rng.normal(size=(8, 3, 3, 3)).astype(np.float32),
        "bn.running_mean": rng.normal(size=8).astype(np.float32),
        "bn.num_batches_tracked": np.asarray(7, dtype=np.int64),
        "mask.idx": rng.integers(0, 99, size=40).astype(np.int32),
        "tiny_bias": np.asarray([0.5], dtype=np.float32),
    }


class TestQuantizePayload:
    @pytest.mark.parametrize("config", [INT8, INT4, QuantConfig(bits=16)])
    def test_non_float_and_tiny_entries_pass_through(self, config):
        payload = _mixed_payload()
        wire_dict, decoded = quantize_payload(payload, config, _rng(1))
        for name in ("bn.num_batches_tracked", "mask.idx", "tiny_bias"):
            assert wire_dict[name] is decoded[name]
            np.testing.assert_array_equal(wire_dict[name], payload[name])
            assert wire_dict[name].dtype == payload[name].dtype
        assert "conv.weight" + QUANT_SUFFIX in wire_dict
        assert "conv.weight" not in wire_dict

    @pytest.mark.parametrize("reason,value", [
        ("not_float", np.arange(64, dtype=np.int32)),
        ("not_smaller", np.ones(2, dtype=np.float32)),
    ])
    def test_passthrough_counts_its_reason(self, reason, value):
        # Forced through, the entry arrives as the dense path sends it —
        # the very array, bit for bit — beside a weight that is quantized,
        # and the counter of its reason moves by exactly one.
        from repro.obs.metrics import MetricsRegistry, get_registry, \
            set_registry
        weight = _rng(2).normal(size=256).astype(np.float32)
        prev = get_registry()
        set_registry(MetricsRegistry())
        try:
            wire_dict, decoded = quantize_payload(
                {"entry": value, "w": weight}, INT8, _rng(3))
            counters = get_registry().snapshot()["counters"]
        finally:
            set_registry(prev)
        assert wire_dict["entry"] is value and decoded["entry"] is value
        assert "w" + QUANT_SUFFIX in wire_dict
        assert counters == {f"quant.passthrough{{reason={reason}}}": 1}

    @pytest.mark.parametrize("config", [INT8, INT4, QuantConfig(bits=16),
                                        QuantConfig(bits=4, block=32)])
    @pytest.mark.parametrize("checksums", [False, True])
    def test_sizing_is_exact(self, config, checksums):
        payload = _mixed_payload(2)
        wire_dict, _ = quantize_payload(payload, config, _rng(4))
        assert quant_payload_nbytes(payload, config, checksums=checksums) \
            == payload_nbytes(wire_dict, checksums=checksums)
        assert payload_nbytes(wire_dict) \
            == len(serialize_state(wire_dict))

    def test_dequantize_payload_matches_sender_side_decoded(self):
        payload = _mixed_payload(3)
        wire_dict, decoded = quantize_payload(payload, INT4, _rng(5))
        received = dequantize_payload(wire_dict)
        assert set(received) == set(payload)
        for name in payload:
            np.testing.assert_array_equal(received[name], decoded[name],
                                          err_msg=name)
            assert received[name].dtype == payload[name].dtype

    def test_nul_in_payload_name_rejected(self):
        with pytest.raises(ValueError, match="NUL"):
            quantize_payload({"a\x00b": np.ones(4, dtype=np.float32)},
                             INT8, _rng(0))

    def test_error_feedback_residual_carries_over(self):
        x = _rng(6).normal(size=500).astype(np.float32)
        residuals = {}
        _, decoded = quantize_payload({"w": x}, INT4, _rng(7), residuals)
        # residual is exactly what this round's rounding dropped
        np.testing.assert_allclose(residuals["w"], x - decoded["w"],
                                   atol=1e-6)
        # next round quantizes x + residual, so the *cumulative* fed-back
        # signal is unbiased even at 4 bits
        _, decoded2 = quantize_payload({"w": x}, INT4, _rng(8), residuals)
        np.testing.assert_allclose(residuals["w"],
                                   (x - decoded["w"]) + x - decoded2["w"],
                                   atol=1e-5)

    def test_shape_changed_residual_is_reset_not_misapplied(self):
        residuals = {"w": np.full(9, 100.0, dtype=np.float32)}
        x = _rng(9).normal(size=500).astype(np.float32)
        _, decoded = quantize_payload({"w": x}, INT8, _rng(10), residuals)
        assert residuals["w"].shape == x.shape
        # the stale residual was dropped: deq tracks x, not x + 100
        assert np.abs(decoded["w"] - x).max() < 1.0

    def test_row_keyed_residual_follows_its_row(self):
        """A ``name.val`` residual belongs to the rows ``name.idx`` names:
        when the selection moves, row 2's rounding error goes back into
        row 2 — wherever it sits in the payload — never into the row that
        took its position, and an unsent row keeps its residual."""
        rng = _rng(12)
        w1, w2 = (rng.normal(size=(2, 64)).astype(np.float32)
                  for _ in range(2))
        residuals = {}
        _, dec1 = quantize_payload(
            {"w.idx": np.array([0, 2], np.int32), "w.val": w1}, INT4,
            _rng(13), residuals)
        err1 = w1 - dec1["w.val"]
        _, dec2 = quantize_payload(
            {"w.idx": np.array([2, 3], np.int32), "w.val": w2}, INT4,
            _rng(14), residuals)
        np.testing.assert_array_equal(residuals["w.idx"], [0, 2, 3])
        held = residuals["w.val"]
        np.testing.assert_array_equal(held[0], err1[0])        # unsent
        np.testing.assert_allclose(held[1] + dec2["w.val"][0],  # row 2
                                   w2[0] + err1[1], atol=1e-6)
        np.testing.assert_allclose(held[2] + dec2["w.val"][1],  # row 3: new
                                   w2[1], atol=1e-6)

    def test_quantization_reduces_bytes(self):
        payload = {"w": _rng(11).normal(size=10_000).astype(np.float32)}
        dense = payload_nbytes(payload)
        assert quant_payload_nbytes(payload, INT8) < dense / 3.8
        assert quant_payload_nbytes(payload, INT4) < dense / 7.4


# --------------------------------------------------------------------- #
# algorithm integration                                                 #
# --------------------------------------------------------------------- #
N_CLIENTS = 4
ROUNDS = 2


def _final_state(algo):
    return serialize_state(dict(algo.global_model.state_dict()))


def _uplink_total(algo):
    return sum(sum(per.values()) for per in algo.ledger.uplink.values())


class TestAlgorithmIntegration:
    def test_bits32_config_is_byte_identical_to_unquantized(self):
        """The CI golden: quant_bits=32 must not change a single byte."""
        base = matrix.reference("resume/fedavg-sync")
        quant = matrix.algorithm("fedavg", quant=make_quant_config(32))
        assert quant.quant is None
        quant.run(ROUNDS)
        assert _final_state(quant) == base.model
        assert quant.ledger.uplink == base.ledger[0]
        assert quant.ledger.downlink == base.ledger[1]

    @pytest.mark.parametrize("name", ["fedavg", "fedprox", "fednova",
                                      "scaffold", "fedtopk", "spatl",
                                      "salientgrads", "ssfl"])
    def test_every_algorithm_runs_quantized_and_charges_fewer_bytes(
            self, name):
        # the dense round 0: the resume matrix's sync reference
        dense = sum(matrix.reference(f"resume/{name}-sync").ledger[0][0]
                    .values())
        quant = matrix.algorithm(name, quant=INT8)
        log = quant.run(1)
        assert np.isfinite(log["train_loss"][-1])
        assert _uplink_total(quant) < dense

    def test_ledger_charges_exactly_the_codec_bytes(self):
        algo = matrix.algorithm("fedavg", quant=INT8)
        algo.run_round(0)
        template = {k: np.asarray(v)
                    for k, v in algo.global_model.state_dict().items()}
        per_client = quant_payload_nbytes(template, INT8)
        assert _uplink_total(algo) == per_client * N_CLIENTS

    def test_residuals_live_in_client_state_and_wire_key_is_stashed(self):
        clients = matrix.clients()
        algo = matrix.algorithm("fedavg", client_list=clients, quant=INT4)
        algo.run_round(0)
        for client in clients:
            res = client.local_state["quant_residual"]
            assert res and all(v.dtype.kind == "f" for v in res.values())
        # no-EF config keeps client state clean
        clients2 = matrix.clients()
        algo2 = matrix.algorithm("fedavg", client_list=clients2, quant=QuantConfig(bits=4, error_feedback=False))
        algo2.run_round(0)
        assert all("quant_residual" not in c.local_state for c in clients2)

    def test_spatl_residual_follows_changing_selection(self, monkeypatch):
        """SPATL clients whose salient filters change between rounds: every
        filter's fed-back error is that filter's own — per sent filter,
        ``residual_t + decoded_t == residual_{t-1} + update_t`` to float32
        rounding, an unsent filter's residual is carried unchanged."""
        import repro.fl.base as base
        quantize = base.quantize_payload
        calls: dict[int, list] = {}

        def spy(payload, config, rng, residuals=None):
            before = {k: v.copy() for k, v in residuals.items()}
            wire, decoded = quantize(payload, config, rng, residuals)
            # copied: quantize_update then writes the decode through it
            calls.setdefault(id(residuals), []).append(
                ({k: np.array(v) for k, v in payload.items()}, before,
                 dict(residuals), decoded))
            return wire, decoded

        monkeypatch.setattr(base, "quantize_payload", spy)
        clients = matrix.clients()
        matrix.algorithm("spatl", client_list=clients, quant=INT4).run(3)

        def by_row(res, name, n_rows):
            dense = np.zeros((n_rows,) + res[name].shape[1:]) \
                if name in res else None
            if dense is not None:
                dense[res[name[:-4] + ".idx"]] = res[name]
            return dense

        moved = 0
        for history in calls.values():
            assert len(history) == 3
            for t, (payload, before, after, decoded) in enumerate(history):
                for name in (k for k in payload if k.endswith(".val")):
                    key = name[:-4] + ".idx"
                    rows = payload[key]
                    n_rows = 1 + max(int(r[key].max())
                                     for r in (payload, before, after)
                                     if key in r)
                    held, now = (by_row(r, name, n_rows)
                                 for r in (before, after))
                    if held is None:
                        held = np.zeros_like(now)
                    sent = np.isin(np.arange(n_rows), rows)
                    np.testing.assert_array_equal(now[~sent], held[~sent])
                    np.testing.assert_allclose(
                        now[rows] + decoded[name], held[rows] + payload[name],
                        rtol=0, atol=1e-6)
                    if t and name in after and not np.array_equal(
                            rows, history[t - 1][0][key]):
                        moved += 1
        assert moved, "no quantized selection changed between rounds"

    def test_bn_step_counter_survives_quantized_roundtrip(self):
        algo = matrix.algorithm("fedavg", quant=INT4)
        algo.run_round(0)
        state = dict(algo.global_model.state_dict())
        counters = [v for k, v in state.items()
                    if k.endswith("num_batches_tracked")]
        assert counters
        assert all(np.asarray(v).dtype.kind in "iu" for v in counters)


# --------------------------------------------------------------------- #
# executor / runtime composition                                        #
# --------------------------------------------------------------------- #
class TestComposition:
    """A quantized run is one protocol: every engine reproduces the
    serial engine's bytes, ledger, and error-feedback trajectory."""

    @staticmethod
    def _assert_serial(algo, bits):
        """``algo`` after ``ROUNDS`` == the serial run's reference."""
        base = matrix.reference(f"quant/fedavg-int{bits}")
        assert _final_state(algo) == base.model
        assert (algo.ledger.uplink, algo.ledger.downlink) == base.ledger

    @pytest.mark.parametrize("workers", [pytest.param(2, id="process-2")])
    def test_executors_match_serial_bitwise(self, workers):
        algo = matrix.algorithm("fedavg", quant=INT4,
                                executor=make_executor(workers))
        try:
            algo.run(ROUNDS)
        finally:
            algo.close()
        self._assert_serial(algo, 4)

    def test_async_buffered_commits_match_sync_bitwise(self):
        async_algo = matrix.algorithm("fedavg", quant=INT8)
        n = len(async_algo.clients)
        runner = AsyncFederatedRunner(
            async_algo, AsyncProfile(seed=5),
            AsyncConfig(buffer_k=n, max_inflight=n))
        results = runner.run(steps=ROUNDS)
        assert all(r.n_updates == n for r in results)
        self._assert_serial(async_algo, 8)

    def test_scale_runner_streaming_fold_matches_plain_run(self, tmp_path):
        algo = matrix.algorithm("fedavg", quant=INT8)
        ScaleRunner(algo, spill_dir=tmp_path / "spills").run(ROUNDS)
        self._assert_serial(algo, 8)


# --------------------------------------------------------------------- #
# sparse-at-init algorithms                                             #
# --------------------------------------------------------------------- #
class TestSparseInit:
    DENSITY = 0.25

    def _build(self, cls, **kw):
        return matrix.algorithm(cls.name, **{"density": self.DENSITY, **kw})

    def test_density_validated(self):
        with pytest.raises(ValueError, match="density"):
            self._build(SSFL, density=0.0)

    def test_ssfl_mask_is_top_magnitude_of_init(self):
        algo = self._build(SSFL)
        params = dict(algo.global_model.named_parameters())
        assert set(algo.masks) == set(params)
        for name, idx in algo.masks.items():
            flat = np.abs(params[name].data.ravel())
            k = max(1, int(round(self.DENSITY * flat.size)))
            assert idx.size == k
            assert np.all(np.diff(idx) > 0)          # sorted, unique
            # every kept coordinate outranks every dropped one
            if k < flat.size:
                dropped = np.setdiff1d(np.arange(flat.size), idx)
                assert flat[idx].min() >= flat[dropped].max() - 1e-12

    def test_ssfl_bootstrap_is_free_salientgrads_is_charged(self):
        ssfl = self._build(SSFL)
        assert ssfl.ledger.total_bytes() == 0
        sg = self._build(SalientGrads)
        assert sg.ledger.round_bytes(0) > 0          # scores up + mask down
        assert sg.ledger.uplink[0] and sg.ledger.downlink[0]

    def test_unmasked_coordinates_stay_at_init(self):
        algo = self._build(SSFL)
        init = {n: p.data.copy()
                for n, p in algo.global_model.named_parameters()}
        algo.run(2)
        changed_any = False
        for name, p in algo.global_model.named_parameters():
            keep = np.zeros(p.data.size, dtype=bool)
            keep[algo.masks[name]] = True
            flat_now = p.data.ravel()
            flat_init = init[name].ravel()
            np.testing.assert_array_equal(flat_now[~keep], flat_init[~keep],
                                          err_msg=name)
            changed_any |= bool(np.any(flat_now[keep] != flat_init[keep]))
        assert changed_any                           # training did happen

    def test_uplink_is_density_priced_and_index_free(self):
        # FedAvg's dense round 0: the resume matrix's sync reference
        dense = sum(matrix.reference("resume/fedavg-sync").ledger[0][0]
                    .values())
        algo = self._build(SSFL)
        algo.run_round(0)
        # masked floats shrink to ~density of their dense bytes; dense
        # buffers ride along unchanged, so total sits well under 50%
        assert _uplink_total(algo) < 0.5 * dense

    def test_quant_stacks_multiplicatively_on_sparse_uplink(self):
        plain = self._build(SSFL)
        plain.run_round(0)
        quant = self._build(SSFL, quant=INT4)
        log = quant.run(1)
        assert np.isfinite(log["train_loss"][-1])
        assert _uplink_total(quant) < 0.5 * _uplink_total(plain)

    def test_salientgrads_trains(self):
        algo = self._build(SalientGrads)
        log = algo.run(2)
        assert np.isfinite(log["train_loss"][-1])
        assert len(log["val_acc"]) == 2

    def test_deterministic_given_seed(self):
        runs = []
        for _ in range(2):
            algo = self._build(SSFL, quant=INT8)
            algo.run(2)
            runs.append((_final_state(algo), algo.ledger.total_bytes()))
        assert runs[0] == runs[1]
