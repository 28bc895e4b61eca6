"""Unit + property tests: wire codec and communication ledger."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.fl import (CommLedger, PayloadError, dequantize_payload,
                      deserialize_state, make_quant_config, payload_nbytes,
                      quantize_payload, serialize_state,
                      sparse_payload_nbytes)
from repro.fl.quant import QUANT_SUFFIX


class TestCodec:
    def test_roundtrip_mixed_dtypes(self):
        state = {
            "w": np.random.default_rng(0).normal(size=(3, 4)).astype(np.float32),
            "idx": np.asarray([1, 5, 9], dtype=np.int32),
            "flag": np.asarray([True, False]),
            "scalar": np.asarray(3.5, dtype=np.float64),
            "big": np.arange(10, dtype=np.int64),
        }
        out = deserialize_state(serialize_state(state))
        assert set(out) == set(state)
        for k in state:
            np.testing.assert_array_equal(out[k], state[k], err_msg=k)
            assert out[k].dtype == state[k].dtype

    def test_payload_nbytes_is_exact(self):
        state = {"a": np.zeros((5, 5), dtype=np.float32),
                 "long.dotted.name": np.ones(7, dtype=np.int64)}
        assert payload_nbytes(state) == len(serialize_state(state))

    def test_empty_state(self):
        assert deserialize_state(serialize_state({})) == {}
        assert payload_nbytes({}) == 4

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(TypeError):
            serialize_state({"c": np.zeros(2, dtype=np.complex64)})

    def test_unicode_names(self):
        state = {"ünïcode.wéight": np.ones(2, dtype=np.float32)}
        out = deserialize_state(serialize_state(state))
        assert "ünïcode.wéight" in out

    @given(st.dictionaries(
        st.text(min_size=1, max_size=20).filter(lambda s: "\x00" not in s),
        hnp.arrays(st.sampled_from([np.float32, np.int32, np.int64]).map(np.dtype),
                   hnp.array_shapes(max_dims=3, max_side=5),
                   elements=st.integers(-100, 100)),
        max_size=5))
    @settings(max_examples=25, deadline=None)
    def test_property_roundtrip(self, state):
        out = deserialize_state(serialize_state(state))
        assert set(out) == set(state)
        for k in state:
            np.testing.assert_array_equal(out[k], state[k])
        assert payload_nbytes(state) == len(serialize_state(state))


class TestPayloadValidation:
    STATE = {"layer.weight": np.arange(24, dtype=np.float32).reshape(2, 3, 4),
             "layer.bias": np.ones(2, dtype=np.float64)}

    def test_truncated_payload_raises_typed_error(self):
        blob = serialize_state(self.STATE)
        for cut in (0, 3, 5, len(blob) // 2, len(blob) - 1):
            with pytest.raises(PayloadError):
                deserialize_state(blob[:cut])

    def test_error_names_entry_and_offset(self):
        blob = serialize_state(self.STATE)
        with pytest.raises(PayloadError) as exc:
            deserialize_state(blob[:len(blob) - 1])
        assert exc.value.entry is not None
        assert exc.value.offset is not None
        assert "offset" in str(exc.value)

    def test_trailing_garbage_rejected(self):
        blob = serialize_state(self.STATE)
        with pytest.raises(PayloadError):
            deserialize_state(blob + b"\x00\x01")

    def test_unknown_dtype_code_rejected(self):
        blob = bytearray(serialize_state({"w": np.ones(2, dtype=np.float32)}))
        # entry layout after u32 count: u16 name_len, name, u8 dtype code
        blob[4 + 2 + 1] = 250
        with pytest.raises(PayloadError):
            deserialize_state(bytes(blob))

    def test_payload_error_is_value_error(self):
        assert issubclass(PayloadError, ValueError)


class TestChecksummedCodec:
    STATE = {"w": np.random.default_rng(0).normal(size=(3, 5)).astype(
        np.float32), "n": np.asarray(7, dtype=np.int64)}

    def test_roundtrip(self):
        blob = serialize_state(self.STATE, checksums=True)
        out = deserialize_state(blob, checksums=True)
        for k in self.STATE:
            np.testing.assert_array_equal(out[k], self.STATE[k], err_msg=k)

    def test_checksummed_size_is_exact(self):
        blob = serialize_state(self.STATE, checksums=True)
        assert payload_nbytes(self.STATE, checksums=True) == len(blob)
        # exactly 4 CRC bytes per entry on top of the plain format
        assert len(blob) == len(serialize_state(self.STATE)) + 4 * len(
            self.STATE)

    def test_single_bit_flip_detected_everywhere(self):
        blob = serialize_state(self.STATE, checksums=True)
        for pos in range(4, len(blob)):  # skip the uncovered count header
            bad = bytearray(blob)
            bad[pos] ^= 0x10
            with pytest.raises(PayloadError):
                deserialize_state(bytes(bad), checksums=True)

    def test_count_header_flip_detected(self):
        blob = serialize_state(self.STATE, checksums=True)
        for pos in range(4):
            bad = bytearray(blob)
            bad[pos] ^= 0x01
            with pytest.raises(PayloadError):
                deserialize_state(bytes(bad), checksums=True)

    def test_plain_format_unchanged_by_checksum_support(self):
        # default serialisation must stay byte-identical to the original
        # wire format (fault-free accounting depends on it)
        blob = serialize_state(self.STATE)
        assert payload_nbytes(self.STATE) == len(blob)
        out = deserialize_state(blob)
        for k in self.STATE:
            np.testing.assert_array_equal(out[k], self.STATE[k])


class TestSparsePayload:
    def test_counts_values_and_int32_indices(self):
        sel = {"conv": (np.asarray([0, 2], dtype=np.int64),
                        np.zeros((2, 3, 3, 3), dtype=np.float32))}
        n = sparse_payload_nbytes(sel)
        values_bytes = 2 * 3 * 3 * 3 * 4
        index_bytes = 2 * 4
        assert n > values_bytes + index_bytes
        assert n < values_bytes + index_bytes + 100  # headers only

    def test_sparser_is_smaller(self):
        full = {"c": (np.arange(16, dtype=np.int32),
                      np.zeros((16, 3, 3, 3), dtype=np.float32))}
        half = {"c": (np.arange(8, dtype=np.int32),
                      np.zeros((8, 3, 3, 3), dtype=np.float32))}
        assert sparse_payload_nbytes(half) < sparse_payload_nbytes(full) / 1.8


class TestLedger:
    def test_round_and_total(self):
        ledger = CommLedger()
        ledger.record_down(0, 1, 100)
        ledger.record_up(0, 1, 50)
        ledger.record_down(1, 2, 200)
        assert ledger.round_bytes(0) == 150
        assert ledger.round_bytes(1) == 200
        assert ledger.total_bytes() == 350
        assert ledger.total_bytes(up_to_round=0) == 150

    def test_accumulates_same_round_client(self):
        ledger = CommLedger()
        ledger.record_up(0, 1, 10)
        ledger.record_up(0, 1, 5)
        assert ledger.round_bytes(0) == 15

    def test_per_round_per_client_mb(self):
        ledger = CommLedger()
        mb = 2 ** 20
        ledger.record_down(0, 0, mb)
        ledger.record_up(0, 0, mb)
        ledger.record_down(0, 1, 3 * mb)
        ledger.record_up(0, 1, 3 * mb)
        assert ledger.per_round_per_client_mb() == pytest.approx(4.0)

    def test_total_gb(self):
        ledger = CommLedger()
        ledger.record_up(0, 0, 2 ** 30)
        assert ledger.total_gb() == pytest.approx(1.0)

    def test_empty_ledger(self):
        assert CommLedger().total_bytes() == 0
        assert CommLedger().per_round_per_client_mb() == 0.0


class TestDuplicateEntryRejection:
    def test_duplicate_entry_name_raises(self):
        # Craft a payload that repeats one well-formed record twice: a
        # hostile (or buggy) sender must not silently overwrite entries.
        blob = serialize_state({"w": np.arange(6, dtype=np.float32)})
        record = blob[4:]                       # skip the u32 entry count
        forged = struct.pack("<I", 2) + record + record
        with pytest.raises(PayloadError, match="duplicate"):
            deserialize_state(forged)

    def test_duplicate_detected_with_checksums(self):
        blob = serialize_state({"w": np.zeros(3, dtype=np.float32)},
                               checksums=True)
        record = blob[4:]
        forged = struct.pack("<I", 2) + record + record
        with pytest.raises(PayloadError, match="duplicate"):
            deserialize_state(forged, checksums=True)

    def test_distinct_names_still_accepted(self):
        state = {"a": np.ones(2, dtype=np.float32),
                 "b": np.ones(2, dtype=np.float32)}
        out = deserialize_state(serialize_state(state))
        assert set(out) == {"a", "b"}


class TestQuantization:
    """The fp16 transport: the quant codec's ``bits=16`` record, across
    the wire and back."""

    @staticmethod
    def _wire_and_back(state):
        wire_dict, _ = quantize_payload(state, make_quant_config(16),
                                        np.random.default_rng(0))
        blob = serialize_state(wire_dict)
        return wire_dict, dequantize_payload(deserialize_state(blob))

    def test_fp16_roundtrip_within_tolerance(self):
        rng = np.random.default_rng(3)
        state = {"w": rng.normal(size=(8, 4)).astype(np.float32),
                 "b": rng.normal(size=4).astype(np.float32)}
        wire_dict, back = self._wire_and_back(state)
        assert "w" + QUANT_SUFFIX in wire_dict
        for k in state:
            assert back[k].dtype == np.float32
            np.testing.assert_allclose(back[k], state[k], atol=1e-3,
                                       rtol=1e-3, err_msg=k)

    def test_fp16_representable_values_are_lossless(self):
        # Values exactly representable in fp16 must survive the narrow
        # cast bit-for-bit after widening back.
        state = {"w": np.tile(np.asarray([0.0, 0.5, -1.25, 2.0, 1024.0],
                                         dtype=np.float32), 8)}
        wire_dict, back = self._wire_and_back(state)
        assert "w" + QUANT_SUFFIX in wire_dict
        np.testing.assert_array_equal(back["w"], state["w"])

    def test_integer_and_bool_entries_pass_through(self):
        state = {"idx": np.arange(64, dtype=np.int32),
                 "mask": np.asarray([True, False, True]),
                 "count": np.asarray(7, dtype=np.int64)}
        wire_dict, back = self._wire_and_back(state)
        for k in state:
            assert wire_dict[k] is state[k]
            assert back[k].dtype == state[k].dtype
            np.testing.assert_array_equal(back[k], state[k], err_msg=k)

    def test_quantized_payload_is_smaller(self):
        state = {"w": np.zeros((32, 32), dtype=np.float32)}
        wire_dict, _ = self._wire_and_back(state)
        assert payload_nbytes(wire_dict) < 0.6 * payload_nbytes(state)

    def test_float64_roundtrips_without_downcast(self):
        # A float64 entry is never silently downcast to float32 on
        # receipt: small accumulators stay dense (the record would be
        # larger) and bit-exact, wide tensors come back as float64.
        state = {"acc": np.asarray([1.0 + 2 ** -40, -3.5], dtype=np.float64),
                 "wide": np.random.default_rng(5).normal(size=64)}
        wire_dict, back = self._wire_and_back(state)
        assert "wide" + QUANT_SUFFIX in wire_dict
        assert back["acc"].dtype == back["wide"].dtype == np.float64
        np.testing.assert_array_equal(back["acc"], state["acc"])

    def test_fp16_entry_not_renarrowed_by_quantize(self):
        # An already-fp16 float gains nothing from an fp16 record, so it
        # travels dense, untouched — quantizing is idempotent.
        state = {"w": np.linspace(-2, 2, 64).astype(np.float16)}
        wire_dict, back = self._wire_and_back(state)
        assert wire_dict["w"] is state["w"]
        assert self._wire_and_back(wire_dict)[0]["w"] is state["w"]
        assert back["w"].dtype == np.float16

    def test_mixed_state_full_roundtrip_restores_every_dtype(self):
        rng = np.random.default_rng(17)
        state = {
            "w32": rng.normal(size=64).astype(np.float32),
            "w64": rng.normal(size=64).astype(np.float64),
            "w16": rng.normal(size=64).astype(np.float16),
            "idx": np.arange(4, dtype=np.int32),
            "count": np.asarray(9, dtype=np.int64),
            "mask": np.asarray([True, False]),
        }
        wire_dict, back = self._wire_and_back(state)
        # only the wide floats cross as fp16 records; the record carries
        # the original dtype, so every entry comes back as it was sent
        assert {k for k in wire_dict if k.endswith(QUANT_SUFFIX)} \
            == {"w32" + QUANT_SUFFIX, "w64" + QUANT_SUFFIX}
        for name, arr in state.items():
            assert back[name].dtype == arr.dtype, name
        for name in ("w16", "idx", "count", "mask"):
            np.testing.assert_array_equal(back[name], state[name],
                                          err_msg=name)

    def test_non_float_target_rejected(self):
        # the width knob takes the codec's formats only
        for bits in (12, 64, 0):
            with pytest.raises(ValueError, match="bits must be one of"):
                make_quant_config(bits)
