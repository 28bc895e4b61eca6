"""Fast transport layer (repro.fl.wire): zero-copy codec + broadcast cache.

The contract under test (DESIGN.md §11): the single-buffer writer is
byte-identical to the original join-based encoder; ``copy=False``
decodes are read-only views over the payload; the
:class:`BroadcastCache` changes who pays the encode CPU but never the
bytes charged to the ledger; and header-capacity overflows surface as
typed :class:`PayloadError`, never raw ``struct.error``.
"""

from __future__ import annotations

import json
import pickle
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.fl import wire
from repro.fl.comm import (PayloadError, Transport, decode_update,
                           deserialize_state, encode_update, payload_nbytes,
                           serialize_state, sparse_payload_nbytes)
from repro.fl.faults import FaultModel
from repro.fl.wire import BroadcastCache, state_fingerprint
from repro.obs.trace import tracing


# --------------------------------------------------------------------- #
# the original encoder, verbatim, as the byte-identity oracle            #
# --------------------------------------------------------------------- #
def _legacy_serialize(state, checksums=False):
    """The pre-PR join-based encoder the wire format is defined by."""
    parts = [struct.pack("<I", len(state))]
    for name, value in state.items():
        arr = np.ascontiguousarray(value)
        if np.ndim(value) == 0:
            arr = arr.reshape(())
        raw_name = name.encode("utf-8")
        record = [struct.pack("<H", len(raw_name)), raw_name,
                  struct.pack("<BB", wire._DTYPE_CODE[arr.dtype], arr.ndim),
                  struct.pack(f"<{arr.ndim}I", *arr.shape), arr.tobytes()]
        if checksums:
            record.append(struct.pack("<I", zlib.crc32(b"".join(record))))
        parts.extend(record)
    return b"".join(parts)


def _rand_state(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "conv.weight": rng.normal(size=(8, 3, 3, 3)).astype(np.float32),
        "bn.running_var": rng.normal(size=8).astype(np.float64),
        "idx": rng.integers(0, 100, size=17).astype(np.int32),
        "steps": np.asarray(rng.integers(0, 9), dtype=np.int64),  # 0-d
        "mask": rng.random(11) > 0.5,
        "half": rng.normal(size=(2, 5)).astype(np.float16),
        "bytes": rng.integers(0, 256, size=6).astype(np.uint8),
        "empty": np.zeros((0, 4), dtype=np.float32),
        "ünïcode.wéight": rng.normal(size=3).astype(np.float32),
    }


class TestByteIdentity:
    @pytest.mark.parametrize("checksums", [False, True])
    def test_fast_writer_matches_legacy_encoder(self, checksums):
        state = _rand_state(1)
        fast = wire.serialize(state, checksums=checksums)
        assert fast == _legacy_serialize(state, checksums=checksums)
        out = wire.deserialize(fast, checksums=checksums)
        assert set(out) == set(state)
        for k in state:
            np.testing.assert_array_equal(out[k], np.asarray(state[k]),
                                          err_msg=k)
            assert out[k].dtype == np.asarray(state[k]).dtype
            assert out[k].shape == np.asarray(state[k]).shape

    def test_serialize_state_wrapper_matches_core(self):
        state = _rand_state(2)
        assert serialize_state(state) == wire.serialize(state)

    def test_serialize_into_accepts_any_writable_buffer(self):
        state = _rand_state(3)
        want = _legacy_serialize(state)
        n = payload_nbytes(state)
        for buf in (bytearray(n), np.zeros(n, dtype=np.uint8),
                    memoryview(bytearray(n + 10))):
            written = wire.serialize_into(state, buf)
            assert written == n == len(want)
            assert bytes(memoryview(buf).cast("B")[:n]) == want


class TestScratchSerialize:
    def test_scratch_view_matches_serialize(self):
        state = _rand_state(4)
        view = wire.serialize_scratch(state, checksums=True)
        assert bytes(view) == wire.serialize(state, checksums=True)

    def test_scratch_buffer_is_reused_across_calls(self):
        a = wire.serialize_scratch(_rand_state(5))
        b = wire.serialize_scratch(_rand_state(6))
        # same power-of-two bucket => same staging buffer, no new allocation
        assert a.obj is b.obj

    def test_staging_buffers_are_shared_and_reset(self):
        """serialize and serialize_scratch stage through one buffer each,
        sized to a power of two; workspace reports and drops them."""
        from repro.tensor import workspace
        workspace.reset()
        state = _rand_state(7)
        cap = 1 << (payload_nbytes(state) - 1).bit_length()
        blob = wire.serialize(state)
        view = wire.serialize_scratch(state)
        assert bytes(view) == blob
        assert workspace.shared_bytes()["wire.stage"] == 2 * cap
        workspace.reset()
        assert workspace.shared_bytes()["wire.stage"] == 0
        assert wire.serialize(state) == blob

    def test_scratch_is_transient(self):
        """A second call of similar size overwrites the first view."""
        state = {"w": np.arange(8, dtype=np.float32)}
        view = wire.serialize_scratch(state)
        first = bytes(view)
        wire.serialize_scratch({"w": np.zeros(8, dtype=np.float32)})
        assert bytes(view) != first


class TestZeroCopyDeserialize:
    STATE = {"w": np.arange(12, dtype=np.float32).reshape(3, 4),
             "n": np.asarray(7, dtype=np.int64)}

    def test_views_are_read_only_and_alias_the_payload(self):
        blob = wire.serialize(self.STATE)
        out = wire.deserialize(blob, copy=False)
        backing = np.frombuffer(blob, dtype=np.uint8)
        for k in self.STATE:
            np.testing.assert_array_equal(out[k], self.STATE[k], err_msg=k)
            assert not out[k].flags.writeable
            assert np.shares_memory(out[k], backing)
            with pytest.raises(ValueError):
                out[k][...] = 0

    def test_copy_mode_returns_writable_independent_arrays(self):
        blob = wire.serialize(self.STATE)
        out = wire.deserialize(blob, copy=True)
        backing = np.frombuffer(blob, dtype=np.uint8)
        for k in self.STATE:
            assert out[k].flags.writeable
            assert not np.shares_memory(out[k], backing)

    def test_zero_copy_validates_like_copy_mode(self):
        blob = wire.serialize(self.STATE, checksums=True)
        bad = bytearray(blob)
        bad[len(bad) // 2] ^= 0x08
        with pytest.raises(PayloadError):
            wire.deserialize(bytes(bad), checksums=True, copy=False)
        with pytest.raises(PayloadError):
            wire.deserialize(blob[:-3], checksums=True, copy=False)

    def test_deserialize_state_wrapper_forwards_copy_flag(self):
        blob = serialize_state(self.STATE)
        out = deserialize_state(blob, copy=False)
        assert not out["w"].flags.writeable


# --------------------------------------------------------------------- #
# satellite: header-capacity validation                                  #
# --------------------------------------------------------------------- #
class TestHeaderCapacityValidation:
    LONG = "n" * 70_000            # > u16 name-length capacity

    def test_oversized_name_raises_payload_error_everywhere(self):
        state = {self.LONG: np.zeros(2, dtype=np.float32)}
        for fn in (payload_nbytes, serialize_state, wire.serialize):
            with pytest.raises(PayloadError, match="65535"):
                fn(state)

    def test_oversized_dim_raises_payload_error(self):
        # shape (2**32, 0) holds zero bytes, so only the header overflows
        state = {"huge": np.zeros((2 ** 32, 0), dtype=np.float32)}
        for fn in (payload_nbytes, serialize_state, wire.serialize):
            with pytest.raises(PayloadError, match="u32"):
                fn(state)

    def test_error_names_the_entry_not_struct(self):
        with pytest.raises(PayloadError) as exc:
            payload_nbytes({self.LONG: np.zeros(1, dtype=np.float32)})
        assert exc.value.entry == self.LONG
        assert not isinstance(exc.value, struct.error)

    def test_limits_are_inclusive(self):
        name = "a" * wire._MAX_NAME_BYTES
        state = {name: np.zeros(1, dtype=np.float32)}
        blob = wire.serialize(state)
        assert payload_nbytes(state) == len(blob)
        assert name in wire.deserialize(blob)

    def test_sparse_sizing_validates_too(self):
        sel = {self.LONG: (np.arange(2, dtype=np.int32),
                           np.zeros((2, 3), dtype=np.float32))}
        with pytest.raises(PayloadError):
            sparse_payload_nbytes(sel)


# --------------------------------------------------------------------- #
# satellite: exact-size property                                         #
# --------------------------------------------------------------------- #
_SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)
_ARRAYS = st.one_of(
    hnp.arrays(np.dtype(np.float32), _SHAPES,
               elements=st.floats(-8, 8, width=32)),
    hnp.arrays(np.dtype(np.float16), _SHAPES,
               elements=st.floats(-8, 8, width=16)),
    hnp.arrays(np.dtype(np.int64), _SHAPES, elements=st.integers(-99, 99)),
    hnp.arrays(np.dtype(np.uint8), _SHAPES, elements=st.integers(0, 255)),
    hnp.arrays(np.dtype(bool), _SHAPES),
)


class TestExactSizeProperty:
    @given(state=st.dictionaries(st.text(min_size=1, max_size=12), _ARRAYS,
                                 max_size=5),
           checksums=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_payload_nbytes_equals_serialized_length(self, state, checksums):
        blob = serialize_state(state, checksums=checksums)
        assert payload_nbytes(state, checksums=checksums) == len(blob)
        out = deserialize_state(blob, checksums=checksums)
        assert set(out) == set(state)
        for k in state:
            np.testing.assert_array_equal(out[k], state[k])
            assert out[k].shape == state[k].shape     # incl. 0-d and empty

    def test_edge_entries_explicitly(self):
        state = {"zero_d": np.asarray(1.5, dtype=np.float16),
                 "empty": np.zeros((3, 0, 2), dtype=np.float32),
                 "flags": np.asarray([True, False]),
                 "ünïcode→name": np.ones(1, dtype=np.float64)}
        for cs in (False, True):
            assert payload_nbytes(state, checksums=cs) \
                == len(serialize_state(state, checksums=cs))

    def test_sparse_nbytes_matches_equivalent_dense_dict(self):
        rng = np.random.default_rng(9)
        sel = {"features.conv1": (np.asarray([0, 3, 5], dtype=np.int64),
                                  rng.normal(size=(3, 4, 3, 3))
                                  .astype(np.float32)),
               "clässifier": (np.zeros(0, dtype=np.int64),
                              np.zeros((0, 16), dtype=np.float32)),
               "head.bias": (np.asarray([2], dtype=np.int32),
                             rng.normal(size=1).astype(np.float64))}
        equivalent = {}
        for name, (idx, val) in sel.items():
            equivalent[name + ".idx"] = np.asarray(idx).astype(np.int32)
            equivalent[name + ".val"] = np.asarray(val)
        assert sparse_payload_nbytes(sel) == payload_nbytes(equivalent)


# --------------------------------------------------------------------- #
# satellite: update framing round-trips and faults                       #
# --------------------------------------------------------------------- #
class TestUpdateFraming:
    def test_nan_and_inf_round_trip_bitwise(self):
        update = {
            "arr": np.asarray([np.nan, np.inf, -np.inf, 0.0, -0.0],
                              dtype=np.float32),
            "loss": float("nan"),
            "bound": float("inf"),
        }
        decoded = decode_update(encode_update(update))
        assert decoded["arr"].tobytes() == update["arr"].tobytes()
        assert np.isnan(decoded["loss"])
        assert decoded["bound"] == float("inf")

    def test_empty_containers_round_trip(self):
        update = {"salient": {}, "pair": (), "items": [],
                  "nested": {"inner": ((), {})}}
        decoded = decode_update(encode_update(update))
        assert decoded == update
        assert isinstance(decoded["pair"], tuple)
        assert isinstance(decoded["nested"]["inner"][0], tuple)
        assert decode_update(encode_update({})) == {}

    def test_missing_array_id_is_payload_error_not_key_error(self):
        manifest = {"k": "dict", "items": [["w", {"k": "arr", "id": "t9"}]]}
        raw = json.dumps(manifest, separators=(",", ":")).encode("utf-8")
        blob = serialize_state(
            {"__pytree__": np.frombuffer(raw, dtype=np.uint8)})
        with pytest.raises(PayloadError, match="missing array id"):
            decode_update(blob)

    def test_missing_numpy_scalar_id_is_payload_error(self):
        manifest = {"k": "np", "id": "t3"}
        raw = json.dumps(manifest, separators=(",", ":")).encode("utf-8")
        blob = serialize_state(
            {"__pytree__": np.frombuffer(raw, dtype=np.uint8)})
        with pytest.raises(PayloadError, match="missing array id"):
            decode_update(blob)

    def test_zero_copy_decode_returns_read_only_arrays(self):
        update = {"w": np.arange(6, dtype=np.float32), "n": 3}
        decoded = decode_update(encode_update(update), copy=False)
        assert not decoded["w"].flags.writeable
        np.testing.assert_array_equal(decoded["w"], update["w"])


# --------------------------------------------------------------------- #
# broadcast cache                                                        #
# --------------------------------------------------------------------- #
class TestBroadcastCache:
    def test_token_hit_serves_same_blob_without_reencoding(self):
        cache = BroadcastCache()
        state = _rand_state(7)
        first = cache.encode(state, token=1)
        again = cache.encode(state, token=1)
        assert first is again
        assert (cache.misses, cache.hits, cache.content_hits) == (1, 1, 0)
        assert first == wire.serialize(state)

    def test_content_hit_survives_token_bump(self):
        cache = BroadcastCache()
        state = _rand_state(8)
        first = cache.encode(state, token=1)
        again = cache.encode(state, token=2)      # unchanged content
        assert first is again
        assert cache.content_hits == 1
        # the fingerprint match moved the token: next call is a cheap hit
        cache.encode(state, token=2)
        assert cache.hits == 1

    def test_changed_content_misses(self):
        cache = BroadcastCache()
        state = _rand_state(9)
        first = cache.encode(state, token=1)
        state["conv.weight"] = state["conv.weight"] + 1.0
        second = cache.encode(state, token=2)
        assert cache.misses == 2
        assert second != first
        assert second == wire.serialize(state)

    def test_same_token_different_entry_count_never_served_stale(self):
        cache = BroadcastCache()
        a = {"w": np.ones(4, dtype=np.float32)}
        b = {"w": np.ones(4, dtype=np.float32),
             "b": np.zeros(2, dtype=np.float32)}
        cache.encode(a, token=5)
        blob_b = cache.encode(b, token=5)
        assert blob_b == wire.serialize(b)

    def test_channels_and_checksums_are_independent_keys(self):
        cache = BroadcastCache()
        down = {"w": np.ones(3, dtype=np.float32)}
        sync = {"model.w": np.zeros(3, dtype=np.float32)}
        assert cache.encode(down, token=1, channel="down") \
            == wire.serialize(down)
        assert cache.encode(sync, token=1, channel="sync") \
            == wire.serialize(sync)
        assert cache.encode(down, token=1, channel="down",
                            checksums=True) == wire.serialize(down,
                                                              checksums=True)
        assert cache.misses == 3
        # none of the three evicted another
        cache.encode(down, token=1, channel="down")
        cache.encode(sync, token=1, channel="sync")
        cache.encode(down, token=1, channel="down", checksums=True)
        assert cache.hits == 3

    def test_variant_is_part_of_the_cache_key(self):
        """A quantization-config change must never serve a stale blob:
        same state + same token under a different ``variant`` is a miss,
        and the variants coexist without evicting each other."""
        cache = BroadcastCache()
        state = _rand_state(12)
        plain = cache.encode(state, token=1)
        quant = cache.encode(state, token=1, variant=("quant", 4, 0, True))
        assert cache.misses == 2
        assert quant == plain == wire.serialize(state)   # same bytes, but
        # a re-request of either variant is a hit — neither evicted the other
        assert cache.encode(state, token=1) is plain
        assert cache.encode(state, token=1,
                            variant=("quant", 4, 0, True)) is quant
        assert cache.hits == 2
        # a different quant config is yet another key
        cache.encode(state, token=1, variant=("quant", 8, 0, True))
        assert cache.misses == 3

    def test_pickles_cold(self):
        cache = BroadcastCache()
        state = _rand_state(10)
        cache.encode(state, token=1)
        clone = pickle.loads(pickle.dumps(cache))
        assert (clone.hits, clone.content_hits, clone.misses) == (0, 0, 0)
        assert clone.encode(state, token=1) == wire.serialize(state)
        assert clone.misses == 1                    # replica re-encodes once

    def test_traced_encode_reports_full_bytes_with_cached_marker(self):
        """The cache opens no span of its own; the transport that sends
        its blobs reports each one's full length, cached or not."""
        cache = BroadcastCache()
        state = _rand_state(11)
        transport = Transport(FaultModel(seed=0), broadcast=cache)
        with tracing() as tracer:
            for cid in range(2):
                transport.download(0, cid, state)
        spans = [s for s in tracer.spans if s.name == "serialize"]
        assert [s.attrs["cached"] for s in spans] == [False, True]
        # ledger invariance: the cached span still carries the full length
        n = payload_nbytes(state, checksums=True)
        assert all(s.attrs["bytes"] == n for s in spans)
        assert all(s.attrs["entries"] == len(state) for s in spans)
        assert transport.ledger.downlink == {0: {0: n, 1: n}}
        with tracing() as tracer:
            cache.encode(state, token=transport.token, checksums=True)
        assert tracer.spans == []

    def test_state_fingerprint_discriminates(self):
        a = {"w": np.arange(4, dtype=np.float32)}
        b = {"w": np.arange(4, dtype=np.float32).reshape(2, 2)}
        c = {"v": np.arange(4, dtype=np.float32)}
        prints = {state_fingerprint(s) for s in (a, b, c)}
        assert len(prints) == 3
        assert state_fingerprint(a) == state_fingerprint(
            {"w": np.arange(4, dtype=np.float32)})


def _codec_raises(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("fault-free transfer hit the codec")
    for name in ("serialize", "serialize_scratch", "deserialize"):
        monkeypatch.setattr(wire, name, boom)


class TestCodecValidate:
    def test_emits_matched_span_pair_with_exact_bytes(self):
        """A checksummed transfer makes one validating pass through the
        codec, inside the span that carries the charged bytes."""
        state = _rand_state(12)
        transport = Transport(FaultModel(seed=0))
        with tracing() as tracer:
            received = transport.upload(3, 7, state)
        for k in state:
            np.testing.assert_array_equal(received[k], state[k], err_msg=k)
        n = payload_nbytes(state, checksums=True)
        assert transport.ledger.uplink == {3: {7: n}}
        ser = [s for s in tracer.spans if s.name == "serialize"]
        de = [s for s in tracer.spans if s.name == "deserialize"]
        up = [s for s in tracer.spans if s.name == "upload"]
        assert len(ser) == 1 and len(de) == 1 and len(up) == 1
        assert ser[0].attrs["bytes"] == de[0].attrs["bytes"] == n
        assert up[0].attrs == {"round": 3, "client": 7, "bytes": n}
        assert de[0].attrs["zero_copy"] is True
        assert ser[0].attrs["entries"] == de[0].attrs["entries"] == len(state)
        assert ser[0].depth == de[0].depth == up[0].depth + 1

    def test_traced_transfer_does_an_untraced_ones_work(self, monkeypatch):
        """Tracing adds no codec pass: a traced fault-free transfer sizes,
        charges and reports the charge on its span, nothing more."""
        _codec_raises(monkeypatch)
        state = _rand_state(12)
        transport = Transport(broadcast=BroadcastCache())
        with tracing() as tracer:
            assert transport.download(0, 1, state) is state
            assert transport.upload(0, 1, state) is state
        n = payload_nbytes(state)
        assert transport.ledger.round_bytes(0) == 2 * n
        assert transport.broadcast.misses == 0
        assert [(s.name, s.attrs["bytes"]) for s in tracer.spans] == [
            ("download", n), ("upload", n)]

    @pytest.mark.parametrize("name", ["fedavg", "spatl"])
    def test_traced_round_enters_no_codec(self, name, monkeypatch):
        from tests import matrix
        algo = matrix.algorithm(name)
        _codec_raises(monkeypatch)
        try:
            with tracing() as tracer:
                algo.run_round(0)
        finally:
            algo.close()
        spans = {s.name for s in tracer.spans}
        assert {"download", "upload"} <= spans
        assert not spans & {"serialize", "deserialize"}

    def test_untraced_transfer_only_sizes_and_charges(self, monkeypatch):
        """Off the traced path the codec is never entered: one
        ``payload_nbytes``, one ledger write."""
        _codec_raises(monkeypatch)
        state = _rand_state(12)
        transport = Transport(broadcast=BroadcastCache())
        assert transport.download(0, 1, state) is state
        transport.charge("up", 0, 1, state)
        n = payload_nbytes(state)
        assert transport.ledger.round_bytes(0) == 2 * n
        assert transport.broadcast.misses == 0

    def test_setup_charge_ignores_the_fault_model(self):
        """``charge`` is plain-size and fault-exempt (SalientGrads'
        bootstrap bytes do not depend on the fault configuration)."""
        state = _rand_state(12)
        transport = Transport(FaultModel(corrupt_prob=1.0, seed=3))
        for direction in ("up", "down"):
            transport.charge(direction, 0, 2, state)
        n = payload_nbytes(state)
        assert transport.ledger.uplink == transport.ledger.downlink \
            == {0: {2: n}}


# --------------------------------------------------------------------- #
# ledger invariance of the cached faulty transport                       #
# --------------------------------------------------------------------- #
class TestFaultyTransportBroadcast:
    STATE = {"w": np.arange(20, dtype=np.float32).reshape(4, 5),
             "b": np.ones(4, dtype=np.float64)}

    def _download_all(self, broadcast):
        transport = Transport(FaultModel(seed=0), broadcast=broadcast)
        transport.token = 1
        decoded = [transport.download(0, cid, self.STATE)
                   for cid in range(5)]
        return transport.ledger, decoded

    def test_cached_downlink_charges_every_client_full_bytes(self):
        plain_ledger, plain = self._download_all(None)
        cached_ledger, cached = self._download_all(BroadcastCache())
        assert plain_ledger.downlink == cached_ledger.downlink
        assert plain_ledger.round_bytes(0) \
            == 5 * payload_nbytes(self.STATE, checksums=True)
        for a, b in zip(plain, cached):
            assert set(a) == set(b)
            for k in a:
                np.testing.assert_array_equal(a[k], b[k], err_msg=k)

    def test_upload_never_goes_through_the_cache(self):
        cache = BroadcastCache()
        transport = Transport(FaultModel(seed=0), broadcast=cache)
        transport.token = 1
        transport.upload(0, 0, self.STATE)
        transport.upload(0, 1, {"w": np.zeros(3, dtype=np.float32)})
        assert cache.misses == 0 and cache.hits == 0

    def test_decoded_views_are_read_only(self):
        _, decoded = self._download_all(BroadcastCache())
        for out in decoded:
            for arr in out.values():
                assert not arr.flags.writeable
