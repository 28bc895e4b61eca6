"""Communication codec and byte-exact cost accounting.

The paper's communication-cost results (Tables I & II, Eq. 13:
``cost = sum over rounds of per-client payloads``) require counting what
actually crosses the network.  This module provides:

- a real binary wire format (``serialize_state``/``deserialize_state``) so
  tests can prove payloads round-trip losslessly;
- ``payload_nbytes`` — dense state-dict payload size, exactly the size of
  the serialised form;
- ``sparse_payload_nbytes`` — salient-selection payload size: selected
  values + int32 filter indices + per-entry headers (the paper's
  "parameter and corresponding parameter index ... negligible burdens");
- :class:`CommLedger` — per-round, per-direction ledger the server loop
  writes every transfer into;
- ``encode_update``/``decode_update`` — *worker payload framing*: a
  lossless pytree codec layered on the wire format, so the parallel
  execution engine (:mod:`repro.fl.parallel`) can ship arbitrary
  algorithm update objects (nested dicts/tuples of arrays and scalars)
  between processes through the very same serializer the simulated
  network uses.

Wire format (little-endian): ``[u32 n_entries]`` then per entry
``[u16 name_len][name utf-8][u8 dtype_code][u8 ndim][u32 dims...]
[raw array bytes]``.  With ``checksums=True`` each entry is followed by
``[u32 crc32]`` over the whole entry record (header + raw bytes), so
bit-flips anywhere in the entry — including its name and shape — are
*detected* at deserialisation instead of silently skewing aggregation.
The checksummed variant is what :class:`repro.fl.faults.FaultyTransport`
puts on the (simulated) wire; the plain variant stays byte-identical to
the original format so fault-free accounting is unchanged.

The codec core lives in :mod:`repro.fl.wire` (DESIGN.md §11): a
zero-copy single-buffer writer, a read-only-view decode mode, and the
per-round :class:`~repro.fl.wire.BroadcastCache`.  This module keeps the
public entry points — :func:`serialize_state` / :func:`deserialize_state`
wrap the wire core in the traced codec spans the observability layer
cross-checks against the ledger — plus the sizing helpers, the ledger,
and the pytree update framing.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Any

import numpy as np

from repro.fl.wire import (PayloadError, payload_nbytes,
                           sparse_payload_nbytes)
from repro.fl import wire
from repro.obs.trace import get_tracer

__all__ = ["PayloadError", "serialize_state", "deserialize_state",
           "payload_nbytes", "sparse_payload_nbytes", "encode_update",
           "decode_update", "CommLedger"]


def serialize_state(state: dict[str, np.ndarray],
                    checksums: bool = False) -> bytes:
    """Encode a flat state dict to bytes (deterministic, key-ordered).

    With ``checksums=True`` every entry record is followed by its CRC32,
    making corruption detectable by :func:`deserialize_state`.

    The encoding runs through the zero-copy single-buffer writer in
    :mod:`repro.fl.wire` — the wire size is computed up front and every
    header and array is written in place, so the payload is produced
    with one data pass instead of per-entry joins.  Entry names above
    65535 UTF-8 bytes or dimensions at or above ``2**32`` don't fit the
    headers and raise :class:`PayloadError` naming the entry.

    When tracing is enabled, the whole encode is wrapped in a
    ``serialize`` span whose ``bytes`` attribute is the exact wire size —
    the same number the :class:`CommLedger` records — so traces and the
    communication tables line up byte-for-byte.
    """
    with get_tracer().span("serialize", checksums=checksums) as span:
        blob = wire.serialize(state, checksums=checksums)
        span.set(bytes=len(blob), entries=len(state))
    return blob


def deserialize_state(payload: bytes, checksums: bool = False,
                      copy: bool = True) -> dict[str, np.ndarray]:
    """Decode bytes produced by :func:`serialize_state`.

    Every offset is validated against ``len(payload)`` before it is read,
    so truncated or bit-flipped payloads raise :class:`PayloadError`
    naming the entry and offset instead of a bare ``struct.error`` or a
    silent mis-slice.  With ``checksums=True`` each entry's CRC32 is
    verified as well.  Duplicate entry names are a structural fault too:
    a payload that names the same entry twice would silently let the last
    occurrence win, so it is rejected with :class:`PayloadError`.

    ``copy=False`` skips the per-entry copies and returns **read-only**
    views over ``payload`` (see :func:`repro.fl.wire.deserialize`) — the
    fast path for decode-then-read consumers such as aggregation.

    Like :func:`serialize_state`, the decode is wrapped in a traced
    ``deserialize`` span carrying the payload's byte count.
    """
    with get_tracer().span("deserialize", checksums=checksums,
                           bytes=memoryview(payload).nbytes) as span:
        out = wire.deserialize(payload, checksums=checksums, copy=copy)
        span.set(entries=len(out), zero_copy=not copy)
    return out


# --------------------------------------------------------------------------
# Worker payload framing: a pytree codec on top of the wire format.
#
# Algorithm update objects are nested Python structures (dicts of arrays,
# tuples of (indices, values), scalar step counts...).  The parallel
# execution engine needs to move them between processes *losslessly* and
# through the same serializer the simulated network uses, so traces and
# accounting exercise one code path.  The framing flattens the structure
# into (a) positional array entries and (b) a JSON manifest describing the
# tree, then hands both to :func:`serialize_state`.

_MANIFEST_KEY = "__pytree__"


def _flatten_node(node: Any, arrays: dict[str, np.ndarray]) -> Any:
    """Recursively convert ``node`` into a JSON-able manifest, moving every
    array (and numpy scalar) into ``arrays`` under a positional key."""
    if isinstance(node, np.ndarray):
        key = f"t{len(arrays)}"
        arrays[key] = node
        return {"k": "arr", "id": key}
    if isinstance(node, np.generic):          # numpy scalar: keep exact dtype
        key = f"t{len(arrays)}"
        arrays[key] = np.asarray(node)
        return {"k": "np", "id": key}
    if isinstance(node, dict):
        items = []
        for name, value in node.items():
            if not isinstance(name, str):
                raise TypeError(
                    f"update dict keys must be str, got {type(name).__name__}")
            items.append([name, _flatten_node(value, arrays)])
        return {"k": "dict", "items": items}
    if isinstance(node, tuple):
        return {"k": "tuple", "items": [_flatten_node(v, arrays) for v in node]}
    if isinstance(node, list):
        return {"k": "list", "items": [_flatten_node(v, arrays) for v in node]}
    if node is None or isinstance(node, (bool, int, float, str)):
        return {"k": "val", "v": node}
    raise TypeError(f"cannot frame update node of type {type(node).__name__}")


def _lookup_array(manifest: Any, arrays: dict[str, np.ndarray]) -> np.ndarray:
    """The array a manifest node points at; missing ids are a payload
    fault (inconsistent framing), not a caller bug, so raise
    :class:`PayloadError` instead of leaking ``KeyError``."""
    key = manifest.get("id")
    if key is None or key not in arrays:
        raise PayloadError(
            f"pytree manifest references missing array id {key!r}",
            entry=key if isinstance(key, str) else None)
    return arrays[key]


def _unflatten_node(manifest: Any, arrays: dict[str, np.ndarray]) -> Any:
    """Inverse of :func:`_flatten_node`."""
    kind = manifest["k"]
    if kind == "arr":
        return _lookup_array(manifest, arrays)
    if kind == "np":
        return _lookup_array(manifest, arrays)[()]
    if kind == "dict":
        return {name: _unflatten_node(v, arrays)
                for name, v in manifest["items"]}
    if kind == "tuple":
        return tuple(_unflatten_node(v, arrays) for v in manifest["items"])
    if kind == "list":
        return [_unflatten_node(v, arrays) for v in manifest["items"]]
    if kind == "val":
        return manifest["v"]
    raise PayloadError(f"unknown pytree node kind {kind!r}")


def encode_update(update: Any, checksums: bool = False) -> bytes:
    """Frame an arbitrary algorithm update object as wire bytes.

    Supports nested dicts (str keys), tuples, lists, numpy arrays and
    scalars, and the JSON-able primitives (``int``/``float``/``bool``/
    ``str``/``None``).  The encoding is lossless: python floats round-trip
    via JSON's shortest-repr, arrays via their raw bytes — so a decoded
    update aggregates byte-identically to the original.
    """
    arrays: dict[str, np.ndarray] = {}
    manifest = _flatten_node(update, arrays)
    raw = json.dumps(manifest, separators=(",", ":")).encode("utf-8")
    arrays[_MANIFEST_KEY] = np.frombuffer(raw, dtype=np.uint8)
    return serialize_state(arrays, checksums=checksums)


def decode_update(payload: bytes, checksums: bool = False,
                  copy: bool = True) -> Any:
    """Decode bytes produced by :func:`encode_update`.

    A manifest that references an array id absent from the payload is an
    inconsistent framing and raises :class:`PayloadError` (never a bare
    ``KeyError``).  ``copy=False`` decodes the arrays as read-only views
    over ``payload`` — safe for aggregate-then-discard consumers like the
    parallel engine's commit path, which only reads the update.
    """
    arrays = deserialize_state(payload, checksums=checksums, copy=copy)
    if _MANIFEST_KEY not in arrays:
        raise PayloadError("framed update lacks its pytree manifest",
                           entry=_MANIFEST_KEY)
    raw = bytes(arrays.pop(_MANIFEST_KEY))
    return _unflatten_node(json.loads(raw.decode("utf-8")), arrays)


class CommLedger:
    """Accumulates communicated bytes by round, client, and direction."""

    def __init__(self):
        self.uplink: dict[int, dict[int, int]] = defaultdict(dict)
        self.downlink: dict[int, dict[int, int]] = defaultdict(dict)

    def record_up(self, round_idx: int, client_id: int, nbytes: int) -> None:
        self.uplink[round_idx][client_id] = \
            self.uplink[round_idx].get(client_id, 0) + int(nbytes)

    def record_down(self, round_idx: int, client_id: int, nbytes: int) -> None:
        self.downlink[round_idx][client_id] = \
            self.downlink[round_idx].get(client_id, 0) + int(nbytes)

    def merge(self, other: "CommLedger") -> None:
        """Fold another ledger's traffic into this one.

        Used by the parallel execution engine: each worker charges a fresh
        per-task ledger, and the parent merges them in deterministic client
        order so parallel accounting equals serial accounting exactly.
        """
        for round_idx, per_client in other.uplink.items():
            for client_id, nbytes in per_client.items():
                self.record_up(round_idx, client_id, nbytes)
        for round_idx, per_client in other.downlink.items():
            for client_id, nbytes in per_client.items():
                self.record_down(round_idx, client_id, nbytes)

    def round_bytes(self, round_idx: int) -> int:
        up = sum(self.uplink.get(round_idx, {}).values())
        down = sum(self.downlink.get(round_idx, {}).values())
        return up + down

    def total_bytes(self, up_to_round: int | None = None) -> int:
        rounds = set(self.uplink) | set(self.downlink)
        if up_to_round is not None:
            rounds = {r for r in rounds if r <= up_to_round}
        return sum(self.round_bytes(r) for r in rounds)

    def total_gb(self, up_to_round: int | None = None) -> float:
        return self.total_bytes(up_to_round) / 2 ** 30

    def per_round_per_client_mb(self) -> float:
        """Mean per-client per-round payload (Tables' "Cost Round/Client")."""
        total, n = 0, 0
        for r in set(self.uplink) | set(self.downlink):
            clients = set(self.uplink.get(r, {})) | set(self.downlink.get(r, {}))
            for c in clients:
                total += self.uplink.get(r, {}).get(c, 0)
                total += self.downlink.get(r, {}).get(c, 0)
                n += 1
        return (total / n) / 2 ** 20 if n else 0.0
