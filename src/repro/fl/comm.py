"""Communication accounting: the codec's public names, ledger and transport.

The paper's communication-cost results (Tables I & II, Eq. 13:
``cost = sum over rounds of per-client payloads``) require counting what
actually crosses the network.  This module provides:

- :class:`Transport` — the simulated network, and the **only** code that
  charges the :class:`CommLedger`, opens ``serialize`` / ``deserialize``
  spans, or corrupts a payload (DESIGN.md §17).  Every driver (sync
  rounds, the async runtime, the population-scale runner, pool workers)
  sends through an algorithm's one transport.  It also owns the downlink
  version table (:class:`~repro.fl.wire.RowVersions`, DESIGN.md §5.1):
  the downlink is a row delta against the version a client last synced
  at — for a first contact, against the zeros the protocol starts both
  sides from — and the transport's round token is what says when to
  look at the server state again;
- :class:`CommLedger` — the per-round, per-direction ledger the
  transport writes every transfer into;
- ``serialize_state`` / ``deserialize_state`` — the public, span-free
  names of the wire codec in :mod:`repro.fl.wire` (DESIGN.md §11), so
  tests can prove payloads round-trip losslessly;
- ``payload_nbytes`` — dense state-dict payload size, exactly the size of
  the serialised form;
- ``sparse_payload_nbytes`` — salient-selection payload size: selected
  values + int32 filter indices + per-entry headers (the paper's
  "parameter and corresponding parameter index ... negligible burdens");
- ``encode_update`` / ``decode_update`` — *storage framing*: a lossless
  pytree codec layered on the wire format, used to move arbitrary
  algorithm update objects (nested dicts/tuples of arrays and scalars)
  between processes, into spill files, stores and checkpoints.  Storage
  framing is never traffic: it charges nothing and emits no span.

Wire format (little-endian): ``[u32 n_entries]`` then per entry
``[u16 name_len][name utf-8][u8 dtype_code][u8 ndim][u32 dims...]
[raw array bytes]``.  With ``checksums=True`` each entry is followed by
``[u32 crc32]`` over the whole entry record (header + raw bytes), so
bit-flips anywhere in the entry — including its name and shape — are
*detected* at deserialisation instead of silently skewing aggregation.
The checksummed variant is what a :class:`Transport` with a fault model
puts on the (simulated) wire; the plain variant is what a fault-free
transport charges for.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Any

import numpy as np

from repro.fl import wire
from repro.fl.resilience import TransferCorrupted
from repro.fl.wire import (BroadcastCache, PayloadError, RowVersions,
                           payload_nbytes, sparse_payload_nbytes)
from repro.obs.trace import get_tracer

__all__ = ["PayloadError", "serialize_state", "deserialize_state",
           "payload_nbytes", "sparse_payload_nbytes", "encode_update",
           "decode_update", "CommLedger", "Transport"]


def serialize_state(state: dict[str, np.ndarray],
                    checksums: bool = False) -> bytes:
    """Encode a flat state dict to bytes (deterministic, key-ordered).

    The public name of :func:`repro.fl.wire.serialize`.  With
    ``checksums=True`` every entry record is followed by its CRC32,
    making corruption detectable by :func:`deserialize_state`.  Entry
    names above 65535 UTF-8 bytes or dimensions at or above ``2**32``
    don't fit the headers and raise :class:`PayloadError` naming the
    entry.
    """
    return wire.serialize(state, checksums=checksums)


def deserialize_state(payload: bytes, checksums: bool = False,
                      copy: bool = True) -> dict[str, np.ndarray]:
    """Decode bytes produced by :func:`serialize_state`.

    The public name of :func:`repro.fl.wire.deserialize`: truncated,
    bit-flipped or duplicate-entry payloads raise :class:`PayloadError`
    naming the entry and offset, ``checksums=True`` verifies each
    entry's CRC32, and ``copy=False`` returns **read-only** views over
    ``payload`` instead of copies.
    """
    return wire.deserialize(payload, checksums=checksums, copy=copy)


# --------------------------------------------------------------------------
# Storage framing: a pytree codec on top of the wire format.
#
# Algorithm update objects are nested Python structures (dicts of arrays,
# tuples of (indices, values), scalar step counts...).  The parallel
# execution engine, the spill files and the checkpoints need to hold them
# *losslessly*.  The framing flattens the structure into (a) positional
# array entries and (b) a JSON manifest describing the tree, then hands
# both to :func:`serialize_state`.

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


_SPAN_NAME = {"down": "download", "up": "upload"}


class Transport:
    """The simulated network between the server and its clients.

    Three rules hold because this class is the only code that writes the
    ledger, opens codec spans or applies a fault model (DESIGN.md §17):

    - **charged where sent** — every transfer is charged to
      :attr:`ledger` at its wire size when it is sent, so corrupted and
      retried transfers cost real (simulated) bandwidth;
    - **traced where charged** — each transfer is one ``download`` /
      ``upload`` span carrying the charged ``bytes``, so span byte totals
      equal the ledger on every driver; a ``serialize`` / ``deserialize``
      span pair inside it appears only where the codec runs;
    - **storage framing is never traffic** — the codec underneath is
      pure, so spills, stores, checkpoints and pool plumbing charge
      nothing and emit no span.

    Without a fault model a transfer costs one :func:`payload_nbytes` and
    one ledger write, traced or not, and the receiver gets ``payload``
    itself.  With a fault model both directions go through the
    checksummed codec, the fault model may flip bits, and the receiving
    side runs the validating decoder — corruption is *detected*, surfacing
    as :class:`~repro.fl.resilience.TransferCorrupted`, never accepted
    silently; the receiver gets read-only views over the wire bytes.

    The downlink is a row delta against the version the client last
    synced at (:attr:`versions`, a :class:`~repro.fl.wire.RowVersions`;
    a client that never synced gets the full state minus the zero-born
    rows it already holds).  It is framed
    through ``broadcast`` (a :class:`~repro.fl.wire.BroadcastCache`,
    which serves a blob only to the base it was framed for) under the
    round :attr:`token`, which :meth:`new_round` moves — marking the version
    table stale with it — whenever server state may have changed; the
    encode is cached, the charge is not.  ``variant`` is the
    encoding-configuration identity (the quant config's key) folded into
    every cache key.  Uploads are per-client content and never go
    through the cache.
    """

    def __init__(self, fault_model=None,
                 broadcast: BroadcastCache | None = None, variant=None):
        self.ledger = CommLedger()
        self.fault_model = fault_model
        self.broadcast = broadcast
        self.variant = variant
        self.token = 0
        self.versions = RowVersions()

    def new_round(self) -> None:
        """Server state may have changed: stop serving the cached downlink
        and have the version table look at the state again."""
        self.token += 1
        self.versions.stale = True

    def download(self, round_idx: int, client_id: int,
                 payload: dict[str, np.ndarray], salt: int = 0,
                 attempt: int = 0, base: int | None = None
                 ) -> dict[str, np.ndarray]:
        """Send ``payload`` server → client; returns it as received.

        ``base`` is the version ``payload`` is a delta against: clients
        of one round at different bases are owed different payloads, so
        the broadcast cache compares it."""
        return self._transfer("down", round_idx, client_id, payload, salt,
                              attempt, self.fault_model, base)

    def upload(self, round_idx: int, client_id: int,
               payload: dict[str, np.ndarray], salt: int = 0,
               attempt: int = 0) -> dict[str, np.ndarray]:
        """Send ``payload`` client → server; returns it as received."""
        return self._transfer("up", round_idx, client_id, payload, salt,
                              attempt, self.fault_model)

    def charge(self, direction: str, round_idx: int, client_id: int,
               payload: dict[str, np.ndarray]) -> None:
        """Charge out-of-band setup traffic (``direction`` ``"up"`` /
        ``"down"``) at its plain wire size; the fault model does not
        apply to it."""
        self._transfer(direction, round_idx, client_id, payload, 0, 0, None)

    def _transfer(self, direction, round_idx, client_id, payload, salt,
                  attempt, fault_model, base=None):
        tracer = get_tracer()
        down = direction == "down"
        record = self.ledger.record_down if down else self.ledger.record_up
        with tracer.span(_SPAN_NAME[direction], round=round_idx,
                         client=client_id) as span:
            if fault_model is None:
                nbytes = payload_nbytes(payload)
                record(round_idx, client_id, nbytes)
                span.set(bytes=nbytes)
                return payload
            with tracer.span("serialize") as ser:
                if down and self.broadcast is not None:
                    misses = self.broadcast.misses
                    blob = self.broadcast.encode(
                        payload, token=self.token, channel="down",
                        checksums=True, variant=self.variant, base=base)
                    # the full length is reported either way: the network
                    # sent it, only the CPU encode was skipped
                    ser.set(cached=self.broadcast.misses == misses)
                else:
                    blob = wire.serialize(payload, checksums=True)
                ser.set(bytes=len(blob), entries=len(payload))
            record(round_idx, client_id, len(blob))
            span.set(bytes=len(blob))
            blob = fault_model.corrupt(blob, round_idx, client_id, salt,
                                       attempt, direction)
            with tracer.span("deserialize", bytes=len(blob),
                             zero_copy=True) as de:
                try:
                    received = wire.deserialize(blob, checksums=True,
                                                copy=False)
                except PayloadError as err:
                    raise TransferCorrupted(client_id, round_idx, direction,
                                            err) from err
                de.set(entries=len(received))
        return received
