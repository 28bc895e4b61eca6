"""Fast transport layer: zero-copy wire codec and broadcast caching.

SPATL's headline results are communication-cost reductions (Tables I &
II, Eq. 13), which makes the wire path a first-class subsystem of this
reproduction — and one that must cost CPU like a codec, not like the
model.  This module is the hot-path core behind :mod:`repro.fl.comm`
(DESIGN.md §11):

- **zero-copy writer** — :func:`payload_nbytes` computes the exact wire
  size up front, :func:`serialize_into` writes header and array bytes
  straight into one preallocated buffer with ``struct.pack_into`` and
  ``memoryview`` slice assignment (no per-entry ``b"".join`` copies);
  :func:`serialize` stages it through a persistent buffer and copies the
  blob out once, while :func:`serialize_scratch` hands out a view of its
  own staging buffer for encode-then-discard paths (benchmarks);
- **zero-copy reader** — :func:`deserialize` with ``copy=False``
  returns *read-only* ``np.frombuffer`` views over the payload instead
  of per-entry copies, for decode-then-aggregate and validate-only
  paths (the views keep the payload alive via the buffer protocol);
- :class:`BroadcastCache` — per-round memoisation of the server's
  client-invariant downlink encoding, keyed by a server-side round
  token with a CRC32 content fingerprint backstop, so the identical
  global state is framed once per round instead of once per client.
  The :class:`~repro.fl.comm.Transport` still charges every client the
  full downlink bytes — caching the *encoding* never changes the
  *accounting* (DESIGN.md §17);
- :class:`RowVersions` / :func:`apply_delta` — the versioned row-delta
  downlink (DESIGN.md §5.1): the server tracks, per axis-0 row of every
  downlink tensor, the version at which its bytes last changed, and a
  returning client is sent only the rows newer than the version it last
  synced at; a client that never synced is sent everything but the rows
  it is born holding (:func:`cold_cache`: the zero rows of the entries
  the protocol initialises to zero on both sides).

The codec is pure: nothing here charges a ledger or opens a span.  Bytes
become traffic only when a :class:`~repro.fl.comm.Transport` sends them,
so storage users of the same functions (spills, stores, checkpoints, pool
plumbing) are untraced by construction.

Wire format (little-endian): ``[u32 n_entries]`` then per entry
``[u16 name_len][name utf-8][u8 dtype_code][u8 ndim][u32 dims...]
[raw array bytes]``, each entry optionally followed by ``[u32 crc32]``
over the whole entry record.  The format is byte-identical to the
original join-based codec; only the way the bytes are produced changed.
Entry names above 65535 UTF-8 bytes and dimensions at or above ``2**32``
cannot be represented in the headers and raise :class:`PayloadError`
naming the entry instead of surfacing a raw ``struct.error``.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.obs.metrics import get_registry
from repro.tensor import workspace


class PayloadError(ValueError):
    """A wire payload failed structural validation or checksum.

    ``entry`` names the state-dict entry being decoded when the fault was
    found (``None`` while reading the global header) and ``offset`` is the
    byte offset at which decoding could not proceed.
    """

    def __init__(self, message: str, entry: str | None = None,
                 offset: int | None = None):
        detail = message
        if entry is not None:
            detail += f" (entry {entry!r})"
        if offset is not None:
            detail += f" (offset {offset})"
        super().__init__(detail)
        self.entry = entry
        self.offset = offset


_DTYPES = [np.dtype(np.float32), np.dtype(np.float64), np.dtype(np.int32),
           np.dtype(np.int64), np.dtype(np.uint8), np.dtype(bool),
           np.dtype(np.float16)]
_DTYPE_CODE = {dt: i for i, dt in enumerate(_DTYPES)}

# Header field capacities; exceeding them is a caller error surfaced as a
# typed PayloadError naming the entry, never a raw struct.error.
_MAX_NAME_BYTES = 0xFFFF          # u16 name length
_MAX_DIM = 0xFFFF_FFFF            # u32 per-dimension extent
_MAX_ENTRIES = 0xFFFF_FFFF        # u32 entry count


def _check_name_and_shape(name: str, shape: tuple[int, ...]) -> bytes:
    """Validate header-field capacities; return the encoded name."""
    raw_name = name.encode("utf-8")
    if len(raw_name) > _MAX_NAME_BYTES:
        raise PayloadError(
            f"entry name is {len(raw_name)} UTF-8 bytes, wire limit is "
            f"{_MAX_NAME_BYTES}", entry=name)
    for dim in shape:
        if dim > _MAX_DIM:
            raise PayloadError(
                f"dimension {dim} exceeds the u32 wire limit {_MAX_DIM}",
                entry=name)
    return raw_name


def _wire_array(name: str, value: Any) -> np.ndarray:
    """Coerce one state entry to the exact array that goes on the wire."""
    arr = np.ascontiguousarray(value)
    if np.ndim(value) == 0:
        # ascontiguousarray promotes 0-d to 1-d; undo it so the wire shape
        # (and payload_nbytes) match the caller's array exactly
        arr = arr.reshape(())
    if arr.dtype not in _DTYPE_CODE:
        raise TypeError(f"unsupported dtype {arr.dtype} for {name!r}")
    return arr


def payload_nbytes(state: dict[str, np.ndarray],
                   checksums: bool = False) -> int:
    """Exact wire size of a dense state dict (== len(serialize(state))).

    Validates the same header-capacity limits as the writer, so a state
    that sizes cleanly is guaranteed to serialize cleanly.
    """
    if len(state) > _MAX_ENTRIES:
        raise PayloadError(f"too many entries ({len(state)}) for the u32 "
                           "count header")
    total = 4
    per_entry = 4 if checksums else 0
    for name, value in state.items():
        arr = np.asarray(value)
        raw_name = _check_name_and_shape(name, arr.shape)
        total += 2 + len(raw_name) + 2 + 4 * arr.ndim + arr.nbytes + per_entry
    return total


def sparse_payload_nbytes(selected: dict[str, tuple[np.ndarray, np.ndarray]]) -> int:
    """Wire size of a salient payload: {layer: (int filter indices, values)}.

    Indices travel as int32 (one per selected filter); values as their own
    dtype.  Each layer contributes two entries (``<name>.idx``,
    ``<name>.val``) and the total equals ``payload_nbytes`` of the
    equivalent ``.idx``/``.val`` state dict exactly.
    """
    total = 4
    for name, (indices, values) in selected.items():
        indices = np.asarray(indices)
        values = np.asarray(values)
        _check_name_and_shape(name + ".idx", (indices.size,))
        _check_name_and_shape(name + ".val", values.shape)
        total += 2 + len((name + ".idx").encode("utf-8")) + 2 + 4 \
            + 4 * indices.size
        total += 2 + len((name + ".val").encode("utf-8")) + 2 \
            + 4 * values.ndim + values.nbytes
    return total


def serialize_into(state: dict[str, np.ndarray], out: Any,
                   checksums: bool = False) -> int:
    """Serialize ``state`` into the writable buffer ``out``; return the
    byte count written.

    ``out`` must expose a writable C-contiguous buffer (``bytearray``,
    ``memoryview``, uint8 ``ndarray``) of at least
    :func:`payload_nbytes` bytes.  Entries are written in dict order —
    headers via ``struct.pack_into``, array data via ``memoryview`` slice
    assignment directly from each array's own buffer — so the only data
    copy is the single write into ``out``.
    """
    mv = memoryview(out)
    if mv.format != "B":
        mv = mv.cast("B")
    if len(state) > _MAX_ENTRIES:
        raise PayloadError(f"too many entries ({len(state)}) for the u32 "
                           "count header")
    struct.pack_into("<I", mv, 0, len(state))
    off = 4
    for name, value in state.items():
        arr = _wire_array(name, value)
        raw_name = _check_name_and_shape(name, arr.shape)
        start = off
        struct.pack_into("<H", mv, off, len(raw_name))
        off += 2
        mv[off:off + len(raw_name)] = raw_name
        off += len(raw_name)
        struct.pack_into("<BB", mv, off, _DTYPE_CODE[arr.dtype], arr.ndim)
        off += 2
        if arr.ndim:
            struct.pack_into(f"<{arr.ndim}I", mv, off, *arr.shape)
            off += 4 * arr.ndim
        if arr.nbytes:
            mv[off:off + arr.nbytes] = memoryview(arr).cast("B")
            off += arr.nbytes
        if checksums:
            struct.pack_into("<I", mv, off, zlib.crc32(mv[start:off]))
            off += 4
    return off


# Staging buffers of serialize / serialize_scratch: grow-only, sized to
# powers of two, one per function so materialising a blob never clobbers
# a scratch view a caller is still consuming.  A shared cache, so
# ``workspace.shared_bytes()`` reports them and ``workspace.reset()``
# drops them.
_STAGE: dict[str, np.ndarray] = workspace.shared_cache("wire.stage")


def _staged(kind: str, state: dict[str, np.ndarray],
            checksums: bool) -> tuple[np.ndarray, int]:
    """Write ``state`` into the ``kind`` staging buffer; returns the
    buffer and the payload length.  Capacities are bucketed to powers of
    two, so payloads whose sizes drift round to round (salient
    selections) reallocate a buffer at most a logarithmic number of
    times."""
    n = payload_nbytes(state, checksums=checksums)
    buf = _STAGE.get(kind)
    if buf is None or buf.size < n:
        buf = _STAGE[kind] = np.empty(1 << max(6, (n - 1).bit_length()),
                                      np.uint8)
    serialize_into(state, buf, checksums=checksums)
    return buf, n


def serialize(state: dict[str, np.ndarray], checksums: bool = False) -> bytes:
    """Encode a flat state dict to bytes through the single-buffer writer.

    Producing an *immutable* blob costs one fresh allocation plus one
    copy no matter what, so the write is staged through a persistent
    buffer (warm pages, no zero-fill) and copied out once — large-state
    encodes are then bound by that single copy.  Paths that can consume
    a transient view should use :func:`serialize_scratch` and skip the
    copy entirely.
    """
    buf, n = _staged("serialize", state, checksums)
    return bytes(memoryview(buf)[:n])


def serialize_scratch(state: dict[str, np.ndarray],
                      checksums: bool = False) -> memoryview:
    """Serialize into a staging buffer; return a sized memoryview.

    The returned view is **transient scratch**: it stays valid only until
    the next ``serialize_scratch`` call, so it is for
    encode-then-consume-then-discard paths (benchmarks) — never for
    blobs that outlive the call.
    """
    buf, n = _staged("scratch", state, checksums)
    return memoryview(buf)[:n]


def deserialize(payload: Any, checksums: bool = False,
                copy: bool = True) -> dict[str, np.ndarray]:
    """Decode bytes produced by :func:`serialize` (any buffer object).

    Every offset is validated against the payload length before it is
    read, so truncated or bit-flipped payloads raise
    :class:`PayloadError` naming the entry and offset instead of a bare
    ``struct.error`` or a silent mis-slice; duplicate entry names are
    rejected too.  With ``checksums=True`` each entry's CRC32 is
    verified.

    ``copy=False`` returns **read-only** ``np.frombuffer`` views over
    ``payload`` instead of fresh arrays: zero data copies, with the
    payload kept alive by the views' buffer references.  Use it for
    decode-then-read paths (validation, aggregation inputs); callers
    that need to mutate the result must use ``copy=True`` (the default,
    byte-identical to the original decoder).
    """
    mv = memoryview(payload)
    if mv.format != "B":
        mv = mv.cast("B")
    total = mv.nbytes
    out: dict[str, np.ndarray] = {}
    off = 0

    def need(n: int, what: str, entry: str | None) -> None:
        if off + n > total:
            raise PayloadError(
                f"truncated payload: need {n} byte(s) for {what}, "
                f"have {total - off}", entry=entry, offset=off)

    need(4, "entry count", None)
    (n_entries,) = struct.unpack_from("<I", mv, off)
    off += 4
    for i in range(n_entries):
        entry_label = f"#{i}"
        record_start = off
        need(2, "name length", entry_label)
        (name_len,) = struct.unpack_from("<H", mv, off)
        off += 2
        need(name_len, "entry name", entry_label)
        try:
            name = bytes(mv[off:off + name_len]).decode("utf-8")
        except UnicodeDecodeError as err:
            raise PayloadError(f"undecodable entry name: {err}",
                               entry=entry_label, offset=off) from err
        off += name_len
        if name in out:
            raise PayloadError("duplicate entry name", entry=name,
                               offset=record_start)
        need(2, "dtype/ndim header", name)
        code, ndim = struct.unpack_from("<BB", mv, off)
        off += 2
        if code >= len(_DTYPES):
            raise PayloadError(f"unknown dtype code {code}", entry=name,
                               offset=off - 2)
        if ndim > 32:  # numpy's own dimensionality ceiling
            raise PayloadError(f"implausible ndim {ndim}", entry=name,
                               offset=off - 1)
        need(4 * ndim, "shape", name)
        shape = struct.unpack_from(f"<{ndim}I", mv, off)
        off += 4 * ndim
        dtype = _DTYPES[code]
        n_items = 1
        for dim in shape:
            n_items *= int(dim)
        nbytes = dtype.itemsize * n_items
        need(nbytes, f"array data ({nbytes} bytes)", name)
        arr = np.frombuffer(mv, dtype=dtype, count=n_items,
                            offset=off).reshape(shape)
        off += nbytes
        if checksums:
            need(4, "entry checksum", name)
            (stored,) = struct.unpack_from("<I", mv, off)
            computed = zlib.crc32(mv[record_start:off])
            off += 4
            if stored != computed:
                raise PayloadError(
                    f"checksum mismatch: stored {stored:#010x}, "
                    f"computed {computed:#010x}", entry=name,
                    offset=off - 4)
        if copy:
            arr = arr.copy()
        elif arr.flags.writeable:
            arr.flags.writeable = False
        out[name] = arr
    if off != total:
        raise PayloadError(
            f"{total - off} trailing byte(s) after final entry",
            offset=off)
    return out


def state_fingerprint(state: dict[str, np.ndarray]) -> int:
    """CRC32 content fingerprint over names, headers, and raw bytes.

    One allocation-free C pass per array — cheap relative to encoding,
    and exactly what :class:`BroadcastCache` needs to recognise that a
    state's content did not change across round tokens (e.g. after a
    skipped round)."""
    crc = 0
    for name, value in state.items():
        arr = _wire_array(name, value)
        crc = zlib.crc32(name.encode("utf-8"), crc)
        crc = zlib.crc32(repr((arr.dtype.str, arr.shape)).encode(), crc)
        if arr.nbytes:
            crc = zlib.crc32(memoryview(arr).cast("B"), crc)
    return crc


@dataclass
class _CacheEntry:
    token: Any
    fingerprint: int
    blob: bytes
    entries: int
    base: Any = None     # the downlink version the blob is a delta against


class BroadcastCache:
    """Per-round memoisation of client-invariant broadcast encodings.

    The server's downlink payload (and the parallel engine's worker sync
    state) is identical for every client of a round, yet the original
    pipeline re-framed it once per client.  ``encode`` caches the wire
    blob per ``channel`` under a server-supplied round ``token`` — the
    server bumps its token exactly when global state may have mutated
    (``Transport.new_round()``) — with a CRC32 content fingerprint as the
    cross-token key, so byte-identical states are recognised even after
    the token moves (content keying).

    Contract: within one token, content may depend on server state and
    on the ``base`` the payload was built for, and on nothing else.  The
    downlink is a delta against the version a client last synced at
    (:class:`RowVersions`), so two clients of one round may be owed
    different payloads; an entry remembers the ``base`` it was framed
    for and serves only that one, which makes a channel
    **client-invariant per base** (true for every built-in algorithm's
    downlink; sync states have no base).  A channel keeps its newest
    blob only — a cohort at one base shares it, another base re-frames —
    so the cache never holds one full-size blob per base.  Per-client
    payloads (uploads) must not go through the cache.

    Ledger invariance: the cache changes who pays the CPU for framing,
    never who pays the bytes — the :class:`~repro.fl.comm.Transport`
    keeps charging (and tracing) every client the full blob length.

    Instances are picklable but ship cold (the cached blob is dropped),
    so worker replicas re-encode once rather than inflating task pickles.

    A transport's cache holds at most two channels — ``"down"`` under a
    fault model and ``"sync"`` under a process pool — so the entry map
    needs no bound.
    """

    def __init__(self):
        self._entries: dict[tuple[str, bool, Any], _CacheEntry] = {}
        self.hits = 0           # token matched: no hash, no encode
        self.content_hits = 0   # token moved but fingerprint matched
        self.misses = 0         # fresh encode

    def __getstate__(self):
        return {}               # replicas start cold

    def __setstate__(self, state):
        self.__init__()

    def encode(self, state: dict[str, np.ndarray], *, token: Any,
               channel: str = "down", checksums: bool = False,
               variant: Any = None, base: Any = None) -> bytes:
        """The wire blob for ``state``, encoded at most once per content.

        ``base`` is the downlink version ``state`` is a delta against
        (``None``: the full state).  A hit is decided by key, token,
        base and entry count, never by content, so everything the
        content may depend on within a token is compared here.

        ``variant`` is an optional hashable encoding-configuration
        identity (e.g. :attr:`repro.fl.quant.QuantConfig.key`) that is
        part of the cache key alongside the channel: two configs never
        share an entry, so changing quantization knobs mid-run can at
        worst miss — it can never serve a blob framed under the old
        config, even when token and entry count happen to line up.
        """
        key = (channel, checksums, variant)
        entry = self._entries.get(key)
        if entry is not None and entry.token == token \
                and entry.base == base and entry.entries == len(state):
            self.hits += 1
            blob = entry.blob
        else:
            fingerprint = state_fingerprint(state)
            if entry is not None and entry.fingerprint == fingerprint:
                self.content_hits += 1
                entry.token = token
                entry.base = base
                blob = entry.blob
            else:
                self.misses += 1
                blob = serialize(state, checksums=checksums)
                self._entries[key] = _CacheEntry(token=token,
                                                 fingerprint=fingerprint,
                                                 blob=blob,
                                                 entries=len(state),
                                                 base=base)
        return blob


# --------------------------------------------------------------------------
# Versioned row-delta downlink (DESIGN.md §5.1).
#
# SPATL's Eq. 12 rewrites only the filters some upload covered, and Eq. 11
# moves ``c`` on those same rows, so most of a returning client's download
# would be rows it already holds bit-for-bit.  The server therefore tracks
# the version at which each axis-0 row last changed and sends a client
# only the rows newer than the version it last synced at.  A first contact
# is the same question with a different answer: what a never-synced client
# holds is what the protocol pins at t = 0 — SPATL's and SCAFFOLD's
# ``c⁰ = 0``, initialised by a joining client exactly as its own ``c_i``.

_SPARSE_SUFFIXES = (".idx", ".val")


def _row_count(arr: np.ndarray) -> int:
    """Axis-0 rows of a downlink tensor; a 0-d tensor is one row."""
    return arr.shape[0] if arr.ndim else 1


def _row_bytes(arr: np.ndarray) -> np.ndarray:
    """A non-empty C-contiguous ``arr`` as a ``(rows, bytes per row)``
    uint8 view: rows compare by their bytes, so ``-0.0`` differs from
    ``+0.0`` and a NaN equals itself."""
    return arr.reshape(_row_count(arr), -1).view(np.uint8)


def _rows_in(payload: dict[str, np.ndarray]) -> int:
    """Rows a delta payload carries: a ``.idx`` entry counts its indices
    (its ``.val`` twin nothing), a dense entry all its rows."""
    return sum(value.size if name.endswith(".idx") else _row_count(value)
               for name, value in payload.items()
               if not name.endswith(".val"))


def _frozen_copy(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr)
    out.flags.writeable = False
    return out


class RowVersions:
    """Which downlink rows changed when, and the delta a client is owed.

    ``version`` counts the observed changes of the downlink state;
    ``row_version[name][r]`` is the version at which row ``r`` (axis 0; a
    0-d tensor is one row) of tensor ``name`` last changed.  A client
    that last synced at version ``base`` holds every row with
    ``row_version <= base`` already, so :meth:`delta` sends the others
    and :func:`apply_delta` rebuilds the full state from them —
    losslessly, because :meth:`observe` calls a row changed iff its
    bytes changed.  A client that never synced (``base=None``) holds
    :func:`cold_cache`: zeros for the entries whose names start with one
    of :attr:`zero_born` (set once by the algorithm that owns the
    transport; empty: a first contact is sent the full state).

    One rule decides when the table looks at the state.  The owning
    :class:`~repro.fl.comm.Transport` sets :attr:`stale` whenever server
    state may have moved (``new_round()``, which every state-changing
    site calls); the next reader of the table — :meth:`payload` for a
    download, ``worker_sync_state()`` for a worker sync or a checkpoint —
    goes through :meth:`refresh`, which has :meth:`observe` compare the
    state against a private copy of the last observed one, once, and
    nobody compares again until the transport moves on.  No algorithm or
    fold reports what it wrote.

    Pool workers never compare: their replica is given the parent's
    table through :meth:`load` (it rides in ``worker_sync_state()``, and
    so in every checkpoint) and builds deltas from it as is.  A
    checkpoint load into the parent follows :meth:`load` with an
    :meth:`observe` of the state it just restored, so only a worker
    replica is ever without a copy to compare with.
    """

    def __init__(self):
        self.version = 0
        self.row_version: dict[str, np.ndarray] = {}
        self.stale = True
        # name prefixes of the entries both sides initialise to zero
        self.zero_born: tuple[str, ...] = ()
        # the last observed state (read-only private copies): what the
        # next observation is compared with and what payloads are built
        # from, so a payload costs no state copy of its own
        self._seen: dict[str, np.ndarray] | None = None
        # (base, payload, rows in it) of the last build under the current
        # observation: a sync cohort shares one base and a retry follows
        # its failed attempt; bases in scale/async rarely repeat
        self._memo: tuple[Any, dict[str, np.ndarray], int] | None = None

    @property
    def rows_total(self) -> int:
        return sum(rv.size for rv in self.row_version.values())

    # ---------------------------------------------------------- observing
    def observe(self, state: dict[str, np.ndarray]) -> None:
        """Bring the table up to date with ``state``.

        With no copy to compare with — a new table, or one :meth:`load`
        just installed next to the state it was saved with — ``state``
        is adopted as the one the table describes.  Otherwise
        :attr:`version` is bumped iff some row's bytes changed, and
        exactly those rows are stamped with it.  The state's
        layout (names, order, shapes, dtypes) is fixed from the first
        observation on, and no name may end in ``.idx`` / ``.val``, the
        suffixes a delta's row entries travel under.
        """
        arrays = {name: _wire_array(name, value)
                  for name, value in state.items()}
        self._memo = None    # before any copy: it may hold the last one's rows
        if self._seen is None:
            for name in arrays:
                if name.endswith(_SPARSE_SUFFIXES):
                    raise ValueError(
                        f"downlink entry {name!r} ends in a suffix reserved "
                        "for row-delta entries (.idx / .val)")
            if not self.row_version:
                self.row_version = {
                    name: np.zeros(_row_count(arr), dtype=np.int32)
                    for name, arr in arrays.items()}
            self._check_layout(
                {name: _row_count(arr) for name, arr in arrays.items()},
                {name: rv.size for name, rv in self.row_version.items()})
            self._seen = {name: _frozen_copy(arr)
                          for name, arr in arrays.items()}
        else:
            self._check_layout(
                {name: (arr.shape, arr.dtype) for name, arr in arrays.items()},
                {name: (arr.shape, arr.dtype)
                 for name, arr in self._seen.items()})
            changed = {}
            for name, arr in arrays.items():
                if arr.size:
                    rows = (_row_bytes(arr)
                            != _row_bytes(self._seen[name])).any(axis=1)
                    if rows.any():
                        changed[name] = rows
            if changed:
                self.version += 1
                for name, rows in changed.items():
                    self.row_version[name][rows] = self.version
                    # replaced, not overwritten: payloads built from the
                    # old copy stay what they were when sent
                    self._seen[name] = _frozen_copy(arrays[name])
        self.stale = False

    @staticmethod
    def _check_layout(found: dict, known: dict) -> None:
        """``found`` / ``known``: per-entry layout descriptors, in order."""
        if list(found) != list(known):
            raise ValueError("downlink state entries changed between "
                             f"observations: {sorted(set(found) ^ set(known))}")
        for name, layout in found.items():
            if layout != known[name]:
                raise ValueError(f"downlink entry {name!r} changed layout: "
                                 f"{layout} after {known[name]}")

    # ------------------------------------------------------------- deltas
    def _owed(self, name: str, value: np.ndarray,
              base: int | None) -> np.ndarray | None:
        """The rows of entry ``name`` a client at ``base`` does not hold,
        as a mask (``None``: it holds nothing of the entry).

        A returning client lacks the rows stamped after its base.  A
        client that never synced holds what the protocol pins at
        ``t = 0`` and nothing else: all-zero rows of a :attr:`zero_born`
        entry.  That is decided by content — a row is held iff every one
        of its bytes is zero, so ``-0.0`` is sent — which needs no table
        and reads the same on a worker replica and after any restart.
        """
        if base is not None:
            return self.row_version[name] > base
        if not name.startswith(self.zero_born):
            return None
        arr = _wire_array(name, value)
        if not arr.size:
            return np.zeros(_row_count(arr), dtype=bool)
        return _row_bytes(arr).any(axis=1)

    def delta(self, state: dict[str, np.ndarray],
              base: int | None) -> dict[str, np.ndarray]:
        """What a client synced at ``base`` (``None``: never) needs to
        hold ``state``.

        In state order: nothing for a tensor of which the client lacks
        no row (:meth:`_owed`); the tensor itself when it lacks every
        row; otherwise ``name.idx`` (int32 rows) + ``name.val`` (those
        rows) iff that is strictly smaller on the wire, else the tensor.
        A payload is therefore never larger than the full state, and a
        first contact costs the full state minus the zeros both sides
        start from (:func:`cold_cache`).
        """
        if base is not None and base > self.version:
            raise ValueError(f"client synced at version {base}, server is "
                             f"at {self.version}: not this run's client")
        out: dict[str, np.ndarray] = {}
        for name, value in state.items():
            owed = self._owed(name, value, base)
            if owed is not None and not owed.any():
                continue
            if owed is not None and not owed.all():
                idx = np.flatnonzero(owed).astype(np.int32)
                rows = {name + ".idx": idx,
                        name + ".val": np.asarray(value)[idx]}
                if payload_nbytes(rows) < payload_nbytes({name: value}):
                    out.update(rows)
                    continue
            out[name] = value
        return out

    def refresh(self, get_state: Callable[[], dict[str, np.ndarray]]
                ) -> None:
        """:meth:`observe` ``get_state()`` iff the transport moved on
        since the last observation; every reader of the table calls
        this first."""
        if self.stale:
            self.observe(get_state())

    def payload(self, get_state: Callable[[], dict[str, np.ndarray]],
                base: int | None) -> dict[str, np.ndarray]:
        """The downlink payload for a client synced at ``base``.

        ``get_state`` builds the algorithm's full downlink state; it is
        called only to :meth:`refresh` (once per staleness) and on a
        worker replica, which holds no copy to build from.  The last
        payload built is kept until the next observation or another
        base asks, so a cohort at one base shares one build and a retry
        re-sends the very dict that failed.
        """
        self.refresh(get_state)
        if self._memo is None or self._memo[0] != base:
            self._memo = None     # one payload's rows alive at a time
            source = self._seen if self._seen is not None else get_state()
            built = self.delta(source, base)
            self._memo = (base, built, _rows_in(built))
        _, built, rows_sent = self._memo
        metrics = get_registry()
        metrics.counter("downlink.cold_sends" if base is None
                        else "downlink.delta_sends").inc()
        rows_total = self.rows_total
        metrics.counter("downlink.rows_sent").inc(rows_sent)
        metrics.counter("downlink.rows_total").inc(rows_total)
        if base is None:
            # rows a first contact was not sent: it is born holding them
            metrics.counter("downlink.rows_known").inc(rows_total - rows_sent)
        return built

    # ------------------------------------------------ sync / checkpoints
    def sync_state(self) -> dict[str, np.ndarray]:
        """The table as two arrays (row versions concatenated in state
        order), for ``worker_sync_state()``."""
        rows = list(self.row_version.values())
        return {"version": np.asarray(self.version, dtype=np.int64),
                "rows": np.concatenate(rows) if rows
                else np.zeros(0, dtype=np.int32)}

    def load(self, version, rows: np.ndarray,
             layout: dict[str, np.ndarray]) -> None:
        """Install a :meth:`sync_state`, split by the entries of
        ``layout`` (any full downlink state; only its row counts are
        read).  The table is current for the state it was saved with and
        there is no copy of that state here: a worker replica stays that
        way and never compares; a checkpoint load passes the restored
        state to :meth:`observe` next, before anything can change it."""
        counts = [_row_count(np.asarray(v)) for v in layout.values()]
        if sum(counts) != rows.size:
            raise ValueError(f"downlink row table has {rows.size} rows, "
                             f"the downlink state has {sum(counts)}")
        self.version = int(version)
        bounds = np.cumsum([0] + counts)
        self.row_version = {
            name: np.array(rows[lo:hi], dtype=np.int32)
            for name, lo, hi in zip(layout, bounds[:-1], bounds[1:])}
        self.stale = False
        self._seen = None
        self._memo = None


def cold_cache(layout: dict[str, np.ndarray],
               zero_born: tuple[str, ...]) -> dict[str, np.ndarray]:
    """What a client holds before its first download: zeros for the
    ``zero_born`` entries of ``layout`` (any full downlink state; only
    names, shapes and dtypes are read), nothing for the others.
    ``apply_delta(cold_cache(...), payload)`` of a ``base=None`` payload
    is the server's state, bit for bit."""
    return {name: np.zeros(np.shape(value), dtype=np.asarray(value).dtype)
            for name, value in layout.items() if name.startswith(zero_born)}


def _check_row_delta(name: str, held: np.ndarray | None, idx: np.ndarray,
                     val: np.ndarray | None) -> None:
    """Refuse a ``name.idx`` / ``name.val`` pair that :meth:`RowVersions.
    delta` could not have built against ``held``."""
    if val is None:
        raise PayloadError("row indices without their values",
                           entry=name + ".idx")
    if held is None:
        raise PayloadError("row delta for an entry the client does not hold",
                           entry=name)
    if idx.dtype != np.int32 or idx.ndim != 1:
        raise PayloadError(f"row indices must be 1-d int32, got "
                           f"{idx.ndim}-d {idx.dtype}", entry=name + ".idx")
    if held.ndim == 0:
        raise PayloadError("row delta for a 0-d entry", entry=name)
    rows = held.shape[0]
    if idx.size and (idx[0] < 0 or idx[-1] >= rows
                     or (np.diff(idx) <= 0).any()):
        raise PayloadError(f"row indices must be strictly increasing within "
                           f"[0, {rows})", entry=name + ".idx")
    if val.dtype != held.dtype or val.shape != (idx.size,) + held.shape[1:]:
        raise PayloadError(
            f"row values are {val.dtype}{list(val.shape)}, the indices and "
            f"the held entry call for "
            f"{held.dtype}{[idx.size, *held.shape[1:]]}", entry=name + ".val")


def apply_delta(cache: dict[str, np.ndarray],
                payload: dict[str, np.ndarray]) -> None:
    """The client half of :meth:`RowVersions.delta`: bring ``cache`` (the
    downlink state as last synced; :func:`cold_cache` for a client that
    never did) up to date in place — rows scattered, dense entries
    replaced by copies, absent entries kept.

    ``payload`` comes off the network, so it is checked against what the
    cache holds before anything is written: a payload the builder could
    not have produced for this cache raises :class:`PayloadError` naming
    the entry and leaves the cache as it was.
    """
    for name, value in payload.items():
        target = name[:-len(".idx")]       # both suffixes are 4 characters
        if name.endswith(".idx"):
            _check_row_delta(target, cache.get(target), np.asarray(value),
                             payload.get(target + ".val"))
        elif name.endswith(".val"):
            if target + ".idx" not in payload:
                raise PayloadError("row values without their indices",
                                   entry=name)
        elif name in cache:
            held, got = cache[name], np.asarray(value)
            if got.shape != held.shape or got.dtype != held.dtype:
                raise PayloadError(
                    f"entry is {got.dtype}{list(got.shape)}, the client "
                    f"holds {held.dtype}{list(held.shape)}", entry=name)
    for name, value in payload.items():
        target = name[:-len(".idx")]
        if name.endswith(".idx"):
            cache[target][value] = payload[target + ".val"]
        elif not name.endswith(".val"):
            cache[name] = np.array(value)
