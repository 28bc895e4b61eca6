"""Sharded spill-to-disk key-value store for virtual-client state.

``ClientStateStore`` keeps per-client state (predictor heads, SCAFFOLD
control variates, RL agent state) on disk so a 100k-client population
costs disk, not RAM.  Values are opaque byte blobs produced by the
lossless ``repro.fl.comm`` pytree codec; the in-memory footprint is one
index entry per *stored* key (clients that never wrote state never touch
the index).

Layout: ``shards`` append-only log files under ``root``.  Each record is
self-describing::

    [u32 key_len][key utf-8][u64 blob_len][blob]

A rewrite of an existing key appends a fresh record and marks the old
bytes dead; compaction rewrites a shard from its live index once dead
bytes dominate.  Reads go through ``os.pread`` so pickled replicas (e.g.
process-pool workers) can read concurrently without sharing file
offsets.  Replicas created via pickle are *frozen*: they read but never
write, so worker processes cannot corrupt the parent's logs.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import Any, Iterator

import numpy as np

from repro.fl.comm import decode_update, encode_update
from repro.obs.metrics import get_registry

_KEY_HDR = struct.Struct("<I")
_BLOB_HDR = struct.Struct("<Q")

# Threshold (bytes) below which compaction is never triggered; tiny logs
# are cheaper to leave fragmented than to rewrite.
_COMPACT_MIN_BYTES = 1 << 20

# Bytes per read when :meth:`ClientStateStore.holds` compares a record.
_COMPARE_CHUNK = 1 << 18

_CV_TAG = "__controlvariate__"


def encode_client_state(state: dict[str, Any]) -> bytes:
    """Encode a client ``local_state`` dict to bytes, losslessly.

    ``ControlVariate`` objects (SCAFFOLD / SPATL Eq. 9-11 state) are not
    a pytree leaf the comm codec knows, so they are converted to a
    tagged dict of their arrays and rebuilt on decode.
    """
    from repro.core.gradient_control import ControlVariate

    def convert(obj: Any) -> Any:
        if isinstance(obj, ControlVariate):
            return {_CV_TAG: dict(obj.values)}
        if isinstance(obj, dict):
            return {k: convert(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            converted = [convert(v) for v in obj]
            return tuple(converted) if isinstance(obj, tuple) else converted
        return obj

    return encode_update(convert(state))


def decode_client_state(blob: bytes) -> dict[str, Any]:
    """Inverse of :func:`encode_client_state` (always copies arrays)."""
    from repro.core.gradient_control import ControlVariate

    def restore(obj: Any) -> Any:
        if isinstance(obj, dict):
            if set(obj) == {_CV_TAG}:
                cv = ControlVariate({})
                cv.values = {k: np.array(v) for k, v in obj[_CV_TAG].items()}
                return cv
            return {k: restore(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            restored = [restore(v) for v in obj]
            return tuple(restored) if isinstance(obj, tuple) else restored
        return obj

    return restore(decode_update(blob))


class ClientStateStore:
    """Sharded append-log KV store with lazy reads and compaction."""

    def __init__(self, root: str | os.PathLike, shards: int = 4,
                 auto_compact: bool = True):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.root = os.fspath(root)
        self.shards = int(shards)
        self.auto_compact = bool(auto_compact)
        self.frozen = False
        os.makedirs(self.root, exist_ok=True)
        # key -> (shard_idx, blob_offset, blob_len)
        self._index: dict[str, tuple[int, int, int]] = {}
        self._files: list[Any] = []
        self._sizes: list[int] = []
        self._dead: list[int] = []
        for i in range(self.shards):
            f = open(self._shard_path(i), "a+b")
            self._files.append(f)
            self._sizes.append(os.fstat(f.fileno()).st_size)
            self._dead.append(0)
        if any(self._sizes):
            self._rebuild_index()

    # -- shard helpers ------------------------------------------------

    def _shard_path(self, idx: int) -> str:
        return os.path.join(self.root, f"shard_{idx:04d}.log")

    def _shard_of(self, key: str) -> int:
        return zlib.crc32(key.encode("utf-8")) % self.shards

    def _rebuild_index(self) -> None:
        """Replay every shard log; later records win.

        A record that runs past the end of its log is a ``put`` torn by a
        crash: the log is truncated back to the last complete record
        (as :meth:`attach` truncates to a manifest size), so a reopened
        store never serves a short blob.
        """
        self._index.clear()
        self._dead = [0] * self.shards
        for i, f in enumerate(self._files):
            f.flush()
            fd = f.fileno()
            size = self._sizes[i]
            off = 0
            while off < size:
                record = self._scan_record(fd, off, size)
                if record is None:
                    f.truncate(off)
                    self._sizes[i] = off
                    get_registry().counter("scale.store_torn_tails").inc()
                    break
                key, blob_off, blob_len = record
                prev = self._index.get(key)
                if prev is not None:
                    self._dead[prev[0]] += self._record_nbytes(key, prev[2])
                self._index[key] = (i, blob_off, blob_len)
                off = blob_off + blob_len

    @staticmethod
    def _scan_record(fd: int, off: int, size: int) -> tuple[str, int, int] | None:
        """``(key, blob_off, blob_len)`` of the record starting at ``off``,
        or ``None`` when any part of it lies beyond ``size``."""
        key_off = off + _KEY_HDR.size
        if key_off > size:
            return None
        (key_len,) = _KEY_HDR.unpack(os.pread(fd, _KEY_HDR.size, off))
        blob_off = key_off + key_len + _BLOB_HDR.size
        if blob_off > size:
            return None
        (blob_len,) = _BLOB_HDR.unpack(
            os.pread(fd, _BLOB_HDR.size, blob_off - _BLOB_HDR.size))
        if blob_off + blob_len > size:
            return None
        return os.pread(fd, key_len, key_off).decode("utf-8"), blob_off, blob_len

    @staticmethod
    def _record_nbytes(key: str, blob_len: int) -> int:
        return _KEY_HDR.size + len(key.encode("utf-8")) + _BLOB_HDR.size + blob_len

    # -- public API ---------------------------------------------------

    def put(self, key: str, blob: bytes) -> None:
        if self.frozen:
            raise RuntimeError("store replica is frozen (read-only)")
        i = self._shard_of(key)
        f = self._files[i]
        key_bytes = key.encode("utf-8")
        prev = self._index.get(key)
        if prev is not None:
            self._dead[prev[0]] += self._record_nbytes(key, prev[2])
        f.seek(0, os.SEEK_END)
        f.write(_KEY_HDR.pack(len(key_bytes)))
        f.write(key_bytes)
        f.write(_BLOB_HDR.pack(len(blob)))
        f.write(blob)
        f.flush()
        blob_off = self._sizes[i] + _KEY_HDR.size + len(key_bytes) + _BLOB_HDR.size
        self._index[key] = (i, blob_off, len(blob))
        self._sizes[i] = blob_off + len(blob)
        get_registry().counter("scale.store_puts").inc()
        if self.auto_compact:
            self._maybe_compact(i)

    def get(self, key: str) -> bytes | None:
        entry = self._index.get(key)
        if entry is None:
            return None
        i, blob_off, blob_len = entry
        if not self.frozen:
            self._files[i].flush()
        get_registry().counter("scale.store_gets").inc()
        return os.pread(self._files[i].fileno(), blob_len, blob_off)

    def holds(self, key: str, blob: bytes) -> bool:
        """Whether ``key``'s live record is ``blob``, byte for byte.

        Lengths first, then chunked reads that stop at the first chunk
        that differs, so a changed record usually costs one chunk.
        """
        entry = self._index.get(key)
        if entry is None or entry[2] != len(blob):
            return False
        i, blob_off, blob_len = entry
        if not self.frozen:
            self._files[i].flush()
        fd = self._files[i].fileno()
        view = memoryview(blob)
        for lo in range(0, blob_len, _COMPARE_CHUNK):
            chunk = view[lo:lo + _COMPARE_CHUNK]
            if os.pread(fd, len(chunk), blob_off + lo) != chunk:
                return False
        return True

    def delete(self, key: str, missing_ok: bool = True) -> None:
        if self.frozen:
            raise RuntimeError("store replica is frozen (read-only)")
        entry = self._index.pop(key, None)
        if entry is None:
            if missing_ok:
                return
            raise KeyError(key)
        self._dead[entry[0]] += self._record_nbytes(key, entry[2])
        if self.auto_compact:
            self._maybe_compact(entry[0])

    def __contains__(self, key: str) -> bool:
        return key in self._index

    def __len__(self) -> int:
        return len(self._index)

    def keys(self) -> Iterator[str]:
        return iter(self._index)

    @property
    def nbytes(self) -> int:
        """Total on-disk bytes across shards (live + dead)."""
        return sum(self._sizes)

    # -- compaction ---------------------------------------------------

    def _maybe_compact(self, shard_idx: int) -> None:
        dead = self._dead[shard_idx]
        live = self._sizes[shard_idx] - dead
        if dead > _COMPACT_MIN_BYTES and dead > live:
            self.compact(shard_idx)

    def compact(self, shard_idx: int | None = None) -> None:
        """Rewrite shard(s) keeping only live records."""
        if self.frozen:
            raise RuntimeError("store replica is frozen (read-only)")
        targets = range(self.shards) if shard_idx is None else [shard_idx]
        for i in targets:
            live = [(key, entry) for key, entry in self._index.items()
                    if entry[0] == i]
            old = self._files[i]
            old.flush()
            fd = old.fileno()
            tmp_path = self._shard_path(i) + ".compact"
            off = 0
            with open(tmp_path, "wb") as tmp:
                for key, (_, blob_off, blob_len) in live:
                    blob = os.pread(fd, blob_len, blob_off)
                    key_bytes = key.encode("utf-8")
                    tmp.write(_KEY_HDR.pack(len(key_bytes)))
                    tmp.write(key_bytes)
                    tmp.write(_BLOB_HDR.pack(blob_len))
                    tmp.write(blob)
                    new_blob_off = (off + _KEY_HDR.size + len(key_bytes)
                                    + _BLOB_HDR.size)
                    self._index[key] = (i, new_blob_off, blob_len)
                    off = new_blob_off + blob_len
            old.close()
            os.replace(tmp_path, self._shard_path(i))
            self._files[i] = open(self._shard_path(i), "a+b")
            self._sizes[i] = off
            self._dead[i] = 0
            get_registry().counter("scale.store_compactions").inc()

    # -- snapshot / restore -------------------------------------------

    def flush(self) -> None:
        for f in self._files:
            f.flush()

    def snapshot_manifest(self) -> dict[str, Any]:
        """Checkpointable description of the store's current contents.

        Restoring with :meth:`attach` truncates each shard log back to
        the recorded size, which discards any records appended after
        the snapshot — byte-identical resume.
        """
        self.flush()
        return {
            "shards": self.shards,
            "sizes": list(self._sizes),
            "index": {k: list(v) for k, v in self._index.items()},
        }

    @classmethod
    def attach(cls, root: str | os.PathLike,
               manifest: dict[str, Any]) -> "ClientStateStore":
        store = cls.__new__(cls)
        store.root = os.fspath(root)
        store.shards = int(manifest["shards"])
        store.auto_compact = True
        store.frozen = False
        store._files = []
        store._sizes = []
        store._dead = [0] * store.shards
        for i in range(store.shards):
            path = store._shard_path(i)
            size = int(manifest["sizes"][i])
            with open(path, "a+b"):
                pass
            os.truncate(path, size)
            store._files.append(open(path, "a+b"))
            store._sizes.append(size)
        store._index = {k: tuple(v) for k, v in manifest["index"].items()}
        return store

    # -- pickling (process-pool replicas) -----------------------------

    def __getstate__(self) -> dict[str, Any]:
        self.flush()
        return {
            "root": self.root,
            "shards": self.shards,
            "auto_compact": self.auto_compact,
            "sizes": list(self._sizes),
            "index": {k: v for k, v in self._index.items()},
        }

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.root = state["root"]
        self.shards = state["shards"]
        self.auto_compact = state["auto_compact"]
        self.frozen = True
        self._sizes = list(state["sizes"])
        self._dead = [0] * self.shards
        self._index = dict(state["index"])
        self._files = [open(self._shard_path(i), "rb")
                       for i in range(self.shards)]

    def close(self) -> None:
        for f in self._files:
            f.close()
