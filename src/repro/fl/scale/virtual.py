"""Virtual clients: a population addressed lazily through an LRU pool.

A :class:`VirtualClient` is a client-shaped proxy holding only its id;
attribute access materializes the real client through the pool's factory
(FedBB's many-clients-per-worker pattern — model/shard setup is paid per
*resident* client, not per population member).  The pool keeps at most
``resident_limit`` real clients in memory; evicted clients spill their
``local_state`` into a :class:`~repro.fl.scale.store.ClientStateStore`
and are rebuilt (factory + hydrate) on next touch.  A 100k-client
population therefore costs one index entry per client *with state* plus
a bounded working set — disk, not RAM.  The clients' samples are on
disk too: the pool binds its factory to the store root once, and
:class:`ShardedClientFactory` moves the population's dataset into one
file there, reading back one client's shard per materialization.

Factories are top-level picklable objects with ``bind(root)`` and
``__call__(cid) -> Client``, so an algorithm holding virtual clients
still rides through the process-pool executor: the pickled replica
carries the factory (a path, offsets and labels, never samples) and a
*frozen* store replica, and any state a worker mutates travels back
through the executor's ordinary local-state commit path, never through
the store.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.fl.comm import PayloadError
from repro.fl.scale.store import (ClientStateStore, decode_client_state,
                                  encode_client_state)
from repro.obs.metrics import get_registry

_PROXY_SLOTS = ("client_id", "_pool")


class VirtualClient:
    """Attribute-forwarding proxy for one population member."""

    __slots__ = _PROXY_SLOTS

    def __init__(self, client_id: int, pool: "VirtualClientPool"):
        object.__setattr__(self, "client_id", client_id)
        object.__setattr__(self, "_pool", pool)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._pool.materialize(self.client_id), name)

    def __setattr__(self, name: str, value: Any) -> None:
        if name in _PROXY_SLOTS:
            object.__setattr__(self, name, value)
        else:
            setattr(self._pool.materialize(self.client_id), name, value)

    def __repr__(self) -> str:
        return f"VirtualClient({self.client_id})"

    def __reduce__(self):
        # Re-proxy on unpickle — never drag the materialized client
        # (or, via default __getattr__ forwarding, its state) along.
        return (VirtualClient, (self.client_id, self._pool))


class VirtualClientPool:
    """LRU pool of materialized clients over a spill-to-disk store.

    ``factory`` is bound to the store's root here, once, and then called
    with a client id on every materialization.
    """

    def __init__(self, factory: Any, population: int,
                 store: ClientStateStore, resident_limit: int = 64):
        if population < 1:
            raise ValueError("population must be >= 1")
        if resident_limit < 1:
            raise ValueError("resident_limit must be >= 1")
        factory.bind(store.root)
        self.factory = factory
        self.population = int(population)
        self.store = store
        self.resident_limit = int(resident_limit)
        self._resident: OrderedDict[int, Any] = OrderedDict()

    def clients(self) -> list[VirtualClient]:
        """Proxy list for the whole population (no materialization)."""
        return [VirtualClient(cid, self) for cid in range(self.population)]

    @property
    def resident(self) -> int:
        return len(self._resident)

    def materialize(self, cid: int):
        """The real client for ``cid``, building + hydrating on miss."""
        real = self._resident.get(cid)
        if real is not None:
            self._resident.move_to_end(cid)
            return real
        real = self.factory(cid)
        blob = self.store.get(f"client/{cid}")
        if blob is not None:
            real.local_state = decode_client_state(blob)
        get_registry().counter("scale.materializations").inc()
        self._resident[cid] = real
        while len(self._resident) > self.resident_limit:
            old_cid, old = self._resident.popitem(last=False)
            self._spill(old_cid, old)
        return real

    def _spill(self, cid: int, real) -> None:
        get_registry().counter("scale.evictions").inc()
        if self.store.frozen:
            # Worker replica: mutated state travels back through the
            # executor's result pickles; the parent commits and evicts.
            return
        key = f"client/{cid}"
        # Stateless clients (nothing accumulated yet, nothing stored
        # before) keep the store index empty — O(stateful clients), not
        # O(population).
        if real.local_state or key in self.store:
            blob = encode_client_state(real.local_state)
            # A client that was only evaluated since its last spill keeps
            # its record: no append, no dead bytes to compact away.
            if not self.store.holds(key, blob):
                self.store.put(key, blob)

    def evict(self, cid: int) -> None:
        """Spill one client now (after its upload is folded)."""
        real = self._resident.pop(cid, None)
        if real is not None:
            self._spill(cid, real)

    def flush(self) -> None:
        """Spill every resident client (checkpoint barrier)."""
        while self._resident:
            cid, real = self._resident.popitem(last=False)
            self._spill(cid, real)

    def __getstate__(self) -> dict[str, Any]:
        # Worker replicas start with an empty cache over a frozen store
        # replica; materialized clients never cross process boundaries
        # through the pool (their local_state travels via the executor's
        # task pickles instead).
        return {"factory": self.factory, "population": self.population,
                "store": self.store, "resident_limit": self.resident_limit}

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.factory = state["factory"]
        self.population = state["population"]
        self.store = state["store"]
        self.resident_limit = state["resident_limit"]
        self._resident = OrderedDict()


SAMPLES_FILE = "client_samples.bin"


@dataclass
class ShardedClientFactory:
    """Picklable ``cid -> Client`` reproducing ``make_federated_clients``.

    Builds the *same* client (same shard split, same seeds, hence the
    same batch order and numerics) as
    :func:`repro.fl.client.make_federated_clients` would have placed at
    index ``cid`` — materialized lazily instead of eagerly.

    The samples live on disk, not in the process.  :meth:`bind` writes
    every client's ``x[parts[cid]]`` to :data:`SAMPLES_FILE` under the
    store root, keeps one offset per client and the labels, and drops
    the factory's reference to ``dataset``; a call reads one shard back
    with ``os.preadv``.  A pickled factory (a process-pool replica)
    carries the path, the offsets and the labels, never samples.
    """

    dataset: Any
    parts: list[np.ndarray]
    val_fraction: float = 0.2
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        self.population = len(self.parts)
        self.path: str | None = None

    def bind(self, root: str | os.PathLike) -> None:
        """Write the shards under ``root`` and let go of ``dataset``.

        One streaming pass, one shard in memory at a time.  A factory
        built again over the same root (a resumed process) writes the
        same bytes.
        """
        if self.path is not None:
            raise RuntimeError(f"factory is already bound to {self.path}")
        x, y = self.dataset.x, self.dataset.y
        offsets, labels = [0], []
        path = os.path.join(os.fspath(root), SAMPLES_FILE)
        with open(path, "wb") as f:
            for idx in self.parts:
                idx = np.asarray(idx, dtype=np.int64)
                f.write(x[idx])
                offsets.append(offsets[-1] + len(idx))
                labels.append(y[idx])
        self.row_shape, self.dtype = x.shape[1:], x.dtype
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.labels = np.concatenate(labels)
        self.path = path
        self.dataset = None

    def __call__(self, cid: int):
        from repro.data.datasets import ArrayDataset, train_val_split
        from repro.fl.client import Client
        if self.path is None:
            raise RuntimeError("ShardedClientFactory is unbound: a "
                               "VirtualClientPool binds it to its store root")
        lo, hi = int(self.offsets[cid]), int(self.offsets[cid + 1])
        x = np.empty((hi - lo, *self.row_shape), dtype=self.dtype)
        at = lo * x.itemsize * int(np.prod(self.row_shape))
        with open(self.path, "rb") as f:
            got = os.preadv(f.fileno(), [x], at)
        if got != x.nbytes:
            raise PayloadError(f"client {cid}: samples file {self.path} "
                               f"holds {got} of the shard's {x.nbytes} bytes",
                               offset=at + got)
        shard = ArrayDataset(x, self.labels[lo:hi])
        train, val = train_val_split(shard, self.val_fraction,
                                     seed=self.seed * 7919 + cid)
        return Client(client_id=cid, train_data=train, val_data=val,
                      batch_size=self.batch_size,
                      seed=self.seed * 104729 + cid)


@dataclass
class StubClientFactory:
    """Picklable ``cid -> StubClient`` for protocol tests and benches."""

    def bind(self, root: str | os.PathLike) -> None:
        """Stub clients carry no samples: nothing to write."""

    def __call__(self, cid: int):
        from repro.fl.stub import StubClient
        return StubClient(cid)
