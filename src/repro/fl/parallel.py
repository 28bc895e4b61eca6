"""Pluggable round-execution engines: serial and process-parallel.

SPATL's round loop is embarrassingly parallel across clients — each
sampled client independently downloads the global state, trains locally,
and uploads its salient parameters — yet the original
``FederatedAlgorithm.run_round`` ran clients strictly
sequentially, capping round wall-time at one core.  This module supplies
the executor abstraction behind that loop (DESIGN.md §9):

- :class:`SerialExecutor` — the default; replicates the original
  in-process loop exactly (same objects, same call order, zero overhead);
- :class:`ProcessPoolRoundExecutor` — fans the per-client
  download → train → upload exchange over a ``ProcessPoolExecutor``
  whose workers persist for the executor's lifetime, each holding one
  algorithm replica (under ``fork``, one whose arrays are views of the
  memory the fork shares, not copies).

``make_executor(workers)`` picks between them: the worker count is the
only engine selector (DESIGN.md §14).

Parallel runs are **seed- and byte-identical** to serial runs because

1. every random draw is keyed by ``(seed, purpose, round, client, ...)``
   through ``SeedSequence`` trees, so draws are order-independent;
2. state crossing the process boundary goes through lossless codecs: the
   global sync state and the update objects through the wire codec's
   storage framing (:mod:`repro.fl.comm` — pure, so this plumbing
   charges nothing and emits no span; DESIGN.md §17),
   ``client.local_state`` through pickle — and the sync state is framed
   once per round by the server's :class:`~repro.fl.wire.BroadcastCache`
   into one file the pool owns, which each worker reads once when its
   task's sync version moves, not once per client;
3. the parent commits results — client ``local_state`` (all the
   per-client state there is), ledger traffic, fault stats, metrics,
   trace spans, and finally the
   update itself — in deterministic cohort order, regardless of which
   worker finished first.

A worker process that *dies* (segfault, OOM-kill) surfaces as
:class:`~repro.fl.resilience.WorkerCrashed`: it propagates when no fault
model is configured, otherwise the client is recorded as dropped and the
pool is rebuilt for the next collect.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

from repro.fl.comm import (CommLedger, decode_update, deserialize_state,
                           encode_update)
from repro.fl.resilience import ClientFailure, FaultStats, WorkerCrashed
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry
from repro.obs.trace import NullTracer, Tracer, get_tracer, set_tracer

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor


class RoundExecutor:
    """Strategy interface for gathering one round's client updates.

    ``collect`` receives the algorithm, the sampled cohort, and the
    round's fault bookkeeping, and must return ``(updates, losses)``
    exactly as the original sequential loop would have — including all
    side effects on client state, the ledger, metrics, and traces.
    """

    def collect(self, algorithm: Any, selected: Sequence[Any],
                round_idx: int, salt: int,
                stats: FaultStats) -> tuple[list[Any], list[float]]:
        """Run the cohort's exchanges; return surviving updates + losses."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any resources (worker pools). Idempotent no-op here."""


class SerialExecutor(RoundExecutor):
    """In-process executor: the original sequential loop, verbatim.

    This is the default and the fallback: no serialization, no extra
    processes, and — because it calls ``_client_exchange`` on the very
    same objects — guaranteed-identical behaviour to the pre-executor
    code path.  It is also the faster choice for small models, where
    process fan-out overhead (fork + state sync + update decode) exceeds
    per-client training time; see DESIGN.md §9 for guidance.
    """

    def collect(self, algorithm, selected, round_idx, salt, stats):
        """Exchange with each client in cohort order, in this process."""
        updates, losses = [], []
        for client in selected:
            try:
                update = algorithm._client_exchange(client, round_idx, salt,
                                                    stats)
            except ClientFailure as failure:
                stats.record_failure(failure)
                continue
            stats.record_delivery(client.client_id)
            updates.append(update)
            losses.append(algorithm.update_train_loss(update))
        return updates, losses


# ---------------------------------------------------------------- worker
# Module-level state installed once per worker process by the pool
# initializer, then reused across tasks: the unpickled algorithm replica,
# its clients by id, the pool's sync file and the version of the sync
# state last loaded from it.

_WORKER_ALGO: Any = None
_WORKER_CLIENTS: dict[int, Any] = {}
_WORKER_SYNC_PATH: str = ""
_WORKER_SYNC_VERSION: int = -1


def _pickle_algorithm(algorithm: Any, buffers: list | None = None) -> bytes:
    """Pickle an algorithm for worker replicas.

    ``model_fn`` is typically a closure (unpicklable) and the executor
    must not recurse into itself, so both are detached for the dump and
    restored after; workers never call either — models already exist on
    the replica and workers only run ``_client_exchange``.

    With a ``buffers`` list, every contiguous array travels out-of-band:
    protocol 5 appends a ``PickleBuffer`` over its memory to the list
    instead of copying its bytes into the blob, and loading with
    ``buffers=`` gives a replica whose arrays are views of that memory.
    """
    saved = {}
    try:
        for attr in ("model_fn", "executor"):
            saved[attr] = getattr(algorithm, attr)
            setattr(algorithm, attr, None)
        return pickle.dumps(algorithm, protocol=5, buffer_callback=(
            None if buffers is None else buffers.append))
    finally:
        for attr, value in saved.items():
            setattr(algorithm, attr, value)


def _worker_init(replica: list, sync_path: str) -> None:
    """Pool initializer: install the algorithm replica in this process.

    ``replica`` is ``[blob, buffers]`` from :func:`_pickle_algorithm`;
    ``buffers`` is ``None`` for an in-band blob.  ``sync_path`` is the
    file the parent rewrites with each collect's sync blob.
    """
    global _WORKER_ALGO, _WORKER_CLIENTS, _WORKER_SYNC_PATH
    global _WORKER_SYNC_VERSION
    blob, buffers = replica
    _WORKER_ALGO = pickle.loads(blob, buffers=buffers)
    _WORKER_CLIENTS = {c.client_id: c for c in _WORKER_ALGO.clients}
    _WORKER_SYNC_PATH = sync_path
    _WORKER_SYNC_VERSION = -1


@dataclass
class _ClientTask:
    """Everything a worker needs to run one client's exchange."""

    client_id: int
    round_idx: int
    salt: int
    sync_version: int        # bumped per collect; workers re-sync on change
    bcast_token: int         # server round token for the worker's own
                             # transport (its BroadcastCache key)
    local_state_blob: bytes  # pickled client.local_state
    traced: bool             # parent tracer enabled → record worker spans


@dataclass
class _ClientOutcome:
    """Everything the parent must commit, in cohort order."""

    client_id: int
    update_blob: bytes | None         # encode_update(update); None on failure
    failure: ClientFailure | None
    train_loss: float
    local_state_blob: bytes           # pickled post-exchange local_state
    stats: FaultStats                 # attempt-level counters from the worker
    ledger: CommLedger                # this task's traffic (merged by parent)
    metrics: MetricsRegistry          # this task's instruments (merged)
    trace_records: list = field(default_factory=list)


def _run_client_task(task: _ClientTask) -> _ClientOutcome:
    """Execute one client exchange inside a worker process.

    The worker re-points the replica's transport ledger, metrics and
    tracer at fresh per-task instances so nothing double-counts: the
    parent merges each outcome exactly once, in cohort order.  The sync
    file is read only when the task's version differs from the one last
    loaded, so the (large) global state deserializes once per worker per
    round, not once per client.
    """
    global _WORKER_SYNC_VERSION
    algo = _WORKER_ALGO
    tracer = Tracer() if task.traced else NullTracer()
    set_tracer(tracer)
    if task.sync_version != _WORKER_SYNC_VERSION:
        with open(_WORKER_SYNC_PATH, "rb") as f:
            algo.load_worker_sync_state(deserialize_state(f.read()))
        _WORKER_SYNC_VERSION = task.sync_version
    # Round token for this replica's transport: it frames the
    # (client-invariant) downlink once per round under this token
    # instead of once per client.
    algo.transport.token = task.bcast_token
    client = _WORKER_CLIENTS[task.client_id]
    client.local_state = pickle.loads(task.local_state_blob)

    ledger = algo.transport.ledger = CommLedger()
    registry = MetricsRegistry()
    set_registry(registry)

    stats = FaultStats()
    failure: ClientFailure | None = None
    update_blob: bytes | None = None
    train_loss = float("nan")
    try:
        update = algo._client_exchange(client, task.round_idx, task.salt,
                                       stats)
    except ClientFailure as err:
        failure = err
    else:
        train_loss = algo.update_train_loss(update)
        update_blob = encode_update(update)
    return _ClientOutcome(
        client_id=task.client_id,
        update_blob=update_blob,
        failure=failure,
        train_loss=train_loss,
        local_state_blob=pickle.dumps(client.local_state),
        stats=stats,
        ledger=ledger,
        metrics=registry,
        trace_records=tracer.records() if task.traced else [],
    )


# ---------------------------------------------------------------- parent
class ProcessPoolRoundExecutor(RoundExecutor):
    """Fan per-client exchanges over a pool of worker processes.

    The pool is built lazily on first ``collect`` for a given algorithm
    (each worker unpickles one algorithm replica in its initializer) and
    reused across rounds.  Per-round server state is framed once through
    the algorithm's :class:`~repro.fl.wire.BroadcastCache`
    (``encoded_sync_state``) and written to one file in a temporary
    directory the pool owns; a task carries only the collect's sync
    version, and a worker reads the file when that version differs from
    the one it last loaded, so client tasks stay small and a worker loads
    the blob at most once per round.  Results are committed strictly in
    cohort order — see the module docstring for the determinism argument.

    Workers are started with ``fork`` where available (the replica's
    arrays are the parent's memory, shared copy-on-write, see
    ``_ensure_pool``; fork is also required for algorithm classes defined
    in non-importable modules), else ``spawn``.
    """

    def __init__(self, workers: int):
        # Imported here, not at module scope: a serial run never loads
        # ``multiprocessing`` or ``concurrent.futures`` (~2 MB of RSS).
        import multiprocessing as mp

        if workers < 2:
            raise ValueError("ProcessPoolRoundExecutor needs >= 2 workers; "
                             "use SerialExecutor (or make_executor) instead")
        self.workers = workers
        self._mp_context = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else "spawn")
        self._pool: ProcessPoolExecutor | None = None
        # Strong reference, compared by identity: an id()-keyed check
        # could bind a stale pool to a new algorithm allocated at a
        # recycled address after the old one was collected.
        self._pool_algorithm: Any = None
        self._sync_dir: tempfile.TemporaryDirectory | None = None
        self._sync_version = 0

    def _ensure_pool(self, algorithm) -> ProcessPoolExecutor:
        """The live pool for ``algorithm``, (re)building if needed.

        The pool lives for the executor's lifetime (until ``close`` or
        rebinding to a different algorithm): worker PIDs are stable
        across rounds, so replica setup — unpickling the algorithm,
        building its models — is paid once, not per round.

        Under ``fork`` the replica's arrays travel out-of-band: the
        ``PickleBuffer`` list reaches the workers inside the inherited
        ``initargs``, so each replica array is a view of memory the fork
        already shares instead of a second copy.  The workers must map the
        bytes the dump saw, so they are forked right after it (a fork pool
        starts every worker at its first submit and never respawns one);
        then the parent empties ``replica``, the list CPython keeps in the
        pool's ``initargs`` for the pool's lifetime.  Under ``spawn`` the
        blob is in-band and stays, since workers start on demand.

        Each pool gets its own temporary directory; ``<dir>/sync`` is
        where :meth:`collect` puts the round's sync blob.
        """
        from concurrent.futures import ProcessPoolExecutor

        if self._pool is not None and self._pool_algorithm is algorithm:
            return self._pool
        self.close()
        fork = self._mp_context.get_start_method() == "fork"
        buffers = [] if fork else None
        replica = [_pickle_algorithm(algorithm, buffers), buffers]
        self._sync_dir = tempfile.TemporaryDirectory(prefix="repro-sync-")
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers, mp_context=self._mp_context,
            initializer=_worker_init,
            initargs=(replica, os.path.join(self._sync_dir.name, "sync")))
        self._pool_algorithm = algorithm
        if fork:
            self._pool.submit(os.getpid)     # forks every worker, now
            replica.clear()
        return self._pool

    def collect(self, algorithm, selected, round_idx, salt, stats):
        """Dispatch the cohort to workers; commit results in cohort order."""
        from concurrent.futures.process import BrokenProcessPool

        tracer = get_tracer()
        pool = self._ensure_pool(algorithm)
        self._sync_version += 1
        # Written beside its final name and renamed into place, so no
        # reader ever sees a partial file.
        sync_path = os.path.join(self._sync_dir.name, "sync")
        with open(sync_path + ".tmp", "wb") as f:
            f.write(algorithm.encoded_sync_state())
        os.replace(sync_path + ".tmp", sync_path)
        tasks = [
            _ClientTask(client_id=client.client_id, round_idx=round_idx,
                        salt=salt, sync_version=self._sync_version,
                        bcast_token=algorithm.transport.token,
                        local_state_blob=pickle.dumps(client.local_state),
                        traced=tracer.enabled)
            for client in selected
        ]
        futures = [pool.submit(_run_client_task, task) for task in tasks]

        updates: list[Any] = []
        losses: list[float] = []
        registry = get_registry()
        broken = False
        for client, future in zip(selected, futures):
            try:
                outcome = future.result()
            except BrokenProcessPool:
                broken = True
                crash = WorkerCrashed(client.client_id, round_idx,
                                      "executor worker process died")
                if algorithm.fault_model is None:
                    self.close()
                    raise crash from None
                stats.record_failure(crash)
                continue
            # Commit everything the exchange touched *before* looking at
            # success/failure: in serial execution a client that trained
            # but failed its upload still mutated its local state and
            # charged the ledger for every attempt.
            client.local_state = pickle.loads(outcome.local_state_blob)
            algorithm.ledger.merge(outcome.ledger)
            stats.merge(outcome.stats)
            registry.merge(outcome.metrics)
            if tracer.enabled and outcome.trace_records:
                tracer.absorb(outcome.trace_records, base_depth=tracer.depth)
            if outcome.failure is not None:
                stats.record_failure(outcome.failure)
                continue
            stats.record_delivery(client.client_id)
            # Aggregation only reads updates, so decode them as zero-copy
            # views over the update blob (kept alive by the views' buffer
            # references) instead of per-array copies.
            updates.append(decode_update(outcome.update_blob, copy=False))
            losses.append(outcome.train_loss)
        if broken:
            self.close()   # next collect rebuilds a healthy pool
        return updates, losses

    def close(self) -> None:
        """Shut the pool down (cancelling queued tasks), then remove its
        sync directory. Idempotent."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
            self._pool_algorithm = None
        if self._sync_dir is not None:
            self._sync_dir.cleanup()
            self._sync_dir = None


def make_executor(workers: int) -> RoundExecutor:
    """The round executor for ``workers`` (DESIGN.md §14's table, in code).

    ``workers == 1`` is the in-process :class:`SerialExecutor`; anything
    above is a :class:`ProcessPoolRoundExecutor` of that many workers.
    ``workers < 1`` is an error, not a silent serial run.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers == 1:
        return SerialExecutor()
    return ProcessPoolRoundExecutor(workers)
