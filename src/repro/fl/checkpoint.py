"""Checkpointing for long federated runs.

Paper-scale experiments run for hundreds of rounds; a crash should not
discard them.  A checkpoint is the two state descriptions the rest of the
system already uses, plus the run counters:

- **server state** is ``algo.worker_sync_state()`` — the flat array dict
  every algorithm already keeps complete for its worker replicas — and
  is restored through ``load_worker_sync_state`` in the saved key order,
  so a resumed run's sync blob is byte-identical to the uninterrupted
  run's;
- **client state** is each ``client.local_state`` through
  :func:`~repro.fl.scale.store.encode_client_state`, the lossless codec
  the spill store uses — predictors, control variates, quant/top-k
  residuals and RL agent state alike, with no per-type code here;
- the round counter, the communication ledger and the cumulative fault
  statistics ride in the manifest.

The asynchronous runtime (DESIGN.md §12) extends the same format:
``save_async_checkpoint`` additionally captures the virtual clock (time,
schedule counter, and the pending event heap), the in-flight job set —
each job still *pending* (it trains at its first delivery) with its
training round, and the server snapshots those jobs train against
(``snapshot.<step>.<key>``, listed in the manifest's ``snapshots``) —
every buffered update (losslessly re-encoded through the wire-layer
pytree codec), the commit buffer, the admission queue, the dedup
fingerprint registry, and the runner's counters — so a run interrupted
*mid-buffer* resumes to a bit-identical trajectory.  A save never
trains: a job still in flight at the end leaves the same client state in
a resumed run as in a straight one.

The format is a single ``.npz`` (arrays) plus a JSON manifest entry inside
it carrying a ``format`` number, so checkpoints need no pickling of code
objects; a file of another layout, without a manifest, or truncated is
rejected with one ``ValueError`` naming the file.  A file of the right
layout is checked whole — manifest fields, server arrays against the
algorithm, the downlink row table, every client blob — before anything
is restored, so a damaged or lying file is one ``ValueError`` naming the
file and the entry, and leaves the algorithm as it was.
"""

from __future__ import annotations

import json
import zipfile
import zlib
from collections import OrderedDict
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.fl.async_runtime import (AsyncFederatedRunner, StepResult,
                                    VirtualClock, _Job)
from repro.fl.base import FederatedAlgorithm
from repro.fl.comm import decode_update, encode_update
from repro.fl.resilience import FaultStats
from repro.fl.scale.store import decode_client_state, encode_client_state
from repro.fl.wire import _row_count

#: On-disk layout number, written into every manifest.  1 was the
#: prefix-flattened ``global.`` / ``c_global.`` / ``client.<id>.<key>.``
#: layout (no ``format`` entry); 2 is ``server.*`` + ``client.<id>`` blobs.
FORMAT = 2


# --------------------------------------------------------------------------
# Shared collect/apply: the algorithm-owned state (server state, clients,
# fault stats, ledger) is identical between the sync, async and scale
# checkpoints.
# --------------------------------------------------------------------------

def _collect_algo(algo: FederatedAlgorithm,
                  arrays: dict[str, np.ndarray],
                  include_clients: bool = True) -> dict:
    """Put the algorithm's resumable state into ``arrays``; return the
    manifest fragment describing it.

    ``include_clients=False`` skips per-client ``local_state`` — used by
    the population-scale runner (:mod:`repro.fl.scale`), whose client
    state lives in the spill-to-disk store and is checkpointed as a
    store manifest instead; walking 100k virtual clients here would
    materialize them all.
    """
    server = algo.worker_sync_state()
    for key, value in server.items():
        arrays[f"server.{key}"] = np.asarray(value)
    if include_clients:
        for client in algo.clients:
            arrays[f"client.{client.client_id}"] = np.frombuffer(
                encode_client_state(client.local_state), dtype=np.uint8)
    return {
        "format": FORMAT,
        "algorithm": algo.name,
        "rounds_completed": algo.rounds_completed,
        "n_clients": len(algo.clients),
        "includes_clients": include_clients,
        # npz members come back name-sorted; the sync blob's bytes depend
        # on dict order, so the order is part of the state.
        "server_keys": list(server),
        # cumulative fault-tolerance counters (resumed runs keep reporting
        # the drops/retries/corruptions that happened before the crash)
        "fault_stats": algo.fault_stats.as_dict(),
        "ledger": {
            "uplink": {str(r): {str(c): n for c, n in d.items()}
                       for r, d in algo.ledger.uplink.items()},
            "downlink": {str(r): {str(c): n for c, n in d.items()}
                         for r, d in algo.ledger.downlink.items()},
        },
    }


def _bad(path, entry: str, message: str) -> ValueError:
    """The one rejection: a ``ValueError`` naming the file and the entry."""
    return ValueError(f"{path}: {entry}: {message}")


def _field(path, manifest: dict, key: str, kind: type):
    """``manifest[key]``, which must be a ``kind`` (a bool is no int)."""
    if key not in manifest:
        raise _bad(path, key, "missing")
    value = manifest[key]
    if not isinstance(value, kind) or (kind is not bool
                                       and isinstance(value, bool)):
        raise _bad(path, key, f"expected {kind.__name__}, got "
                   f"{type(value).__name__}")
    return value


def _check_versions(path, algo: FederatedAlgorithm,
                    server: dict[str, np.ndarray]) -> None:
    """The downlink row table: ``dl.version`` a 0-d non-negative integer,
    ``dl.rows`` one integer per row of the downlink state, each a version
    in ``[0, dl.version]``."""
    present = [k for k in ("dl.version", "dl.rows") if k in server]
    if not present:
        return
    if len(present) == 1:
        raise _bad(path, f"server.{present[0]}",
                   "dl.version and dl.rows travel together")
    version, rows = server["dl.version"], server["dl.rows"]
    if version.ndim or version.dtype.kind not in "iu" or version < 0:
        raise _bad(path, "server.dl.version", "expected a 0-d non-negative "
                   f"integer, got {version.dtype}{list(version.shape)}")
    if rows.ndim != 1 or rows.dtype.kind not in "iu":
        raise _bad(path, "server.dl.rows", "expected a 1-d integer array, "
                   f"got {rows.dtype}{list(rows.shape)}")
    n_rows = sum(_row_count(np.asarray(v))
                 for v in algo.downlink_state().values())
    if rows.size != n_rows:
        raise _bad(path, "server.dl.rows", f"{rows.size} rows, the "
                   f"downlink state has {n_rows}")
    if rows.size and (rows.min() < 0 or rows.max() > version):
        raise _bad(path, "server.dl.rows", f"row versions span "
                   f"[{rows.min()}, {rows.max()}], outside [0, {version}]")


def _check_server(path, algo: FederatedAlgorithm,
                  found: dict[str, np.ndarray], prefix: str,
                  stored: set[str] | None = None) -> None:
    """``found`` holds every entry :meth:`FederatedAlgorithm.server_snapshot`
    holds, at its shape and dtype, and ``stored`` (default: the keys of
    ``found``) names nothing else but the downlink row table; a failure
    names the entry as ``prefix + key``."""
    held = algo.server_snapshot()
    for key, want in held.items():
        got = found.get(key)
        if got is None:
            raise _bad(path, f"{prefix}{key}", "missing")
        if (got.shape, got.dtype) != (want.shape, want.dtype):
            raise _bad(path, f"{prefix}{key}",
                       f"{got.dtype}{list(got.shape)}, the algorithm holds "
                       f"{want.dtype}{list(want.shape)}")
    stored = set(found) if stored is None else stored
    stray = sorted(stored - set(held) - {"dl.version", "dl.rows"})
    if stray:
        raise _bad(path, f"{prefix}{stray[0]}", "not server state of "
                   f"{type(algo).__name__}")


def _check_algo(path, algo: FederatedAlgorithm,
                arrays: dict[str, np.ndarray], manifest: dict) -> dict:
    """Everything :func:`_apply_algo` installs, parsed and checked against
    ``algo`` before anything is mutated: manifest fields and their types,
    every server entry (the model's and those ``algo.server_arrays()``
    declares, all present at the shapes and dtypes held, and nothing
    else but the downlink row table), the row table itself, the fault
    counters, the ledger and every client blob, decoded.  A failure is
    :func:`_bad`."""
    n_clients = _field(path, manifest, "n_clients", int)
    if n_clients != len(algo.clients):
        raise _bad(path, "n_clients", f"checkpoint has {n_clients} clients, "
                   f"algorithm has {len(algo.clients)}")
    rounds = _field(path, manifest, "rounds_completed", int)
    if rounds < 0:
        raise _bad(path, "rounds_completed", f"{rounds} < 0")
    keys = _field(path, manifest, "server_keys", list)
    if not all(isinstance(k, str) for k in keys) or len(set(keys)) < len(keys):
        raise _bad(path, "server_keys", "expected distinct entry names")
    server = {}
    for key in keys:
        value = arrays.get(f"server.{key}")
        if value is None or value.dtype.kind not in "biuf":
            raise _bad(path, f"server.{key}", "missing" if value is None
                       else f"unsupported dtype {value.dtype}")
        server[key] = value
    _check_server(path, algo, server, "server.",
                  set(keys) | {k[len("server."):] for k in arrays
                               if k.startswith("server.")})
    _check_versions(path, algo, server)
    counters = _field(path, manifest, "fault_stats", dict)
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in counters.values()):
        raise _bad(path, "fault_stats", "expected numeric counters")
    ledger = _field(path, manifest, "ledger", dict)
    try:
        ledger = {d: {int(r): {int(c): int(n) for c, n in per.items()}
                      for r, per in ledger[d].items()}
                  for d in ("uplink", "downlink")}
    except (AttributeError, KeyError, TypeError, ValueError) as err:
        raise _bad(path, "ledger", f"expected {{round: {{client: bytes}}}} "
                   f"per direction ({type(err).__name__}: {err})") from None
    clients = None
    if _field(path, manifest, "includes_clients", bool):
        clients = []
        for client in algo.clients:
            entry = f"client.{client.client_id}"
            blob = arrays.get(entry)
            if blob is None or blob.dtype != np.uint8 or blob.ndim != 1:
                raise _bad(path, entry, "missing, or not a 1-d uint8 blob")
            try:
                clients.append(decode_client_state(blob.tobytes()))
            except (KeyError, TypeError, ValueError) as err:
                raise _bad(path, entry, f"client state does not decode "
                           f"({err})") from None
    return {"server": server, "rounds": rounds,
            "fault_stats": FaultStats.from_dict(counters), "ledger": ledger,
            "clients": clients}


def _apply_algo(algo: FederatedAlgorithm, state: dict) -> None:
    """Install what :func:`_check_algo` parsed; nothing here can fail."""
    algo.load_worker_sync_state(state["server"])
    algo.transport.new_round()   # the global state moved
    # The loaded version table describes exactly this state: adopt it now,
    # so a commit that runs before the next download (an async upload, a
    # scale round resumed with nobody left to fold) is compared with it
    # and stamped like any other.
    algo.transport.versions.observe(algo.downlink_state())
    if state["clients"] is not None:
        for client, local_state in zip(algo.clients, state["clients"]):
            client.local_state = local_state
    algo.rounds_completed = state["rounds"]
    algo.fault_stats = state["fault_stats"]
    for direction in ("uplink", "downlink"):
        store = getattr(algo.ledger, direction)
        store.clear()
        store.update(state["ledger"][direction])


def _write(path: str | Path, arrays: dict[str, np.ndarray],
           manifest: dict) -> None:
    arrays["__manifest__"] = np.frombuffer(
        json.dumps(manifest).encode(), dtype=np.uint8)
    np.savez_compressed(Path(path), **arrays)


def _read(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Every array of a checkpoint plus its manifest.

    Anything that is not a complete format-:data:`FORMAT` checkpoint — a
    truncated or foreign file, a missing manifest, the pre-``format``
    layout — raises ``ValueError`` naming the file and what was found.
    A missing file stays ``FileNotFoundError``.
    """
    try:
        with np.load(Path(path)) as data:
            arrays = {key: data[key] for key in data.files}
    except (zipfile.BadZipFile, zlib.error, EOFError, KeyError,
            ValueError) as err:
        raise ValueError(f"{path}: not a readable format-{FORMAT} "
                         f"checkpoint ({type(err).__name__}: {err})") from err
    raw = arrays.pop("__manifest__", None)
    if raw is None:
        raise ValueError(f"{path}: no __manifest__ entry; expected a "
                         f"format-{FORMAT} checkpoint")
    try:
        manifest = json.loads(bytes(raw).decode())
    except ValueError as err:       # UnicodeDecodeError, JSONDecodeError
        raise _bad(path, "__manifest__", f"not UTF-8 JSON "
                   f"({type(err).__name__}: {err})") from None
    if not isinstance(manifest, dict):
        raise _bad(path, "__manifest__", "expected a JSON object, got "
                   f"{type(manifest).__name__}")
    found = manifest.get("format", 1)
    if found != FORMAT:
        raise ValueError(f"{path}: checkpoint format {found}, "
                         f"expected {FORMAT}")
    return arrays, manifest


# ------------------------------------------------------------- sync format

def save_checkpoint(algo: FederatedAlgorithm, path: str | Path) -> None:
    """Serialise a run's full state to ``path`` (.npz)."""
    arrays: dict[str, np.ndarray] = {}
    manifest = _collect_algo(algo, arrays)
    _write(path, arrays, manifest)


def load_checkpoint(algo: FederatedAlgorithm, path: str | Path) -> None:
    """Restore state saved by :func:`save_checkpoint` into ``algo``.

    ``algo`` must be constructed with the same model/clients topology.
    The whole file is checked first: a mismatch or a damaged entry is a
    ``ValueError`` naming the file and the entry, and leaves ``algo``
    untouched.
    """
    arrays, manifest = _read(path)
    _apply_algo(algo, _check_algo(path, algo, arrays, manifest))


# ------------------------------------------------------------ async format

def save_async_checkpoint(runner: AsyncFederatedRunner,
                          path: str | Path) -> None:
    """Snapshot an async run mid-flight: algorithm state plus the virtual
    clock, pending events, jobs (with buffered updates; pending jobs with
    the server snapshots they train against), buffer, queue, dedup
    registry, and counters."""
    algo = runner.algo
    arrays: dict[str, np.ndarray] = {}
    manifest = _collect_algo(algo, arrays)
    jobs_meta: dict[str, dict] = {}
    for jid, job in runner.jobs.items():
        jobs_meta[str(jid)] = {
            "client_id": job.client_id,
            "dispatch_step": job.dispatch_step,
            "dispatch_time": job.dispatch_time,
            "duration": job.duration,
            "crashed": job.crashed,
            "client_round": job.client_round,
            "pending": job.pending,
            "train_loss": job.train_loss,
            "fingerprint": job.fingerprint,
            "accepted": job.accepted,
            "has_update": job.update is not None,
        }
        if job.update is not None:
            arrays[f"job.{jid}.update"] = np.frombuffer(
                encode_update(job.update), dtype=np.uint8)
    for step, snapshot in runner.snapshots.items():
        for key, value in snapshot.items():
            arrays[f"snapshot.{step}.{key}"] = value
    stats = runner.stats.snapshot()
    manifest["async"] = {
        "clock": runner.clock.snapshot(),
        "server_step": runner.server_step,
        "commit_epoch": runner._commit_epoch,
        "next_job": runner._next_job,
        "started": runner._started,
        "stalled": runner.stalled,
        "client_jobs": {str(c): n for c, n in runner._client_jobs.items()},
        "inflight": sorted(runner.inflight),
        "queue": list(runner.queue),
        "buffer": list(runner.buffer),
        "fp_registry": [[cid, fp, jid]
                        for (cid, fp), jid in runner._fp_registry.items()],
        "dedup_evictions": runner.dedup_evictions,
        "counters": dict(runner.counters),
        "jobs": jobs_meta,
        "snapshots": {str(step): list(snapshot)
                      for step, snapshot in runner.snapshots.items()},
        "stats": stats["counters"],
        "stats_drops": stats["drops"],
        "stats_delivered": stats["delivered"],
        "step_results": [asdict(r) for r in runner.step_results],
        "profile": asdict(runner.profile),
        "config": asdict(runner.config),
    }
    _write(path, arrays, manifest)


def _snapshot(path, algo: FederatedAlgorithm, arrays: dict[str, np.ndarray],
              step: int, keys) -> dict[str, np.ndarray]:
    """The server snapshot of dispatch step ``step``: ``keys`` (in the
    saved order) read from ``snapshot.<step>.*``, checked against what
    ``algo.server_snapshot()`` holds."""
    prefix = f"snapshot.{step}."
    if not isinstance(keys, list) or not all(isinstance(k, str)
                                             for k in keys):
        raise _bad(path, f"async.snapshots.{step}", "expected entry names")
    for key in keys:
        if prefix + key not in arrays:
            raise _bad(path, prefix + key, "missing")
    snapshot = {key: arrays[prefix + key] for key in keys}
    _check_server(path, algo, snapshot, prefix,
                  set(keys) | {k[len(prefix):] for k in arrays
                               if k.startswith(prefix)})
    return snapshot


def _check_pending(path, jobs: dict[int, _Job], inflight: set[int],
                   snapshots: dict[int, dict], server_step: int) -> None:
    """Pending jobs are in flight, untrained and undelivered; a snapshot
    exists exactly for each step behind ``server_step`` that one of them
    was dispatched at."""
    pending = [job for job in jobs.values() if job.pending]
    for job in pending:
        if (job.job_id not in inflight or job.crashed
                or job.update is not None or job.fingerprint is not None
                or job.dispatch_step > server_step):
            raise _bad(path, f"async.jobs.{job.job_id}", "pending, but "
                       "not an untrained job in flight")
    behind = {job.dispatch_step for job in pending
              if job.dispatch_step < server_step}
    if set(snapshots) != behind:
        raise _bad(path, "async.snapshots", f"at steps {sorted(snapshots)}, "
                   f"pending jobs train against steps {sorted(behind)}")


def load_async_checkpoint(runner: AsyncFederatedRunner,
                          path: str | Path) -> None:
    """Restore a snapshot from :func:`save_async_checkpoint`.

    ``runner`` must be freshly constructed with the *same* profile and
    config the snapshot was taken under (both are validated — a resumed
    run with different knobs would silently diverge otherwise).  As with
    :func:`load_checkpoint`, the whole file is parsed before the runner or
    its algorithm is touched.
    """
    arrays, manifest = _read(path)
    state = manifest.get("async")
    if not isinstance(state, dict):
        raise _bad(path, "async", "not an async checkpoint (use "
                   "load_checkpoint)")
    for name, current in (("profile", asdict(runner.profile)),
                          ("config", asdict(runner.config))):
        if state.get(name) != json.loads(json.dumps(current)):
            raise _bad(path, f"async.{name}", "does not match the runner's: "
                       f"{state.get(name)} != {current}")
    algo_state = _check_algo(path, runner.algo, arrays, manifest)
    try:
        jobs = {}
        for jid_str, meta in state["jobs"].items():
            jid = int(jid_str)
            update = None
            if meta["has_update"]:
                entry = f"job.{jid}.update"
                if entry not in arrays:
                    raise KeyError(entry)
                update = decode_update(arrays[entry].tobytes())
            jobs[jid] = _Job(
                job_id=jid, client_id=int(meta["client_id"]),
                dispatch_step=int(meta["dispatch_step"]),
                dispatch_time=float(meta["dispatch_time"]),
                duration=float(meta["duration"]),
                crashed=bool(meta["crashed"]),
                client_round=int(meta["client_round"]),
                pending=bool(meta["pending"]), update=update,
                train_loss=float(meta["train_loss"]),
                fingerprint=meta["fingerprint"],
                accepted=bool(meta["accepted"]))
        snapshot_keys = {int(step): keys
                         for step, keys in state["snapshots"].items()}
        counters = {k: int(v) for k, v in state["counters"].items()}
        if set(counters) != set(runner.counters):
            raise ValueError(f"counters {sorted(counters)}, the runner "
                             f"keeps {sorted(runner.counters)}")
        server_step = int(state["server_step"])
        inflight = set(state["inflight"])
        restored = dict(
            clock=VirtualClock.restore(state["clock"]),
            server_step=server_step,
            _commit_epoch=int(state["commit_epoch"]),
            _next_job=int(state["next_job"]),
            _started=bool(state["started"]),
            stalled=bool(state["stalled"]),
            _client_jobs={int(c): int(n)
                          for c, n in state["client_jobs"].items()},
            inflight=inflight,
            queue=list(state["queue"]),
            buffer=list(state["buffer"]),
            _fp_registry=OrderedDict(((int(cid), int(fp)), int(jid))
                                     for cid, fp, jid in state["fp_registry"]),
            dedup_evictions=int(state.get("dedup_evictions", 0)),
            counters=counters,
            jobs=jobs,
            stats=FaultStats.restore({"counters": state["stats"],
                                      "drops": state["stats_drops"],
                                      "delivered": state["stats_delivered"]}),
            step_results=[StepResult(**r) for r in state["step_results"]])
    except (AttributeError, KeyError, TypeError, ValueError) as err:
        raise _bad(path, "async", f"{type(err).__name__}: {err}") from None
    restored["snapshots"] = {
        step: _snapshot(path, runner.algo, arrays, step, keys)
        for step, keys in snapshot_keys.items()}
    _check_pending(path, jobs, inflight, restored["snapshots"], server_step)
    _apply_algo(runner.algo, algo_state)
    for name, value in restored.items():
        setattr(runner, name, value)
