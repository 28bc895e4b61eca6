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
schedule counter, and the pending event heap), the in-flight job set with
each undelivered update (losslessly re-encoded through the wire-layer
pytree codec), the commit buffer, the admission queue, the dedup
fingerprint registry, and the runner's counters — so a run interrupted
*mid-buffer* resumes to a bit-identical trajectory.

The format is a single ``.npz`` (arrays) plus a JSON manifest entry inside
it carrying a ``format`` number, so checkpoints need no pickling of code
objects; a file of another layout, without a manifest, or truncated is
rejected with one ``ValueError`` naming the file.
"""

from __future__ import annotations

import json
import zipfile
import zlib
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.fl.async_runtime import (AsyncFederatedRunner, StepResult,
                                    VirtualClock, _Job)
from repro.fl.base import FederatedAlgorithm
from repro.fl.comm import decode_update, encode_update
from repro.fl.resilience import FaultStats
from repro.fl.scale.store import decode_client_state, encode_client_state

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


def _apply_algo(algo: FederatedAlgorithm, arrays: dict[str, np.ndarray],
                manifest: dict) -> None:
    """Restore the algorithm-owned state collected by :func:`_collect_algo`."""
    if manifest["n_clients"] != len(algo.clients):
        raise ValueError(
            f"checkpoint has {manifest['n_clients']} clients, "
            f"algorithm has {len(algo.clients)}")
    algo.load_worker_sync_state(
        {key: arrays[f"server.{key}"] for key in manifest["server_keys"]})
    algo.transport.new_round()   # the global state moved
    # The loaded version table describes exactly this state: adopt it now,
    # so a commit that runs before the next download (an async upload, a
    # scale round resumed with nobody left to fold) is compared with it
    # and stamped like any other.
    algo.transport.versions.observe(algo.downlink_state())
    if manifest["includes_clients"]:
        for client in algo.clients:
            client.local_state = decode_client_state(
                arrays[f"client.{client.client_id}"].tobytes())
    algo.rounds_completed = manifest["rounds_completed"]
    algo.fault_stats = FaultStats.from_dict(manifest["fault_stats"])
    algo.ledger.uplink.clear()
    algo.ledger.downlink.clear()
    for direction in ("uplink", "downlink"):
        store = getattr(algo.ledger, direction)
        for r, per_client in manifest["ledger"][direction].items():
            store[int(r)] = {int(c): int(n) for c, n in per_client.items()}


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
    manifest = json.loads(bytes(raw).decode())
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

    ``algo`` must be constructed with the same model/clients topology;
    mismatches raise ``KeyError``/``ValueError``.
    """
    _apply_algo(algo, *_read(path))


# ------------------------------------------------------------ async format

def save_async_checkpoint(runner: AsyncFederatedRunner,
                          path: str | Path) -> None:
    """Snapshot an async run mid-flight: algorithm state plus the virtual
    clock, pending events, jobs (with undelivered updates), buffer,
    queue, dedup registry, and counters."""
    algo = runner.algo
    arrays: dict[str, np.ndarray] = {}
    manifest = _collect_algo(algo, arrays)
    jobs_meta: dict[str, dict] = {}
    for jid, job in runner.jobs.items():
        # In update-store mode a live job's update lives on disk; it is
        # re-materialized here so the checkpoint stays self-contained.
        update = runner._job_update(job)
        jobs_meta[str(jid)] = {
            "client_id": job.client_id,
            "dispatch_step": job.dispatch_step,
            "dispatch_time": job.dispatch_time,
            "duration": job.duration,
            "crashed": job.crashed,
            "train_loss": job.train_loss,
            "fingerprint": job.fingerprint,
            "accepted": job.accepted,
            "has_update": update is not None,
        }
        if update is not None:
            arrays[f"job.{jid}.update"] = np.frombuffer(
                encode_update(update), dtype=np.uint8)
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
        "stats": stats["counters"],
        "stats_drops": stats["drops"],
        "stats_delivered": stats["delivered"],
        "step_results": [asdict(r) for r in runner.step_results],
        "profile": asdict(runner.profile),
        "config": asdict(runner.config),
    }
    _write(path, arrays, manifest)


def load_async_checkpoint(runner: AsyncFederatedRunner,
                          path: str | Path) -> None:
    """Restore a snapshot from :func:`save_async_checkpoint`.

    ``runner`` must be freshly constructed with the *same* profile and
    config the snapshot was taken under (both are validated — a resumed
    run with different knobs would silently diverge otherwise).
    """
    arrays, manifest = _read(path)
    if "async" not in manifest:
        raise ValueError("not an async checkpoint (use load_checkpoint)")
    state = manifest["async"]
    for name, current in (("profile", asdict(runner.profile)),
                          ("config", asdict(runner.config))):
        if state[name] != json.loads(json.dumps(current)):
            raise ValueError(
                f"checkpoint {name} does not match the runner's: "
                f"{state[name]} != {current}")
    _apply_algo(runner.algo, arrays, manifest)
    runner.clock = VirtualClock.restore(state["clock"])
    runner.server_step = int(state["server_step"])
    runner._commit_epoch = int(state["commit_epoch"])
    runner._next_job = int(state["next_job"])
    runner._started = bool(state["started"])
    runner.stalled = bool(state["stalled"])
    runner._client_jobs = {int(c): int(n)
                           for c, n in state["client_jobs"].items()}
    runner.inflight = set(state["inflight"])
    runner.queue = list(state["queue"])
    runner.buffer = list(state["buffer"])
    from collections import OrderedDict
    runner._fp_registry = OrderedDict(
        ((int(cid), int(fp)), int(jid))
        for cid, fp, jid in state["fp_registry"])
    runner.dedup_evictions = int(state.get("dedup_evictions", 0))
    runner.counters = {k: int(v) for k, v in state["counters"].items()}
    runner.jobs = {}
    for jid_str, meta in state["jobs"].items():
        jid = int(jid_str)
        update = None
        if meta["has_update"]:
            blob = arrays[f"job.{jid}.update"].tobytes()
            update = decode_update(blob)
            if runner._store is not None:
                # Store mode: park the update back on disk; the job
                # record itself stays payload-free.
                runner._store.put(f"job/{jid}", blob)
                update = None
        runner.jobs[jid] = _Job(
            job_id=jid, client_id=int(meta["client_id"]),
            dispatch_step=int(meta["dispatch_step"]),
            dispatch_time=float(meta["dispatch_time"]),
            duration=float(meta["duration"]),
            crashed=bool(meta["crashed"]), update=update,
            train_loss=float(meta["train_loss"]),
            fingerprint=meta["fingerprint"],
            accepted=bool(meta["accepted"]))
    runner.stats = FaultStats.restore({"counters": state["stats"],
                                       "drops": state["stats_drops"],
                                       "delivered": state["stats_delivered"]})
    runner.step_results = [StepResult(**r) for r in state["step_results"]]
