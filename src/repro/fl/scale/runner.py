"""Population-scale rounds: virtual clients + streaming folds.

:class:`ScaleRunner` runs the one synchronous round loop,
:class:`~repro.fl.base.Round`, with what bounds its memory: a spill file
under the fold, a ``wave`` (clients in flight between folds) and the
pool's ``evict``.  Each upload folds as it arrives and is discarded, so
server memory is O(model) + O(wave), independent of cohort and
population size — and byte-identical to the resident one-wave round of
``FederatedAlgorithm.run_round``, faults included (golden-tested; see
DESIGN.md §13 for the ordering argument).

Mid-round checkpointing: ``run_round_partial`` folds a prefix of the
cohort, ``save_round_checkpoint`` snapshots algorithm state + the
fold's accumulators + the spill position + the round's fault stats +
the client-store manifest, and a fresh runner ``load_round_checkpoint``
+ ``resume_round`` — byte-identical to the uninterrupted round.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import numpy as np

from repro.fl.base import Round, RoundResult
from repro.fl.resilience import FaultStats
from repro.fl.scale.fold import UpdateSpill
from repro.fl.scale.store import ClientStateStore
from repro.fl.scale.virtual import VirtualClient, VirtualClientPool


class ScaleRunner:
    """Streaming rounds over (optionally) virtual clients.

    Parameters
    ----------
    algorithm:
        Any :class:`~repro.fl.base.FederatedAlgorithm` (its ``clients``
        may be a :class:`VirtualClientPool`'s proxy list).
    pool:
        The pool backing the algorithm's virtual clients, if any —
        lets the runner evict each participant right after its upload
        is folded.  ``None`` for materialized clients.
    spill_dir:
        Directory for fold spill files.  Defaults to
        ``<store root>/spills`` with a pool, else a temp directory the
        runner owns and :meth:`close` removes.
    eval_mode:
        ``"full"`` evaluates every client (the paper's §V-B metric,
        O(population) time); ``"none"`` skips evaluation (benchmark
        mode) and reports ``nan``.
    wave:
        Clients in flight between folds.  Defaults to 1 for the serial
        executor and ``2 * workers`` for process pools.
    """

    def __init__(self, algorithm, pool: VirtualClientPool | None = None,
                 spill_dir: str | os.PathLike | None = None,
                 eval_mode: str = "full", wave: int | None = None):
        if eval_mode not in ("full", "none"):
            raise ValueError(f"unknown eval_mode {eval_mode!r}")
        self.algo = algorithm
        self.pool = pool
        # per-client-id eviction hook, None for materialized clients
        self._evict = pool.evict if pool is not None else None
        self.eval_mode = eval_mode
        self._owned_tmp: tempfile.TemporaryDirectory | None = None
        if spill_dir is None:
            if pool is not None:
                spill_dir = os.path.join(pool.store.root, "spills")
            else:
                self._owned_tmp = tempfile.TemporaryDirectory(
                    prefix="repro-scale-")
                spill_dir = self._owned_tmp.name
        self.spill_dir = os.fspath(spill_dir)
        if wave is None:
            # Keep 2x the worker count in flight so the pool never
            # idles, or 1 for in-process execution.
            workers = getattr(algorithm.executor, "workers", None)
            wave = 2 * workers if workers else 1
        self.wave = max(1, int(wave))
        self._pending: Round | None = None   # folded in part, resumable

    # ------------------------------------------------------------ round

    def _start(self, round_idx: int) -> Round:
        if self._pending is not None:
            raise RuntimeError("a partial round is already pending")
        return Round(self.algo, round_idx, wave=self.wave, evict=self._evict,
                     spill_path=os.path.join(self.spill_dir,
                                             f"round_{round_idx}.spill"))

    def _finish(self, round_: Round) -> RoundResult:
        return round_.finish(evaluate=self.eval_mode == "full")

    def run_round(self, round_idx: int) -> RoundResult:
        """One streaming round; see the class docstring."""
        return self._finish(self._start(round_idx))

    def run(self, rounds: int) -> list[RoundResult]:
        """Run ``rounds`` consecutive rounds from the current position."""
        return [self.run_round(r)
                for r in range(self.algo.rounds_completed,
                               self.algo.rounds_completed + rounds)]

    def close(self) -> None:
        """Remove the runner-owned temp spill directory, if any.

        Idempotent.  A pending partial round's spill under a
        caller-provided ``spill_dir`` stays: a saved checkpoint resumes
        from it.
        """
        if self._owned_tmp is not None:
            self._owned_tmp.cleanup()
            self._owned_tmp = None

    # ------------------------------------------------ mid-round checkpoint

    def run_round_partial(self, round_idx: int, n_clients: int) -> None:
        """Fold the first ``n_clients`` of the round's cohort, then stop.

        Leaves the round pending; ``save_round_checkpoint`` can persist
        it and ``resume_round`` finishes it.
        """
        round_ = self._start(round_idx)
        round_.advance(n_clients)
        self._pending = round_

    def resume_round(self) -> RoundResult:
        """Finish the pending partial round; byte-identical to a full one."""
        if self._pending is None:
            raise RuntimeError("no partial round pending")
        round_, self._pending = self._pending, None
        return self._finish(round_)

    def _client_by_id(self, cid: int):
        if self.pool is not None:
            return VirtualClient(cid, self.pool)
        for client in self.algo.clients:
            if client.client_id == cid:
                return client
        raise KeyError(f"no client with id {cid}")

    def save_round_checkpoint(self, path: str | Path) -> None:
        """Persist the pending partial round (see module docstring)."""
        from repro.fl.checkpoint import _collect_algo, _write
        if self._pending is None:
            raise RuntimeError("no partial round pending")
        p = self._pending
        if self.pool is not None:
            self.pool.flush()
        arrays: dict[str, np.ndarray] = {}
        manifest = _collect_algo(self.algo, arrays,
                                 include_clients=self.pool is None)
        fold_arrays, fold_meta = p.fold.snapshot()
        for key, value in fold_arrays.items():
            arrays[f"fold.{key}"] = value
        p.spill.flush()
        manifest["scale"] = {
            "round_idx": p.round_idx,
            "remaining": [c.client_id for c in p.remaining],
            "losses": [float(v) for v in p.losses],
            "stats": p.stats.snapshot(),
            "fold": fold_meta,
            # the file name alone: a copied run directory resumes from
            # its own spill, under the loading runner's spill_dir
            "spill": {"file": os.path.basename(p.spill.path),
                      "n_records": p.spill.n_records,
                      "nbytes": p.spill.nbytes},
            "store": (self.pool.store.snapshot_manifest()
                      if self.pool is not None else None),
        }
        _write(path, arrays, manifest)

    def load_round_checkpoint(self, path: str | Path) -> None:
        """Restore a pending partial round into this (fresh) runner.

        The runner must wrap an identically-constructed algorithm; with
        a pool, the pool must sit on the store root the checkpoint was
        taken from, or a copy of it (shard logs are truncated back to the
        manifest).  The round's spill is read from this runner's
        ``spill_dir`` under the file name the checkpoint recorded.
        The manifest and every array are checked before the algorithm is
        touched (a ``ValueError`` naming the file and the entry).
        """
        from repro.fl.checkpoint import _apply_algo, _bad, _check_algo, _read
        if self._pending is not None:
            raise RuntimeError("a partial round is already pending")
        arrays, manifest = _read(path)
        state = manifest.get("scale")
        if not isinstance(state, dict):
            raise _bad(path, "scale", "not a scale checkpoint")
        algo_state = _check_algo(path, self.algo, arrays, manifest)
        fold_arrays = {k[len("fold."):]: v for k, v in arrays.items()
                       if k.startswith("fold.")}
        try:
            round_idx = int(state["round_idx"])
            spill_file = str(state["spill"]["file"])
            if os.path.basename(spill_file) != spill_file:
                raise ValueError(f"spill file {spill_file!r} is not a "
                                 "file name")
            spill_at = (os.path.join(self.spill_dir, spill_file),
                        int(state["spill"]["n_records"]),
                        int(state["spill"]["nbytes"]))
            losses = [float(v) for v in state["losses"]]
            remaining = [self._client_by_id(int(c))
                         for c in state["remaining"]]
            stats = (FaultStats.restore(state["stats"]) if "stats" in state
                     else None)   # absent before the round's stats were saved
            # a throwaway fold proves the arrays restore before the real one
            self.algo.make_fold(None).restore(fold_arrays, state["fold"])
            store = None
            if self.pool is not None:
                if state["store"] is None:
                    raise ValueError("checkpoint carries no store manifest "
                                     "but the runner has a pool")
                store = ClientStateStore.attach(self.pool.store.root,
                                                state["store"])
        except (AttributeError, KeyError, TypeError, ValueError) as err:
            raise _bad(path, "scale", f"{type(err).__name__}: {err}") from None
        # A torn spill is a PayloadError, and it too comes before the
        # algorithm is touched.
        spill = UpdateSpill.attach(*spill_at)
        _apply_algo(self.algo, algo_state)
        if store is not None:
            self.pool.store = store
            self.pool._resident.clear()
        round_ = Round(self.algo, round_idx, wave=self.wave,
                       evict=self._evict, spill_path=spill.path)
        round_.spill = spill
        round_.fold = self.algo.make_fold(round_.spill)
        round_.fold.restore(fold_arrays, state["fold"])
        round_.losses = losses
        round_.remaining = remaining
        if stats is not None:
            round_.stats = stats
        self._pending = round_
