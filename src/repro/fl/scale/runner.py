"""Population-scale round loop: virtual clients + streaming folds.

:class:`ScaleRunner` drives the same protocol as
``FederatedAlgorithm.run_round`` — sample → exchange → aggregate →
evaluate — but never holds a cohort of updates: each upload folds into
the algorithm's :class:`~repro.fl.scale.fold.StreamingFold` as it
arrives and is discarded, so server memory is O(model) + O(wave),
independent of cohort and population size — and byte-identical to the
materialized baseline (golden-tested; see DESIGN.md §13 for the ordering
argument).

Fault injection is deliberately unsupported here: the fault-tolerant
retry/quorum loop is the base class's job, and keeping this loop
fault-free keeps it exactly on the baseline's golden path.

Mid-round checkpointing: ``run_round_partial`` folds a prefix of the
cohort, ``save_round_checkpoint`` snapshots algorithm state + the
fold's accumulators + the spill position + the client-store manifest,
and a fresh runner ``load_round_checkpoint`` + ``resume_round`` —
byte-identical to the uninterrupted round.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Any

import numpy as np

from repro.fl.base import RoundResult, sample_clients
from repro.fl.resilience import FaultStats
from repro.fl.scale.fold import UpdateSpill
from repro.fl.scale.store import ClientStateStore
from repro.fl.scale.virtual import VirtualClient, VirtualClientPool
from repro.obs.trace import get_tracer


class ScaleRunner:
    """Streaming round loop over (optionally) virtual clients.

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
        if algorithm.fault_model is not None:
            raise ValueError("ScaleRunner is fault-free; use "
                             "FederatedAlgorithm.run_round for fault "
                             "injection")
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
        self._pending: dict[str, Any] | None = None

    # ------------------------------------------------------------ round

    def _fold_cohort(self, fold, cohort, round_idx: int,
                     stats: FaultStats) -> list[float]:
        """Exchange + fold + evict, ``wave`` clients at a time."""
        losses: list[float] = []
        for lo in range(0, len(cohort), self.wave):
            chunk = cohort[lo:lo + self.wave]
            updates, chunk_losses = self.algo.executor.collect(
                self.algo, chunk, round_idx, 0, stats)
            for update in updates:
                fold.add(update)
            losses.extend(chunk_losses)
            if self._evict is not None:
                for client in chunk:
                    self._evict(client.client_id)
        return losses

    def run_round(self, round_idx: int) -> RoundResult:
        """One streaming round; see the class docstring."""
        with get_tracer().span("round", round=round_idx) as round_span:
            self.run_round_partial(round_idx, 0)
            return self._complete(round_span)

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
        if self._pending is not None:
            raise RuntimeError("a partial round is already pending")
        algo = self.algo
        algo.transport.new_round()
        stats = FaultStats()
        with get_tracer().span("sample", round=round_idx, salt=0):
            selected = sample_clients(algo.clients, algo.sample_ratio,
                                      algo.seed, round_idx)
        spill = UpdateSpill(os.path.join(self.spill_dir,
                                         f"round_{round_idx}.spill"))
        try:
            fold = algo.make_fold(spill)
            losses = self._fold_cohort(fold, selected[:n_clients], round_idx,
                                       stats)
        except BaseException:
            spill.unlink()
            raise
        self._pending = {"round_idx": round_idx, "fold": fold,
                         "spill": spill, "losses": losses,
                         "remaining": selected[n_clients:], "stats": stats}

    def resume_round(self) -> RoundResult:
        """Finish the pending partial round; byte-identical to a full one."""
        if self._pending is None:
            raise RuntimeError("no partial round pending")
        with get_tracer().span(
                "round", round=self._pending["round_idx"]) as round_span:
            return self._complete(round_span)

    def _complete(self, round_span) -> RoundResult:
        """Fold the pending round's remaining cohort, finalize, and run
        the base round epilogue (evaluation evicts each virtual client
        after its turn).  The spill is unlinked on every exit path."""
        tracer = get_tracer()
        p, self._pending = self._pending, None
        round_idx, fold, stats = p["round_idx"], p["fold"], p["stats"]
        with p["spill"]:
            with tracer.span("fold", round=round_idx,
                             n_clients=len(p["remaining"])):
                losses = p["losses"] + self._fold_cohort(
                    fold, p["remaining"], round_idx, stats)
            with tracer.span("aggregate", round=round_idx,
                             n_updates=fold.n_updates):
                fold.finalize(round_idx)
            return self.algo._finish_round(
                round_idx, fold.n_updates, losses, stats, True, round_span,
                evaluate=self.eval_mode == "full", evict=self._evict)

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
        fold_arrays, fold_meta = p["fold"].snapshot()
        for key, value in fold_arrays.items():
            arrays[f"fold.{key}"] = value
        p["spill"].flush()
        manifest["scale"] = {
            "round_idx": p["round_idx"],
            "remaining": [c.client_id for c in p["remaining"]],
            "losses": [float(v) for v in p["losses"]],
            "fold": fold_meta,
            "spill": {"path": p["spill"].path,
                      "n_records": p["spill"].n_records,
                      "nbytes": p["spill"].nbytes},
            "store": (self.pool.store.snapshot_manifest()
                      if self.pool is not None else None),
        }
        _write(path, arrays, manifest)

    def load_round_checkpoint(self, path: str | Path) -> None:
        """Restore a pending partial round into this (fresh) runner.

        The runner must wrap an identically-constructed algorithm; with
        a pool, the pool must sit on the same store root the checkpoint
        was taken from (shard logs are truncated back to the manifest).
        """
        from repro.fl.checkpoint import _apply_algo, _read
        arrays, manifest = _read(path)
        if "scale" not in manifest:
            raise ValueError("not a scale checkpoint")
        state = manifest["scale"]
        _apply_algo(self.algo, arrays, manifest)
        if self.pool is not None:
            if state["store"] is None:
                raise ValueError("checkpoint carries no store manifest "
                                 "but the runner has a pool")
            self.pool.store = ClientStateStore.attach(
                self.pool.store.root, state["store"])
            self.pool._resident.clear()
        spill = UpdateSpill.attach(state["spill"]["path"],
                                   state["spill"]["n_records"],
                                   state["spill"]["nbytes"])
        fold = self.algo.make_fold(spill,
                                   weighted=bool(state["fold"]["weighted"]))
        fold_arrays = {k[len("fold."):]: v for k, v in arrays.items()
                       if k.startswith("fold.")}
        fold.restore(fold_arrays, state["fold"])
        self._pending = {"round_idx": int(state["round_idx"]),
                         "fold": fold, "spill": spill,
                         "losses": [float(v) for v in state["losses"]],
                         "remaining": [self._client_by_id(int(c))
                                       for c in state["remaining"]],
                         "stats": FaultStats()}
