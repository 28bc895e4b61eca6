"""Event-driven asynchronous federated runtime (DESIGN.md §12).

The synchronous loop in :mod:`repro.fl.base` is lock-step: one straggler
stalls the whole cohort, and a client that crashes or arrives mid-round
is simply dropped.  This module is its event-driven sibling for the
heterogeneous-availability regime the paper targets (§I, §IV): clients
arrive, train, and upload on their own seeded schedules
(:class:`~repro.fl.faults.AsyncProfile`), and the server makes progress
from whichever clients respond — FedBuff-style buffered aggregation with
staleness-discounted updates.

Everything runs on a **deterministic virtual clock**: events live in a
heap keyed by ``(time, seq)`` where ``seq`` is a monotone schedule
counter, so ties break identically on every run and two runs with the
same seed replay the same event sequence exactly.  No wall time is read
anywhere.

Server semantics:

- **dispatch** — an arriving client is admitted while the in-flight set
  has room (``max_inflight``); beyond that it queues (bounded
  ``max_queue``) and past that it is rejected with a deterministic
  backoff re-arrival.  Admitted clients download the current global
  state (charged to the :class:`~repro.fl.comm.CommLedger` under the
  dispatch step); the job's *dispatch step* is what it trains against
  and what staleness is later measured from.
- **buffer** — the first delivery of a job's upload trains it, against
  the server state of its dispatch step (a commit that moves the server
  past a step some untrained job still references first keeps a
  :meth:`~repro.fl.base.FederatedAlgorithm.server_snapshot` of it), so a
  job whose upload never lands is never trained.  The upload then lands
  in the commit buffer.  Duplicate deliveries are recognised by the wire
  layer's CRC32 content fingerprint
  (:func:`~repro.fl.wire.state_fingerprint`) keyed by client, and
  dropped before any accounting — a dedup charges no bytes.
- **commit** — when ``buffer_k`` updates are buffered (or a commit
  deadline fires first), the server folds the buffer in deterministic
  ``(dispatch_step, job)`` order.  Each update is discounted by
  ``1/(1 + staleness)^alpha`` where staleness is the number of commits
  since its dispatch, and is added to the algorithm's one fold with that
  discount as its weight; a fresh update's weight is exactly 1.0, so an
  all-fresh buffer is *bitwise* the synchronous
  :meth:`~repro.fl.base.FederatedAlgorithm.aggregate`.
  Commits are idempotent under deadline races: a deadline event carries
  the commit epoch it was armed for and is ignored once any commit
  advanced the epoch.

With ``buffer_k == cohort size``, ``max_inflight >= cohort``, uniform
durations, and no churn/crash, the async runtime reproduces the
synchronous loop's final global state **bitwise** — every client trains
from the same broadcast state, every commit sees zero staleness in
cohort order (``tests/test_fl_async.py::TestSyncEquivalence``).

Training at delivery moves no server byte against training at dispatch:
every training draw is keyed by ``(client, the client's job count)``, a
client has one job in flight at a time, and the job trains against its
dispatch step's state either way.  What it moves is what
:meth:`~repro.fl.base.FederatedAlgorithm.evaluate_all` sees of a client
that is mid-job: its state from its last finished job, not that of a job
still in flight in virtual time.
"""

from __future__ import annotations

import heapq
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.fl.base import FederatedAlgorithm
from repro.fl.faults import AsyncProfile
from repro.fl.resilience import ClientCrashed, FaultStats
from repro.fl.wire import state_fingerprint
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer

STALENESS_BOUNDS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


def staleness_weight(staleness: int, alpha: float) -> float:
    """The FedBuff-style discount ``1/(1+s)^alpha`` (== 1.0 at s=0)."""
    if staleness < 0:
        raise ValueError("staleness must be >= 0")
    if staleness == 0:
        return 1.0
    return float(1.0 / (1.0 + staleness) ** alpha)


@dataclass(frozen=True)
class AsyncConfig:
    """Server-side knobs of the asynchronous runtime."""

    buffer_k: int = 2              # commit when this many updates buffered
    staleness_alpha: float = 0.5   # discount exponent (0 = no discounting)
    max_inflight: int = 8          # admission control: concurrent jobs
    max_queue: int = 16            # arrivals parked beyond max_inflight
    commit_deadline: float | None = None  # virtual time from first buffered
                                          # update to a forced commit
    eval_every: int = 0            # evaluate_all() every N commits (0 = never)
    flush_final: bool = True       # commit a partial buffer at run end
    dedup_capacity: int = 4096     # bounded CRC32 dedup registry (FIFO evict)

    def __post_init__(self):
        if self.buffer_k < 1:
            raise ValueError("buffer_k must be >= 1")
        if self.dedup_capacity < 1:
            raise ValueError("dedup_capacity must be >= 1")
        if not self.staleness_alpha >= 0:      # NaN included
            raise ValueError("staleness_alpha must be >= 0")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        if self.commit_deadline is not None \
                and not self.commit_deadline > 0:
            raise ValueError("commit_deadline must be > 0")
        if self.eval_every < 0:
            raise ValueError("eval_every must be >= 0")


class VirtualClock:
    """Deterministic discrete-event clock: a heap keyed by ``(time, seq)``.

    ``seq`` is assigned at scheduling time from a monotone counter, so
    same-instant events pop in the order they were scheduled — the whole
    simulation is a pure function of the seeds.
    """

    def __init__(self):
        self.now = 0.0
        self._seq = 0
        self._heap: list[tuple[float, int, str, dict]] = []

    def schedule(self, at: float, kind: str, data: dict) -> None:
        """Enqueue ``kind`` at virtual time ``at`` (finite, >= now)."""
        if not math.isfinite(at):
            raise ValueError(f"cannot schedule at a non-finite time ({at})")
        if at < self.now:
            raise ValueError(f"cannot schedule into the past ({at} < {self.now})")
        heapq.heappush(self._heap, (float(at), self._seq, kind, data))
        self._seq += 1

    def pop(self) -> tuple[str, dict]:
        """Advance to and return the next event."""
        at, _seq, kind, data = heapq.heappop(self._heap)
        self.now = at
        return kind, data

    def __len__(self) -> int:
        return len(self._heap)

    # ------------------------------------------------- checkpoint support
    def snapshot(self) -> dict:
        """JSON-able clock state (heap entries carry only plain data)."""
        return {"now": self.now, "seq": self._seq,
                "heap": [[at, seq, kind, data]
                         for at, seq, kind, data in sorted(self._heap)]}

    @classmethod
    def restore(cls, payload: dict) -> "VirtualClock":
        clock = cls()
        clock.now = float(payload["now"])
        clock._seq = int(payload["seq"])
        clock._heap = [(float(at), int(seq), str(kind), dict(data))
                       for at, seq, kind, data in payload["heap"]]
        heapq.heapify(clock._heap)
        return clock


@dataclass
class _Job:
    """One dispatched training job and its flight bookkeeping."""

    job_id: int
    client_id: int
    dispatch_step: int          # server step at dispatch (staleness origin)
    dispatch_time: float
    duration: float
    crashed: bool
    client_round: int           # the client's job count: its training round
    pending: bool               # in flight, not trained yet
    update: Any = None          # dropped once committed or deduped
    train_loss: float = float("nan")
    fingerprint: int | None = None   # CRC32 of the upload; set: delivered
    accepted: bool = False


@dataclass
class StepResult:
    """Metrics of one committed global step (the async RoundResult)."""

    step: int
    time: float                 # virtual time of the commit
    n_updates: int
    mean_staleness: float
    max_staleness: int
    train_loss: float
    val_acc: float = float("nan")
    deadline_commit: bool = False
    partial: bool = False       # end-of-run flush below buffer_k


class AsyncFederatedRunner:
    """Drive a :class:`FederatedAlgorithm`'s hooks from an event heap.

    The runner owns the *protocol* (arrivals, buffering, staleness,
    admission control); the wrapped algorithm keeps owning the *math*
    (``download_payload`` / ``local_update`` / ``upload_payload`` /
    ``server_step``, or SPATL's ``make_fold``) plus the shared
    infrastructure — its :class:`~repro.fl.comm.Transport` (downlink
    sent at dispatch, uplink at delivery, both keyed by the dispatch
    step so async accounting lines up with sync rounds; DESIGN.md §17)
    and its clients.  Failures here come from the
    :class:`~repro.fl.faults.AsyncProfile`; an algorithm carrying a
    ``FaultModel`` is rejected rather than half-applied.
    """

    def __init__(self, algorithm: FederatedAlgorithm, profile: AsyncProfile,
                 config: AsyncConfig | None = None):
        if algorithm.fault_model is not None:
            raise ValueError("the async runtime draws its failures from "
                             "AsyncProfile; use FederatedAlgorithm.run_round "
                             "for FaultModel injection")
        self.algo = algorithm
        self.profile = profile
        self.config = config or AsyncConfig()
        self.clock = VirtualClock()
        self._clients = {c.client_id: c for c in algorithm.clients}
        self.jobs: dict[int, _Job] = {}
        self._next_job = 0
        self._client_jobs: dict[int, int] = {}   # cid -> jobs dispatched
        self.inflight: set[int] = set()          # pending or doomed jobs
        self.queue: list[int] = []               # FIFO of waiting client ids
        self.buffer: list[int] = []              # accepted, uncommitted jobs
        # dispatch step -> server_snapshot() of it, while a pending job of
        # that step exists and the server has moved past it
        self.snapshots: dict[int, dict[str, np.ndarray]] = {}
        # (cid, crc) -> job; FIFO-bounded at config.dedup_capacity so long
        # runs keep O(capacity) memory (DESIGN.md §13)
        self._fp_registry: OrderedDict[tuple[int, int], int] = OrderedDict()
        self.dedup_evictions = 0
        self.server_step = 0
        self._commit_epoch = 0
        self.stats = FaultStats()
        self.step_results: list[StepResult] = []
        self.stalled = False
        self.counters = {"dispatched": 0, "trained": 0, "accepted": 0,
                         "committed": 0, "deduped": 0, "rejected": 0,
                         "queued": 0, "crashed": 0, "churned": 0,
                         "deadline_commits": 0}
        self._started = False

    # ------------------------------------------------------------- events
    def _start(self) -> None:
        """Schedule every client's first arrival (once)."""
        if self._started:
            return
        self._started = True
        self.algo.transport.new_round()
        for client in self.algo.clients:   # deterministic: client order
            self.clock.schedule(self.profile.first_arrival(client.client_id),
                                "arrive", {"cid": client.client_id})

    def _process_one(self) -> None:
        """Pop and handle the next event."""
        kind, data = self.clock.pop()
        if kind == "arrive":
            self._on_arrive(data["cid"])
        elif kind == "upload":
            self._on_delivery(data["job"], duplicate=False)
        elif kind == "dup":
            self._on_delivery(data["job"], duplicate=True)
        elif kind == "crash":
            self._on_crash(data["job"])
        elif kind == "deadline":
            self._on_deadline(data["epoch"])
        else:  # pragma: no cover - schedule() only emits the kinds above
            raise ValueError(f"unknown event kind {kind!r}")

    # ----------------------------------------------- dispatch / admission
    def _on_arrive(self, cid: int) -> None:
        """Admission control: dispatch, queue, or reject with backoff."""
        if len(self.inflight) >= self.config.max_inflight:
            if len(self.queue) < self.config.max_queue:
                self.queue.append(cid)
                self._bump("queued")
            else:
                # Backpressure: deterministic backoff, then try again.
                self._bump("rejected")
                backoff = max(self.profile.rejoin_delay,
                              self.profile.mean_latency)
                self.clock.schedule(self.clock.now + backoff, "arrive",
                                    {"cid": cid})
            return
        self._dispatch(cid)

    def _dispatch(self, cid: int) -> None:
        """Admit a client: download, and put the job in flight *pending* —
        it trains at its first delivery (:meth:`_train`).  Crash fate is
        drawn up front (seeded by job, so order-independent); a doomed job
        is never pending — equivalent to the sync loop's
        train-then-rollback, since every training draw is keyed and client
        state is only mutated by the training that here never happens."""
        algo = self.algo
        client = self._clients[cid]
        job_id = self._next_job
        self._next_job += 1
        round_for_client = self._client_jobs.get(cid, 0)
        self._client_jobs[cid] = round_for_client + 1
        epochs = algo.epochs_for(client, round_for_client)
        duration = self.profile.duration(cid, job_id, epochs)
        crashed = self.profile.crashes(cid, job_id)
        job = _Job(job_id=job_id, client_id=cid,
                   dispatch_step=self.server_step,
                   dispatch_time=self.clock.now, duration=duration,
                   crashed=crashed, client_round=round_for_client,
                   pending=not crashed)
        with get_tracer().span("dispatch", step=self.server_step, client=cid,
                               job=job_id) as span:
            # The sync exchange's front half, keyed for this driver: the
            # downlink is charged under the server step.
            algo._download(client, self.server_step)
            span.set(crashed=crashed)
        self.jobs[job_id] = job
        self.inflight.add(job_id)
        self._bump("dispatched")
        get_registry().gauge("async.inflight").set(len(self.inflight))
        if crashed:
            # Mid-flight death surfaces partway through the job's window.
            self.clock.schedule(self.clock.now + 0.5 * duration, "crash",
                                {"job": job_id})
            return
        self.clock.schedule(self.clock.now + duration, "upload",
                            {"job": job_id})
        dup_lag = self.profile.duplicate_lag(cid, job_id)
        if dup_lag is not None:
            self.clock.schedule(self.clock.now + duration + dup_lag, "dup",
                                {"job": job_id})

    def _train(self, job: _Job) -> None:
        """Train a pending job against the server state of its dispatch
        step: the live state while no commit has moved past it, else the
        snapshot that commit kept, dropped with its last pending job.
        Quantized uplinks (DESIGN.md §16) are encoded here, once — the
        stashed wire dict is what fingerprints, byte charges, and (via the
        dequantized update tensors) buffered commits all see."""
        algo = self.algo
        client = self._clients[job.client_id]
        step = job.dispatch_step
        if step == self.server_step:
            job.update = algo._train(client, job.client_round)
        else:
            job.update = algo._train_against(client, job.client_round,
                                             self.snapshots[step])
        job.train_loss = algo.update_train_loss(job.update)
        job.pending = False
        self._bump("trained")
        if step in self.snapshots and not self._pending_at(step):
            del self.snapshots[step]

    def _pending_at(self, step: int) -> bool:
        """Whether a pending job was dispatched at server step ``step``."""
        return any(self.jobs[jid].pending
                   and self.jobs[jid].dispatch_step == step
                   for jid in self.inflight)

    def _drain_queue(self) -> None:
        """Dispatch waiting clients while in-flight slots are free."""
        while self.queue and len(self.inflight) < self.config.max_inflight:
            self._dispatch(self.queue.pop(0))

    # ------------------------------------------------------------ uploads
    def _on_delivery(self, job_id: int, duplicate: bool) -> None:
        """An upload (or a duplicated delivery of one) reaches the server.
        The first delivery of a job trains it (:meth:`_train`)."""
        job = self.jobs[job_id]
        cid = job.client_id
        if duplicate or job.fingerprint is not None:
            # A duplicate (it always lands after its upload), or a later
            # delivery of a job already delivered — accepted, or deduped
            # by content — is dropped regardless of the fingerprint
            # registry, which is bounded: its entry may be evicted by now.
            self._bump("deduped")
            return
        with get_tracer().span("buffer", step=self.server_step, client=cid,
                               job=job_id) as span:
            self._train(job)
            payload = self.algo.wire_payload(job.update)
            job.fingerprint = state_fingerprint(payload)
            self.inflight.discard(job_id)
            key = (cid, job.fingerprint)
            if key in self._fp_registry:
                # Wire-level dedup: another job of this client already
                # delivered this content, so this one is dropped before
                # any accounting and will never commit — nor is its
                # update kept.  The job has ended all the same.
                self._bump("deduped")
                job.update = None
                span.set(deduped=True)
            else:
                self._fp_registry[key] = job_id
                while len(self._fp_registry) > self.config.dedup_capacity:
                    self._fp_registry.popitem(last=False)
                    self.dedup_evictions += 1
                    get_registry().counter("async.dedup_evictions").inc()
                job.accepted = True
                self.algo._upload(cid, job.dispatch_step, job.update,
                                  payload=payload)
                self.stats.record_delivery(cid)
                self.buffer.append(job_id)
                self._bump("accepted")
                span.set(depth=len(self.buffer),
                         staleness=self.server_step - job.dispatch_step)
        get_registry().gauge("async.inflight").set(len(self.inflight))
        if job.accepted:
            get_registry().gauge("async.buffer_depth").set(len(self.buffer))
            if (self.config.commit_deadline is not None
                    and len(self.buffer) == 1):
                self.clock.schedule(
                    self.clock.now + self.config.commit_deadline,
                    "deadline", {"epoch": self._commit_epoch})
            if len(self.buffer) >= self.config.buffer_k:
                self._commit()
        self._schedule_rejoin(cid, job_id)
        self._drain_queue()

    def _schedule_rejoin(self, cid: int, job_id: int) -> None:
        """Schedule the client's next arrival (churn draws its absence)."""
        idle, churned = self.profile.rejoin_after(cid, job_id)
        if churned:
            self._bump("churned")
        self.clock.schedule(self.clock.now + idle, "arrive", {"cid": cid})

    def _on_crash(self, job_id: int) -> None:
        """A mid-flight crash surfaces: the update is lost, the client
        restarts and re-arrives after the profile's rejoin delay."""
        job = self.jobs[job_id]
        self.inflight.discard(job_id)
        self._bump("crashed")
        failure = ClientCrashed(job.client_id, job.dispatch_step,
                                f"crashed mid-flight (job {job_id})")
        self.stats.record_attempt_failure(failure)
        self.stats.record_failure(failure)
        get_registry().gauge("async.inflight").set(len(self.inflight))
        self.clock.schedule(self.clock.now + self.profile.rejoin_delay,
                            "arrive", {"cid": job.client_id})
        self._drain_queue()

    def _on_deadline(self, epoch: int) -> None:
        """Deadline commit — idempotent: stale epochs are no-ops."""
        if epoch != self._commit_epoch or not self.buffer:
            return
        self._bump("deadline_commits")
        self._commit(deadline=True)
        self._drain_queue()

    # ------------------------------------------------------------- commit
    def _commit(self, deadline: bool = False, partial: bool = False) -> None:
        """Fold the buffer into the global state as one server step."""
        assert self.buffer, "commit with an empty buffer"
        cfg = self.config
        order = sorted(self.buffer,
                       key=lambda jid: (self.jobs[jid].dispatch_step, jid))
        jobs = [self.jobs[jid] for jid in order]
        staleness = [self.server_step - j.dispatch_step for j in jobs]
        weights = [staleness_weight(s, cfg.staleness_alpha)
                   for s in staleness]
        if self._pending_at(self.server_step):
            # the server moves past a step a pending job still trains on
            self.snapshots[self.server_step] = self.algo.server_snapshot()
        tracer = get_tracer()
        metrics = get_registry()
        with tracer.span("commit", step=self.server_step,
                         n_updates=len(jobs), deadline=deadline) as span:
            self.algo.aggregate_weighted(
                (job.update for job in jobs), weights, self.server_step)
            self.algo.transport.new_round()   # the global state moved
            span.set(max_staleness=max(staleness),
                     mean_weight=float(np.mean(weights)))
        hist = metrics.histogram("async.staleness", bounds=STALENESS_BOUNDS)
        for s in staleness:
            hist.observe(float(s))
        metrics.counter("async.commits").inc()
        metrics.counter("async.committed_updates").inc(len(jobs))
        metrics.gauge("async.buffer_depth").set(0)
        finite = [j.train_loss for j in jobs if math.isfinite(j.train_loss)]
        result = StepResult(
            step=self.server_step, time=self.clock.now, n_updates=len(jobs),
            mean_staleness=float(np.mean(staleness)),
            max_staleness=int(max(staleness)),
            train_loss=float(np.mean(finite)) if finite else float("nan"),
            deadline_commit=deadline, partial=partial)
        self.buffer.clear()
        for job in jobs:
            job.update = None        # committed: drop the payload reference
        self.counters["committed"] += len(jobs)
        self.server_step += 1
        self._commit_epoch += 1      # invalidates any armed deadline
        self.algo.rounds_completed = self.server_step
        if cfg.eval_every and self.server_step % cfg.eval_every == 0:
            result.val_acc = self.algo.evaluate_all()
        self.step_results.append(result)

    def _bump(self, name: str) -> None:
        self.counters[name] += 1
        get_registry().counter(f"async.{name}").inc()

    # --------------------------------------------------------------- run
    def run(self, steps: int, max_events: int | None = None) -> list[StepResult]:
        """Advance the simulation by ``steps`` committed global steps.

        ``max_events`` bounds total event processing (default: generous,
        scaled to the target) so degenerate profiles — e.g. every job
        crashing — terminate instead of spinning the virtual clock
        forever; hitting the bound (or draining the heap) short of the
        target sets ``stalled``.  With ``flush_final`` a partial buffer
        is committed at the end so accepted work is never silently
        discarded.  Returns the :class:`StepResult` list of *this* call.
        """
        if steps < 1:
            raise ValueError("steps must be >= 1")
        self._start()
        target = self.server_step + steps
        if max_events is None:
            max_events = max(10_000, 500 * steps * len(self._clients))
        first = len(self.step_results)
        events = 0
        while self.server_step < target and len(self.clock) \
                and events < max_events:
            self._process_one()
            events += 1
        if self.server_step < target:
            if self.config.flush_final and self.buffer:
                self._commit(partial=True)
            self.stalled = True
        return self.step_results[first:]

    def pump(self, n_events: int) -> int:
        """Process up to ``n_events`` events (checkpoint/test middles);
        returns how many were actually processed."""
        self._start()
        done = 0
        while done < n_events and len(self.clock):
            self._process_one()
            done += 1
        return done

    def finalize(self) -> None:
        """Fold end-of-run drop accounting into the shared fault stats:
        clients that never delivered any update count once as dropped."""
        self.stats.finalize_drops()
        self.algo.fault_stats.merge(self.stats)
        self.stats = FaultStats()

    # ------------------------------------------------------------ summary
    def summary(self) -> dict:
        """JSON-able run summary (bench + experiment reporting)."""
        hist = get_registry().histogram("async.staleness",
                                        bounds=STALENESS_BOUNDS)
        return {
            "server_steps": self.server_step,
            "virtual_time": self.clock.now,
            "stalled": self.stalled,
            "counters": dict(self.counters),
            "staleness_mean": None if hist.count == 0 else hist.mean,
            "staleness_max": None if hist.count == 0 else hist.max,
            "ledger_bytes": self.algo.ledger.total_bytes(),
        }
