"""Server round loop shared by every FL algorithm (baselines and SPATL).

The loop follows the standard synchronous FL protocol of the paper's
Figure 1: sample clients → download global state → local updates → upload →
aggregate → evaluate.  Subclasses implement four hooks and may declare
a fifth:

- ``downlink_state()`` — everything a synced client holds.
  ``download_payload(client)``, written once here, turns it into what
  *this* client is actually sent: the rows that changed since the
  version it last synced at, or on a first contact everything but the
  zeros it is born holding (``zero_born``, DESIGN.md §5.1);
- ``local_update(client, round_idx)`` — run local training, return an
  update object;
- ``upload_payload(update)`` — what the client sends back, as the
  update's own arrays: the quantized transport writes the decoded values
  back through it, so the uplink is stated once and has no inverse;
- ``server_step(payloads, pairs)`` — the server step, once, over the
  stream of parked upload payloads; SPATL, whose Eq. 11/12 step runs as
  the uploads arrive, overrides ``make_fold(spill)`` instead
  (DESIGN.md §13.3);
- ``server_arrays()`` — optional: the server state beyond the model
  (control variates, server momentum), declared once; the worker sync
  state, its loader and every checkpoint are derived from it
  (DESIGN.md §9).

Evaluation reports the **average local top-1 accuracy across all clients**
(participating or not), matching §V-B: "we allocate each client a local
non-IID training dataset and a validation dataset to evaluate the top-1
accuracy ... among heterogeneous clients".

The per-client exchange is dispatched through a pluggable *round executor*
(see :mod:`repro.fl.parallel` and DESIGN.md §9): the default
:class:`~repro.fl.parallel.SerialExecutor` runs clients in-process exactly
as the original loop did, while ``ProcessPoolRoundExecutor`` fans them out
over worker processes and commits results in deterministic client order so
parallel runs stay seed- and byte-identical to serial ones.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.fl.client import Client
from repro.fl.comm import CommLedger, Transport
from repro.fl.faults import FaultModel
from repro.fl.local import weighted_average_states
from repro.fl.quant import QUANT_WIRE_KEY, QuantConfig, quantize_payload
from repro.fl.wire import BroadcastCache
from repro.fl.parallel import RoundExecutor, SerialExecutor
from repro.fl.resilience import (ClientCrashed, ClientFailure, FaultStats,
                                 RetryPolicy)
from repro.models.split import SplitModel
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.utils.logging import ExperimentLog
from repro.utils.metrics import EarlyStopper
from repro.utils.rng import spawn_rng


def sample_clients(clients: Sequence[Client], sample_ratio: float, seed: int,
                   round_idx: int, salt: int = 0) -> list[Client]:
    """Uniformly sample ``ceil(ratio * n)`` distinct clients for a round.

    ``salt`` re-salts the draw when a quorum-failed round is re-sampled;
    ``salt=0`` reproduces the original (pre-fault-tolerance) stream
    exactly.
    """
    if not 0.0 < sample_ratio <= 1.0:
        raise ValueError("sample_ratio must be in (0, 1]")
    n = len(clients)
    k = max(1, int(np.ceil(sample_ratio * n)))
    if salt:
        rng = spawn_rng(seed, "sampling", round_idx, "resample", salt)
    else:
        rng = spawn_rng(seed, "sampling", round_idx)
    chosen = rng.choice(n, size=k, replace=False)
    return [clients[i] for i in sorted(chosen)]


@dataclass
class RoundResult:
    """Metrics of one communication round."""

    round_idx: int
    avg_train_loss: float
    avg_val_acc: float
    n_participants: int
    round_bytes: int
    # Fault-tolerance accounting (all zero on the fault-free path).
    n_dropped: int = 0
    n_retries: int = 0
    n_corrupt: int = 0
    n_resamples: int = 0
    committed: bool = True


class Round:
    """One synchronous round in progress — the only synchronous round
    loop (DESIGN.md §7).  ``run_round`` builds one and finishes it;
    :class:`~repro.fl.scale.ScaleRunner` adds a spill path, a wave size
    and its pool's ``evict``, and may checkpoint it between
    :meth:`advance` and :meth:`finish`.  Owns the cohort still to exchange
    (``remaining``, sampled on the first advance), the fold the uploads go
    into (resident when ``spill_path`` is ``None``), their losses and the
    round's :class:`FaultStats`, whose ``n_resamples`` is the sampling salt.
    """

    def __init__(self, algo: "FederatedAlgorithm", round_idx: int,
                 spill_path: str | None = None, wave: int | None = None,
                 evict: Callable[[int], None] | None = None):
        self.algo = algo
        self.round_idx = round_idx
        self.spill_path = spill_path
        self.wave = wave      # clients per collect; None: the whole cohort
        self.evict = evict    # called with a client's id once it is folded
        self.stats = FaultStats()
        self.remaining: list[Client] | None = None
        self.fold = self.spill = None
        self.losses: list[float] = []

    @property
    def salt(self) -> int:
        return self.stats.n_resamples

    def _open(self) -> None:
        """Sample the cohort for the current salt into a fresh fold."""
        algo = self.algo
        with get_tracer().span("sample", round=self.round_idx,
                               salt=self.salt):
            self.remaining = sample_clients(algo.clients, algo.sample_ratio,
                                            algo.seed, self.round_idx,
                                            salt=self.salt)
        if self.spill_path is not None:
            from repro.fl.scale.fold import UpdateSpill
            self.spill = UpdateSpill(self.spill_path)
        self.fold = algo.make_fold(self.spill)
        self.losses = []

    def _drop_spill(self) -> None:
        if self.spill is not None:
            self.spill.unlink()

    def advance(self, n: int | None = None) -> None:
        """Exchange with the next ``n`` clients (default: all that remain),
        ``wave`` at a time: collect, fold each upload in cohort order —
        whichever worker finished first — then evict.  An exception
        unlinks the spill before it propagates."""
        if n is not None and n < 0:
            raise ValueError(f"cannot advance by {n} clients")
        algo = self.algo
        try:
            if self.remaining is None:
                # Global state may have been changed from outside since
                # the last round: no encoding cached earlier may be served.
                algo.transport.new_round()
                self._open()
            if n is None:
                n = len(self.remaining)
            cohort, self.remaining = self.remaining[:n], self.remaining[n:]
            wave = self.wave or len(cohort) or 1
            for lo in range(0, len(cohort), wave):
                chunk = cohort[lo:lo + wave]
                updates, losses = algo.executor.collect(
                    algo, chunk, self.round_idx, self.salt, self.stats)
                for update in updates:
                    self.fold.add(update)
                self.losses.extend(losses)
                if self.evict is not None:
                    for client in chunk:
                        self.evict(client.client_id)
        except BaseException:
            self._drop_spill()
            raise

    def finish(self, evaluate: bool = True) -> RoundResult:
        """Exchange with whoever remains, settle quorum, commit.

        Under a fault model each client gets ``retry_policy.max_attempts``
        tries (``_client_exchange``); while fewer than ``min_clients``
        uploads survive, the fold and its spill are discarded and the
        cohort re-sampled under the next salt, ``max_round_resamples``
        times at most, after which the round is *skipped*: nothing is
        aggregated and the round index still advances.  The spill is
        unlinked on every exit path.  Spans and round counters never
        touch numerics: traced runs stay seed-identical.
        """
        algo, round_idx, stats = self.algo, self.round_idx, self.stats
        tracer = get_tracer()
        quorum = max(1, algo.min_clients)
        with tracer.span("round", round=round_idx) as round_span:
            try:
                self.advance()
                while (algo.fault_model is not None
                       and self.fold.n_updates < quorum
                       and self.salt < algo.max_round_resamples):
                    self._drop_spill()
                    stats.n_resamples += 1
                    self._open()
                    self.advance()
                # Finalized once per round: a client that failed in one
                # cohort but delivered after a re-sample is withdrawn, and
                # re-drops of one client collapse — n_dropped counts
                # distinct clients that never delivered, not failure events.
                stats.finalize_drops()
                n_updates = self.fold.n_updates
                committed = n_updates >= quorum
                if committed:
                    with tracer.span("aggregate", round=round_idx,
                                     n_updates=n_updates):
                        self.fold.finalize(round_idx)
            finally:
                self._drop_spill()
            algo.rounds_completed = round_idx + 1
            algo.fault_stats.merge(stats)
            if committed:
                # The global state moved: whoever reads server state
                # between rounds — a checkpoint — sees it as changed too.
                algo.transport.new_round()
            with tracer.span("evaluate", round=round_idx):
                acc = algo.evaluate_all(self.evict) if evaluate \
                    else float("nan")
            finite = [v for v in self.losses if np.isfinite(v)]
            result = RoundResult(
                round_idx, float(np.mean(finite)) if finite else float("nan"),
                acc, n_updates, algo.ledger.round_bytes(round_idx),
                n_dropped=stats.n_dropped, n_retries=stats.n_retries,
                n_corrupt=stats.n_corrupt, n_resamples=stats.n_resamples,
                committed=committed)
            round_span.set(val_acc=acc, n_participants=n_updates,
                           bytes=result.round_bytes, committed=committed)
        metrics = get_registry()
        metrics.counter("fl.rounds", algorithm=algo.name).inc()
        metrics.counter("fl.client_updates", algorithm=algo.name).inc(n_updates)
        metrics.counter("fl.bytes", algorithm=algo.name).inc(result.round_bytes)
        metrics.gauge("fl.val_acc", algorithm=algo.name).set(acc)
        if tracer.enabled:
            metrics.histogram("fl.round_seconds",
                              algorithm=algo.name).observe(round_span.duration)
        return result


class FederatedAlgorithm:
    """Base class; see module docstring for the hook contract."""

    name = "base"
    # Name prefixes of the ``downlink_state()`` entries this protocol
    # initialises to zero on the server and on every joining client alike
    # (SPATL's and SCAFFOLD's ``c``): a first contact is not sent their
    # zero rows (DESIGN.md §5.1).  Data for the transport, not a hook.
    zero_born: tuple[str, ...] = ()

    def __init__(self, model_fn: Callable[[], SplitModel], clients: Sequence[Client],
                 lr: float = 0.01, local_epochs: int | tuple[int, int] = 10,
                 sample_ratio: float = 1.0,
                 momentum: float = 0.9, weight_decay: float = 0.0,
                 max_grad_norm: float | None = None, seed: int = 0,
                 fault_model: FaultModel | None = None,
                 retry_policy: RetryPolicy | None = None,
                 min_clients: int = 1, max_round_resamples: int = 3,
                 executor: RoundExecutor | None = None,
                 compile_steps: bool = False,
                 quant: QuantConfig | None = None):
        self.model_fn = model_fn
        self.clients = list(clients)
        if not self.clients:
            raise ValueError("need at least one client")
        self.lr = lr
        # System heterogeneity: a (lo, hi) range makes each client draw its
        # own epoch count per round (slow devices do less work) — the
        # objective-inconsistency regime FedNova targets.  An int keeps the
        # paper's uniform "10 rounds locally".
        if isinstance(local_epochs, tuple):
            lo, hi = local_epochs
            if not 1 <= lo <= hi:
                raise ValueError(f"bad local_epochs range {local_epochs}")
        self.local_epochs = local_epochs
        self.sample_ratio = sample_ratio
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.max_grad_norm = max_grad_norm
        self.seed = seed
        self.global_model: SplitModel = model_fn()
        self.rounds_completed = 0
        # Fault tolerance is strictly opt-in: without a fault model the
        # round loop takes the original (byte-identical) code path.
        if min_clients < 1:
            raise ValueError("min_clients must be >= 1")
        if max_round_resamples < 0:
            raise ValueError("max_round_resamples must be >= 0")
        self.retry_policy = retry_policy or RetryPolicy()
        self.min_clients = min_clients
        self.max_round_resamples = max_round_resamples
        # Low-bit uplink transport (DESIGN.md §16): with an active
        # :class:`~repro.fl.quant.QuantConfig`, each freshly trained
        # update is quantized exactly once — its wire encoding is stashed
        # on the update under ``QUANT_WIRE_KEY`` and its uplink tensors
        # are overwritten with the dequantized values, so every byte-charging
        # site, retransmission, and fold sees one consistent payload.
        # ``quant=None`` (or bits=32) keeps the original dense path
        # byte-identical.
        self.quant = quant if quant is not None and quant.active else None
        # The simulated network (DESIGN.md §17): owns the ledger, the
        # fault model, the per-round broadcast-encoding cache and its
        # round token; every driver charges, traces and corrupts bytes
        # through it and nowhere else.  The quant config's identity is
        # part of every cache key, so two configs can never share a
        # cached blob.
        self.transport = Transport(
            fault_model, broadcast=BroadcastCache(),
            variant=self.quant.key if self.quant is not None else None)
        self.transport.versions.zero_born = self.zero_born
        self.fault_stats = FaultStats()  # cumulative over the whole run
        # Round execution engine (DESIGN.md §9).  SerialExecutor keeps the
        # original in-process loop; ProcessPoolRoundExecutor fans clients
        # out over worker processes with a deterministic ordered commit.
        self.executor: RoundExecutor = executor or SerialExecutor()
        # Trace-and-replay step executor (DESIGN.md §15): captures each
        # (model, batch-signature) training step once and replays it with
        # static memory planning.  Byte-identical to eager, so it composes
        # with every algorithm/executor/fault configuration; ``None`` keeps
        # the plain eager loop.
        if compile_steps:
            from repro.tensor.compile import StepCompiler
            self.step_compiler = StepCompiler()
        else:
            self.step_compiler = None

    @property
    def ledger(self) -> CommLedger:
        """The transport's ledger: every byte this run has sent."""
        return self.transport.ledger

    @property
    def fault_model(self) -> FaultModel | None:
        """The transport's fault model (``None``: fault-free run)."""
        return self.transport.fault_model

    def epochs_for(self, client: Client, round_idx: int) -> int:
        """Local epochs this client runs this round.

        Uniform when ``local_epochs`` is an int; drawn per (client, round)
        from the configured range when it is a tuple (system heterogeneity).
        """
        if isinstance(self.local_epochs, tuple):
            lo, hi = self.local_epochs
            rng = spawn_rng(self.seed, "epochs", round_idx, client.client_id)
            return int(rng.integers(lo, hi + 1))
        return int(self.local_epochs)

    # ------------------------------------------------------------ hooks
    def downlink_state(self) -> dict[str, np.ndarray]:
        """The full downlink state: what a client holds once synced."""
        raise NotImplementedError

    def download_payload(self, client: Client) -> dict[str, np.ndarray]:
        """What ``client`` is sent now: :meth:`downlink_state` as a row
        delta against ``client.local_state["synced"]``, the version it
        last synced at (absent: a first contact).  The one build site of
        the downlink — its return value is the dict handed to
        ``transport.download``, once per charged transfer."""
        return self.transport.versions.payload(
            self.downlink_state, client.local_state.get("synced"))

    def _download(self, client: Client, round_idx: int, salt: int = 0,
                  attempt: int = 0) -> dict[str, np.ndarray]:
        """The exchange's front half, for every driver: build the client's
        delta, send it, and only then advance the client's base — so a
        dropped or corrupted download leaves the base where it was and
        the retry re-sends the same delta.  The only writer of
        ``local_state["synced"]``."""
        base = client.local_state.get("synced")
        received = self.transport.download(
            round_idx, client.client_id, self.download_payload(client), salt,
            attempt, base=base)
        client.local_state["synced"] = self.transport.versions.version
        return received

    def _upload(self, client_id: int, round_idx: int, update: Any,
                salt: int = 0, attempt: int = 0,
                payload: dict[str, np.ndarray] | None = None) -> None:
        """The exchange's back half, for every driver: send — and so
        charge, trace and (under a fault model) corrupt — exactly what
        crosses the wire for ``update``.  :meth:`wire_payload` is built
        here, once per charged transfer, unless the caller already holds
        it: the async runtime fingerprints the payload to dedup a
        delivery *before* deciding to charge it, and the end-to-end
        benchmark audits the ledger against the bytes of every
        ``wire_payload`` call (a second build reads as 2x the uplink).
        The only caller of ``transport.upload``."""
        if payload is None:
            payload = self.wire_payload(update)
        self.transport.upload(round_idx, client_id, payload, salt, attempt)

    def local_update(self, client: Client, round_idx: int) -> Any:
        raise NotImplementedError

    def upload_payload(self, update: Any) -> dict[str, np.ndarray]:
        """What the client sends back for ``update``: the one statement of
        this algorithm's uplink.

        Every float tensor must be the update's own array, not a copy:
        :meth:`quantize_update` writes the decoded values back through the
        returned dict, and the server step reads them from the update.
        (A one-value entry, which no codec shrinks, may be built here.)"""
        raise NotImplementedError

    def quantize_update(self, client: Client, update: Any,
                        round_idx: int) -> Any:
        """Quantize a freshly trained update's uplink (once per update).

        No-op without an active quant config.  Otherwise encodes
        :meth:`upload_payload` through the stochastic codec — RNG keyed
        ``(seed, "quant", round, client)`` so executor replays and
        retransmissions reproduce identical bytes — applies per-client
        error feedback from ``client.local_state["quant_residual"]``,
        copies each decoded entry into the update's own array (entries
        the codec passed through are already exact), and stashes the
        exact wire dict on the update under ``QUANT_WIRE_KEY`` for
        :meth:`wire_payload`.
        """
        if self.quant is None:
            return update
        if not isinstance(update, dict):
            raise TypeError(
                f"{type(self).__name__} returned a non-dict update; the "
                "quantized transport needs a dict to stash its wire payload")
        payload = self.upload_payload(update)
        rng = spawn_rng(self.seed, "quant", round_idx, client.client_id)
        residuals = None
        if self.quant.error_feedback:
            residuals = client.local_state.setdefault("quant_residual", {})
        wire_dict, decoded = quantize_payload(payload, self.quant, rng,
                                              residuals)
        for name, value in decoded.items():
            if name not in wire_dict:      # quantized: travels as name+suffix
                np.copyto(payload[name], value)
        update[QUANT_WIRE_KEY] = wire_dict
        return update

    def wire_payload(self, update: Any) -> dict[str, np.ndarray]:
        """The uplink payload as it crosses the wire.

        Returns the quantized encoding stashed by :meth:`quantize_update`
        when present, else :meth:`upload_payload`.  :meth:`_upload` hands
        this to ``transport.upload`` for every driver, so the ledger
        always charges the true transmitted bytes.
        """
        if isinstance(update, dict):
            stashed = update.get(QUANT_WIRE_KEY)
            if stashed is not None:
                return stashed
        return self.upload_payload(update)

    # ---------------------------------- aggregation (DESIGN.md §13.3)
    def make_fold(self, spill=None):
        """The accumulator every driver aggregates through: it parks each
        :meth:`upload_payload` (on disk with an ``UpdateSpill``) and
        streams them to :meth:`server_step` at finalize."""
        from repro.fl.scale.fold import StreamingFold
        return StreamingFold(self, spill)

    def server_step(self, payloads: Callable[[], Iterator[dict]],
                    pairs: Sequence[tuple[float, float]]) -> None:
        """Fold a round's uploads into the global state.  ``payloads()``
        is a fresh iterator over their :meth:`upload_payload` dicts in
        cohort order; ``pairs`` holds each one's ``(n, weight)`` (weight
        1.0, or the async staleness discount).  Adding per key in cohort
        order keeps every route bitwise-equal."""
        raise NotImplementedError(
            f"{type(self).__name__} states no server_step")

    def _mean_buffers(self, payloads: Callable[[], Iterator[dict]],
                      pairs: Sequence[tuple[float, float]]) -> None:
        """Install the ``n * weight`` mean of the uploaded buffers."""
        owners = self.global_model._buffer_owners()
        mean = weighted_average_states(
            ({name: payload[name] for name in owners}
             for payload in payloads()), [n * w for n, w in pairs])
        for name, (owner, local) in owners.items():
            owner.set_buffer(local, mean[name])

    def aggregate(self, updates: Sequence[Any], round_idx: int) -> None:
        """Fold a list of updates into the global state, unit weights."""
        self.aggregate_weighted(updates, [1.0] * len(updates), round_idx)

    def aggregate_weighted(self, updates: Iterable[Any],
                           weights: Sequence[float], round_idx: int) -> None:
        """Fold ``updates`` with per-update multiplicative weights: the
        async runtime's staleness discounts (DESIGN.md §12).  All-1.0
        weights are bitwise the synchronous fold, so ``buffer_k == cohort
        size`` async runs reproduce sync runs exactly.  ``updates`` may
        be a generator."""
        fold = self.make_fold()
        # strict: an updates/weights length mismatch is a ValueError
        for update, w in zip(updates, weights, strict=True):
            fold.add(update, w)
        fold.finalize(round_idx)

    def client_eval_model(self, client: Client):
        """Model used to evaluate ``client`` (global by default)."""
        return self.global_model

    # ------------------------------------------------------ server state
    # ``worker_sync_state`` is the algorithm's complete server state: what
    # a worker process needs before running any client, and what every
    # checkpoint writer saves.  It is the global model (``model.*``), the
    # downlink version table (``dl.*``: workers build deltas from the
    # parent's table, they never compare states themselves) and whatever
    # :meth:`server_arrays` declares — nothing for FedAvg, FedProx,
    # FedTopK and the sparse-init baselines, the control variate or the
    # server momentum for the others.  Per-client state has the matching
    # single home, ``client.local_state``, which always travels with the
    # client.  See DESIGN.md §9.

    def server_arrays(self) -> dict[str, dict[str, np.ndarray]]:
        """The server state beyond the model: ``{sync prefix: live dict}``.

        Each dict is the one the algorithm reads and writes; its entries
        travel as ``prefix + name`` after ``model.*`` and ``dl.*``, and
        loading rebinds them in it.  A checkpoint must carry exactly these
        entries, at the shapes and dtypes held."""
        return {}

    def worker_sync_state(self) -> dict[str, np.ndarray]:
        """Server state a worker needs before running any client this round,
        as a flat array dict (shipped through :func:`serialize_state`)."""
        state = {f"model.{k}": v
                 for k, v in self.global_model.state_dict().items()}
        versions = self.transport.versions
        versions.refresh(self.downlink_state)
        state.update({f"dl.{k}": v for k, v in versions.sync_state().items()})
        for prefix, arrays in self.server_arrays().items():
            state.update({prefix + k: v for k, v in arrays.items()})
        return state

    def load_worker_sync_state(self, state: dict[str, np.ndarray]) -> None:
        """Install :meth:`worker_sync_state` output into this replica."""
        model_state = {k[len("model."):]: v for k, v in state.items()
                       if k.startswith("model.")}
        self.global_model.load_state_dict(model_state)
        if "dl.version" in state:
            # only the layout of downlink_state() is read, so the server
            # arrays that load after this call do not matter
            self.transport.versions.load(state["dl.version"],
                                         state["dl.rows"],
                                         self.downlink_state())
        for prefix, arrays in self.server_arrays().items():
            for key, value in state.items():
                if key.startswith(prefix):
                    arrays[key[len(prefix):]] = value

    def server_snapshot(self) -> dict[str, np.ndarray]:
        """A copy of the server state local training reads: the model
        (``model.*``) and what :meth:`server_arrays` declares, keyed as in
        :meth:`worker_sync_state`.  The downlink row table is left out:
        training never reads it."""
        state = {f"model.{k}": v
                 for k, v in self.global_model.state_dict().items()}
        for prefix, arrays in self.server_arrays().items():
            state.update((prefix + k, v.copy()) for k, v in arrays.items())
        return state

    def _train_against(self, client: Client, round_idx: int,
                       snapshot: dict[str, np.ndarray]) -> Any:
        """:meth:`_train` with ``snapshot`` (a :meth:`server_snapshot`)
        installed as the server state, and the live state put back after.
        Neither side goes through :meth:`load_worker_sync_state`: the
        downlink row table must not see a state it never served."""
        live_model = self.global_model.state_dict()
        declared = self.server_arrays()
        live = {prefix: dict(arrays) for prefix, arrays in declared.items()}
        self.global_model.load_state_dict(
            {k[len("model."):]: v for k, v in snapshot.items()
             if k.startswith("model.")})
        for prefix, arrays in declared.items():
            arrays.update((k, snapshot[prefix + k]) for k in live[prefix])
        try:
            return self._train(client, round_idx)
        finally:
            self.global_model.load_state_dict(live_model)
            for prefix, arrays in declared.items():
                arrays.update(live[prefix])

    def encoded_sync_state(self) -> bytes:
        """:meth:`worker_sync_state` as wire bytes, broadcast-cached.

        The sync state is identical for every worker of a round, so it is
        framed once under the transport's round token ("sync" channel of
        its :class:`~repro.fl.wire.BroadcastCache`) — repeat calls within
        a round (e.g. for a re-sampled cohort) return the cached blob.
        Pool plumbing, not traffic: nothing is charged.
        """
        transport = self.transport
        return transport.broadcast.encode(
            self.worker_sync_state(), token=transport.token, channel="sync",
            variant=transport.variant)

    # Class-level so the "non-dict update" warning fires once per
    # algorithm class, not once per round.
    _warned_lossless_update = False

    def update_train_loss(self, update: Any) -> float:
        """Extract the training loss from an update, uniformly.

        Every built-in algorithm returns a dict with a ``"train_loss"``
        key; an update without one yields ``nan`` and a single warning
        (per algorithm class) rather than silently skewing
        ``RoundResult.avg_train_loss`` every round.
        """
        if isinstance(update, dict) and "train_loss" in update:
            return float(update["train_loss"])
        if not type(self)._warned_lossless_update:
            type(self)._warned_lossless_update = True
            warnings.warn(
                f"{type(self).__name__} updates carry no 'train_loss' key; "
                "RoundResult.avg_train_loss will ignore them",
                RuntimeWarning, stacklevel=2)
        return float("nan")

    def close(self) -> None:
        """Release executor resources (worker pools). Idempotent."""
        self.executor.close()

    # ------------------------------------------------------------ loop
    def run_round(self, round_idx: int) -> RoundResult:
        """One synchronous round: a resident fold and one wave, so a
        process pool sees the whole cohort in one ``collect``."""
        return Round(self, round_idx).finish()

    def _train(self, client: Client, round_idx: int) -> Any:
        """Local update plus the (once-per-update) uplink quantization."""
        with get_tracer().span("local_update", round=round_idx,
                               client=client.client_id):
            update = self.local_update(client, round_idx)
        return self.quantize_update(client, update, round_idx)

    def _client_exchange(self, client: Client, round_idx: int, salt: int,
                         stats: FaultStats) -> Any:
        """Download → train → upload for one client, with retries.

        Both transfers go through :attr:`transport`, which charges,
        traces and (under a fault model) corrupts them.  Under a fault
        model, a completed local update is cached across attempts — an
        upload corruption triggers a *retransmission*, never silent
        retraining — and a mid-training crash rolls the client's
        persistent state back to its pre-round snapshot before retrying.
        """
        tracer = get_tracer()
        cid = client.client_id
        fm = self.fault_model
        if fm is None:
            self._download(client, round_idx)
            update = self._train(client, round_idx)
            self._upload(cid, round_idx, update)
            return update

        update = None
        failure: ClientFailure | None = None
        for attempt in range(self.retry_policy.max_attempts):
            with tracer.span("attempt", round=round_idx, client=cid,
                             attempt=attempt, salt=salt) as attempt_span:
                try:
                    if update is None:
                        fm.check_available(round_idx, cid, salt, attempt)
                        self._download(client, round_idx, salt, attempt)
                        fm.check_straggler(round_idx, cid, salt, attempt,
                                           self.epochs_for(client, round_idx))
                        # Taken after the download: what a device received
                        # it keeps, base included, whatever happens to its
                        # training — a timed-out or crashed client's retry
                        # is sent the (empty) delta since that download,
                        # as an async client re-arriving after a crash is.
                        snapshot = client.snapshot_local_state()
                        # Quantized before the crash draw: a crash rolls the
                        # client's state (incl. EF residuals) back to the
                        # pre-round snapshot, so the retrain re-quantizes
                        # from a clean slate with the same seeded codes.
                        update = self._train(client, round_idx)
                        try:
                            fm.check_crash(round_idx, cid, salt, attempt)
                        except ClientCrashed:
                            client.restore_local_state(snapshot)
                            update = None
                            raise
                    self._upload(cid, round_idx, update, salt, attempt)
                    return update
                except ClientFailure as err:
                    attempt_span.set(failure=type(err).__name__)
                    stats.record_attempt_failure(err)
                    failure = err
            if attempt + 1 < self.retry_policy.max_attempts:
                stats.n_retries += 1
                stats.backoff_time += self.retry_policy.delay(attempt)
        raise failure

    def per_client_accuracy(
            self, evict: Callable[[int], None] | None = None) -> list[float]:
        """Per-client local validation top-1 accuracies (the paper's
        local-accuracy figure).  ``evict`` is called with each client's id
        right after its evaluation (virtual populations bound residency
        with it)."""
        accs = []
        for client in self.clients:
            accs.append(client.evaluate(self.client_eval_model(client))[0])
            if evict is not None:
                evict(client.client_id)
        return accs

    def evaluate_all(self,
                     evict: Callable[[int], None] | None = None) -> float:
        """Average local validation top-1 accuracy across *all* clients."""
        return float(np.mean(self.per_client_accuracy(evict)))

    def run(self, rounds: int, target_accuracy: float | None = None,
            patience: int | None = None, log: ExperimentLog | None = None,
            verbose: bool = False) -> ExperimentLog:
        """Run up to ``rounds`` rounds.

        Stops early when ``target_accuracy`` is reached (Table I protocol)
        or when the accuracy stream stops improving for ``patience`` rounds
        (Table II "train to converge" protocol).
        """
        log = log or ExperimentLog(self.name, verbose=verbose)
        stopper = EarlyStopper(patience=patience) if patience else None
        for r in range(self.rounds_completed, self.rounds_completed + rounds):
            result = self.run_round(r)
            scalars = dict(round=r, train_loss=result.avg_train_loss,
                           val_acc=result.avg_val_acc,
                           round_gb=result.round_bytes / 2 ** 30,
                           total_gb=self.ledger.total_gb())
            if self.fault_model is not None:
                scalars.update(n_dropped=result.n_dropped,
                               n_retries=result.n_retries,
                               n_corrupt=result.n_corrupt,
                               n_resamples=result.n_resamples,
                               committed=float(result.committed))
            log.log(**scalars)
            if target_accuracy is not None and result.avg_val_acc >= target_accuracy:
                log.meta["reached_target_at"] = r + 1
                break
            if stopper is not None and stopper.update(result.avg_val_acc):
                log.meta["converged_at"] = r + 1
                break
        # Always overwrite: a resumed run must report the *current* round
        # count, not the stale pre-resume value a setdefault would keep.
        log.meta["rounds_run"] = self.rounds_completed
        log.meta["total_gb"] = self.ledger.total_gb()
        log.meta["per_round_per_client_mb"] = self.ledger.per_round_per_client_mb()
        if self.fault_model is not None:
            log.meta["fault_totals"] = self.fault_stats.as_dict()
        return log
