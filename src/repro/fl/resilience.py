"""Fault-tolerance primitives for the federated round loop.

Real FL deployments (the heterogeneous edge regime of §I/§IV) lose
clients mid-round: devices go offline, stragglers blow past the server's
deadline, and payloads arrive corrupted.  This module gives the server
loop a typed vocabulary for those failures plus the two recovery
mechanisms it applies:

- :class:`RetryPolicy` — capped exponential backoff per client attempt
  (the backoff delay is *simulated* time, accumulated in
  :class:`FaultStats` rather than slept);
- a quorum rule, enforced by :class:`repro.fl.base.Round`: a round
  commits only when at least ``min_clients`` updates survive, otherwise
  it is re-sampled with a fresh seed salt and, failing that, skipped.

The exception hierarchy is deliberately shallow so algorithms can catch
:class:`ClientFailure` and stay agnostic to *why* a client was lost.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.obs.metrics import get_registry


def _rebuild_failure(cls: type, client_id: int, round_idx: int,
                     reason: str, entry: str | None = None,
                     offset: int | None = None) -> "ClientFailure":
    """Reconstruct a failure after a cross-process hop (pickle target).

    Subclass ``__init__`` signatures differ (duration, cause...), so
    rebuilding goes through ``__new__`` + the base initializer: the class
    identity, message, core fields, and codec context (``entry`` /
    ``offset``) survive; subclass-only extras (which may themselves be
    unpicklable, like a wrapped exception) do not.
    """
    failure = ClientFailure.__new__(cls)
    RuntimeError.__init__(failure,
                          f"client {client_id} round {round_idx}: {reason}")
    failure.client_id = client_id
    failure.round_idx = round_idx
    failure.reason = reason
    failure.entry = entry
    failure.offset = offset
    return failure


class ClientFailure(RuntimeError):
    """A client failed to deliver a usable update this attempt.

    ``entry`` / ``offset`` carry the codec context when the failure
    originated inside the wire path (a :class:`PayloadError` names the
    state-dict entry being decoded and the byte offset where decoding
    stopped); they are ``None`` for failures outside the codec.  Both
    survive the cross-process pickle hop, so a parent can still point at
    the corrupted entry of a payload that died in a worker.
    """

    def __init__(self, client_id: int, round_idx: int, reason: str,
                 entry: str | None = None, offset: int | None = None):
        super().__init__(
            f"client {client_id} round {round_idx}: {reason}")
        self.client_id = client_id
        self.round_idx = round_idx
        self.reason = reason
        self.entry = entry
        self.offset = offset

    def __reduce__(self):
        """Pickle support for shipping failures out of worker processes."""
        return (_rebuild_failure,
                (type(self), self.client_id, self.round_idx, self.reason,
                 self.entry, self.offset))


class ClientDropped(ClientFailure):
    """The client was unreachable (offline before/while participating)."""


class ClientCrashed(ClientDropped):
    """The client crashed mid-training; its persistent state is rolled
    back to the pre-round snapshot, as a real restarted process would
    reload it from disk."""


class WorkerCrashed(ClientDropped):
    """The *executor worker process* running this client died (segfault,
    OOM-kill, ``os._exit``).  Unlike the simulated faults above this is a
    real infrastructure failure: with no fault model configured it
    propagates out of ``run_round``; with one, the client is recorded as
    dropped and the pool is rebuilt (DESIGN.md §9)."""


class StragglerTimeout(ClientFailure):
    """The client's simulated round duration exceeded the server deadline.

    When the deadline fires *inside* the codec path (a transfer that was
    still decoding when time ran out), ``entry``/``offset`` locate how far
    the decode got; they stay ``None`` for plain compute stragglers.
    """

    def __init__(self, client_id: int, round_idx: int, duration: float,
                 timeout: float, entry: str | None = None,
                 offset: int | None = None):
        super().__init__(client_id, round_idx,
                         f"straggler took {duration:.2f} epoch-units "
                         f"(> timeout {timeout:.2f})",
                         entry=entry, offset=offset)
        self.duration = duration
        self.timeout = timeout


class TransferCorrupted(ClientFailure):
    """A payload failed checksum/structural validation after transfer.

    The codec context of the underlying :class:`PayloadError` — which
    entry was being decoded and at what byte offset validation stopped —
    is lifted onto the failure itself (``entry``/``offset``), so it
    survives even where ``cause`` cannot (the cross-process pickle hop
    drops wrapped exceptions)."""

    def __init__(self, client_id: int, round_idx: int, direction: str,
                 cause: Exception):
        super().__init__(client_id, round_idx,
                         f"{direction}link payload corrupted: {cause}",
                         entry=getattr(cause, "entry", None),
                         offset=getattr(cause, "offset", None))
        self.direction = direction
        self.cause = cause


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff: ``delay(a) = min(base * factor^a, cap)``.

    ``max_retries`` counts *extra* attempts after the first, so a client
    gets ``max_retries + 1`` chances per round before it is declared
    dropped.
    """

    max_retries: int = 2
    base_delay: float = 0.5
    backoff_factor: float = 2.0
    max_delay: float = 8.0

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        # written so that NaN, which fails every comparison, is refused
        if not (self.base_delay >= 0 and self.max_delay >= 0
                and self.backoff_factor > 0):
            raise ValueError("delays must be non-negative, factor positive")

    @property
    def max_attempts(self) -> int:
        return self.max_retries + 1

    def delay(self, attempt: int) -> float:
        """Simulated seconds to wait after failed attempt ``attempt``."""
        return min(self.base_delay * self.backoff_factor ** attempt,
                   self.max_delay)


@dataclass
class FaultStats:
    """Counters for one round (or, accumulated, for a whole run).

    Attempt-level counters (``n_retries``, ``n_corrupt``...) count
    *events* and so may exceed the cohort size.  ``n_dropped`` counts
    client *outcomes*: distinct clients that never delivered an update
    within the round.  Drop candidates are staged in an internal log by
    :meth:`record_failure`; a later :meth:`record_delivery` for the same
    client (a retried-then-succeeded client, e.g. after a quorum
    re-sample) withdraws the candidate, and :meth:`finalize_drops` folds
    whatever remains into ``n_dropped`` — so a client re-dropped across
    re-sample iterations counts once, and one that eventually succeeded
    counts zero times.
    """

    n_dropped: int = 0     # distinct clients that never delivered this round
    n_retries: int = 0     # extra attempts performed
    n_corrupt: int = 0     # corrupted transfers detected (either direction)
    n_timeouts: int = 0    # straggler deadline misses
    n_crashes: int = 0     # mid-training crashes (state rolled back)
    n_resamples: int = 0   # quorum-failed re-samples of the round cohort
    backoff_time: float = 0.0  # simulated seconds spent backing off

    def __post_init__(self):
        # Round-scoped drop staging; not dataclass fields, so merge /
        # as_dict / equality stay pure counter arithmetic.  (Pickle ships
        # __dict__, so staged entries survive a process hop too.)
        self._drops: dict[int, str] = {}
        self._delivered: set[int] = set()

    def record_failure(self, failure: ClientFailure) -> None:
        """Stage a client that permanently failed an iteration (post-retries).

        Becomes an ``n_dropped`` count at :meth:`finalize_drops` unless a
        :meth:`record_delivery` for the same client lands first.
        """
        if failure.client_id not in self._delivered:
            self._drops.setdefault(failure.client_id,
                                   type(failure).__name__)

    def record_delivery(self, client_id: int) -> None:
        """A client delivered a usable update: withdraw any staged drop."""
        self._delivered.add(client_id)
        self._drops.pop(client_id, None)

    def finalize_drops(self) -> None:
        """Fold staged drops into ``n_dropped`` (idempotent; end of round)."""
        registry = get_registry()
        for kind in self._drops.values():
            self.n_dropped += 1
            registry.counter("fl.clients_dropped", kind=kind).inc()
        self._drops.clear()
        self._delivered.clear()

    def record_attempt_failure(self, failure: ClientFailure) -> None:
        """One attempt failed (may be retried)."""
        if isinstance(failure, TransferCorrupted):
            self.n_corrupt += 1
        elif isinstance(failure, StragglerTimeout):
            self.n_timeouts += 1
        elif isinstance(failure, ClientCrashed):
            self.n_crashes += 1
        get_registry().counter("fl.attempt_failures",
                               kind=type(failure).__name__).inc()

    def merge(self, other: "FaultStats") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultStats":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in known})

    def snapshot(self) -> dict:
        """JSON-able mid-round state: the counters plus the staged
        per-client outcomes (drops are withdrawn on delivery, so both
        sides must survive a resume)."""
        return {"counters": self.as_dict(),
                "drops": {str(c): kind for c, kind in self._drops.items()},
                "delivered": sorted(self._delivered)}

    @classmethod
    def restore(cls, snap: dict) -> "FaultStats":
        stats = cls.from_dict(snap["counters"])
        stats._drops = {int(c): kind for c, kind in snap["drops"].items()}
        stats._delivered = set(snap["delivered"])
        return stats
