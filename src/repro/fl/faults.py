"""Deterministic fault injection for federated rounds.

SPATL's target regime is heterogeneous, unreliable edge clients (§I,
§IV), so the reproduction must be exercisable under the failure modes a
real deployment sees: clients dropping offline, stragglers missing the
server deadline, processes crashing mid-training, and payloads arriving
bit-corrupted.  :class:`FaultModel` draws every fault from the repo's
seeded RNG tree (:func:`repro.utils.rng.spawn_rng`), keyed by
``(event, round, client, salt, attempt)`` — so a faulty run is exactly
reproducible, and retries/re-samples see *fresh* draws rather than
replaying the same failure forever.

The model only *draws* faults.  Bit corruption is applied — and detected,
charged and traced — by the one :class:`~repro.fl.comm.Transport`
(DESIGN.md §17); availability, straggler and crash draws are consumed by
the round loop (DESIGN.md §7).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.fl.resilience import (ClientCrashed, ClientDropped,
                                 StragglerTimeout)
from repro.utils.rng import spawn_rng


@dataclass(frozen=True)
class FaultModel:
    """Seeded, per-(client, round, attempt) failure distribution.

    All probabilities are per *attempt*, so a retry re-draws — a client
    that was offline may be reachable a moment later.  ``timeout`` is the
    server-side deadline in epoch-units of simulated work: a client's
    round duration is ``local_epochs * slowdown_factor`` where the
    slowdown factor is drawn uniformly from ``[1, slowdown]`` for
    stragglers and 1 otherwise.
    """

    drop_prob: float = 0.0        # client unreachable for the attempt
    straggler_prob: float = 0.0   # client runs slow this attempt
    slowdown: float = 4.0         # max straggler slowdown factor
    timeout: float = math.inf     # server deadline (epoch-units)
    corrupt_prob: float = 0.0     # per-transfer bit-corruption probability
    crash_prob: float = 0.0       # crash mid-training (state rolled back)
    max_bit_flips: int = 4        # bits flipped per corrupted payload
    seed: int = 0

    def __post_init__(self):
        for name in ("drop_prob", "straggler_prob", "corrupt_prob",
                     "crash_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name}={p} not a probability")
        # written so that NaN, which fails every comparison, is refused
        if not self.slowdown >= 1.0:
            raise ValueError("slowdown must be >= 1")
        if not self.timeout > 0:
            raise ValueError("timeout must be > 0 (inf: no deadline)")
        if self.max_bit_flips < 1:
            raise ValueError("max_bit_flips must be >= 1")

    # ------------------------------------------------------------ draws
    def _rng(self, event: str, round_idx: int, client_id: int, salt: int,
             attempt: int) -> np.random.Generator:
        return spawn_rng(self.seed, "fault", event, round_idx, client_id,
                         salt, attempt)

    def check_available(self, round_idx: int, client_id: int, salt: int,
                        attempt: int) -> None:
        """Raise :class:`ClientDropped` if the client is offline."""
        rng = self._rng("drop", round_idx, client_id, salt, attempt)
        if rng.random() < self.drop_prob:
            raise ClientDropped(client_id, round_idx,
                                f"unreachable (attempt {attempt})")

    def check_straggler(self, round_idx: int, client_id: int, salt: int,
                        attempt: int, local_epochs: int) -> None:
        """Raise :class:`StragglerTimeout` if simulated work misses the
        server deadline."""
        if math.isinf(self.timeout):
            return
        rng = self._rng("straggler", round_idx, client_id, salt, attempt)
        factor = 1.0
        if rng.random() < self.straggler_prob:
            factor = 1.0 + rng.random() * (self.slowdown - 1.0)
        duration = local_epochs * factor
        if duration > self.timeout:
            raise StragglerTimeout(client_id, round_idx, duration,
                                   self.timeout)

    def check_crash(self, round_idx: int, client_id: int, salt: int,
                    attempt: int) -> None:
        """Raise :class:`ClientCrashed` if the client dies mid-training."""
        rng = self._rng("crash", round_idx, client_id, salt, attempt)
        if rng.random() < self.crash_prob:
            raise ClientCrashed(client_id, round_idx,
                                f"crashed mid-training (attempt {attempt})")

    def corrupt(self, blob: bytes, round_idx: int, client_id: int,
                salt: int, attempt: int, direction: str) -> bytes:
        """Return ``blob``, possibly with 1..``max_bit_flips`` bits flipped."""
        rng = self._rng(f"corrupt.{direction}", round_idx, client_id, salt,
                        attempt)
        if rng.random() >= self.corrupt_prob or not blob:
            return blob
        buf = bytearray(blob)
        n_flips = int(rng.integers(1, self.max_bit_flips + 1))
        for pos in rng.integers(0, len(buf), size=n_flips):
            buf[pos] ^= 1 << int(rng.integers(0, 8))
        return bytes(buf)


@dataclass(frozen=True)
class AsyncProfile:
    """Seeded per-client latency/availability profile for the async runtime.

    Extends the :class:`FaultModel` failure vocabulary with the *timing*
    dimension the event-driven server (DESIGN.md §12) needs: when a
    client first arrives, how long each training job takes in virtual
    time, whether it crashes mid-flight, whether its upload is delivered
    twice, and whether it churns away after uploading.  Every draw is
    keyed by ``(seed, "async", event, client, job)`` through the repo's
    :func:`~repro.utils.rng.spawn_rng` tree, so schedules are exactly
    reproducible and independent of event-processing order.

    The synchronous-equivalence regime (``buffer_k == cohort``, zero
    staleness — see :class:`~repro.fl.async_runtime.AsyncFederatedRunner`)
    needs uniform durations: ``jitter=0`` and ``straggler_prob=0``.
    """

    mean_latency: float = 1.0     # virtual seconds per local epoch
    jitter: float = 0.0           # +/- uniform fraction on each duration
    straggler_prob: float = 0.0   # job runs slow (x uniform[1, slowdown])
    slowdown: float = 4.0         # max straggler slowdown factor
    arrival_spread: float = 0.0   # first arrivals uniform in [0, spread]
    rejoin_delay: float = 0.0     # idle time between upload and re-arrival
    churn_prob: float = 0.0       # client leaves after an upload
    absence: float = 5.0          # mean virtual time away when churned
    crash_prob: float = 0.0       # job dies mid-flight (update lost)
    duplicate_prob: float = 0.0   # upload delivered a second time
    duplicate_delay: float = 1.0  # lag of the duplicate delivery
    seed: int = 0

    def __post_init__(self):
        for name in ("straggler_prob", "churn_prob", "crash_prob",
                     "duplicate_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name}={p} not a probability")
        # written so that NaN, which fails every comparison, is refused
        if not self.mean_latency > 0:
            raise ValueError("mean_latency must be > 0")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if not self.slowdown >= 1.0:
            raise ValueError("slowdown must be >= 1")
        for name in ("arrival_spread", "rejoin_delay", "absence",
                     "duplicate_delay"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")

    def _rng(self, event: str, client_id: int, job_id: int) -> np.random.Generator:
        return spawn_rng(self.seed, "async", event, client_id, job_id)

    def first_arrival(self, client_id: int) -> float:
        """Virtual time of the client's initial arrival."""
        if self.arrival_spread == 0.0:
            return 0.0
        return float(self._rng("arrive", client_id, 0).random()
                     * self.arrival_spread)

    def duration(self, client_id: int, job_id: int, local_epochs: int) -> float:
        """Virtual duration of one training-plus-upload job."""
        base = local_epochs * self.mean_latency
        rng = self._rng("duration", client_id, job_id)
        if self.jitter:
            base *= 1.0 + (2.0 * rng.random() - 1.0) * self.jitter
        if self.straggler_prob and rng.random() < self.straggler_prob:
            base *= 1.0 + rng.random() * (self.slowdown - 1.0)
        return float(base)

    def crashes(self, client_id: int, job_id: int) -> bool:
        """Whether this job dies mid-flight (its update never arrives)."""
        if self.crash_prob == 0.0:
            return False
        return bool(self._rng("crash", client_id, job_id).random()
                    < self.crash_prob)

    def duplicate_lag(self, client_id: int, job_id: int) -> float | None:
        """Extra delivery lag when the upload is duplicated, else None."""
        if self.duplicate_prob == 0.0:
            return None
        rng = self._rng("duplicate", client_id, job_id)
        if rng.random() >= self.duplicate_prob:
            return None
        return float(self.duplicate_delay * (0.5 + rng.random()))

    def rejoin_after(self, client_id: int, job_id: int) -> tuple[float, bool]:
        """(idle time before the next arrival, whether the client churned)."""
        if self.churn_prob:
            rng = self._rng("churn", client_id, job_id)
            if rng.random() < self.churn_prob:
                return float(self.absence * (0.5 + rng.random())), True
        return float(self.rejoin_delay), False
