"""Federated learning framework: clients, server loop, baselines, accounting.

Implements the experimental infrastructure of the paper's §V plus the four
baselines it compares against:

- :class:`FedAvg` (McMahan et al.) — weighted full-model averaging;
- :class:`FedProx` (Li et al.) — proximal term on local updates;
- :class:`FedNova` (Wang et al.) — normalized averaging of local progress;
- :class:`Scaffold` (Karimireddy et al.) — full-model control variates.

Every byte that crosses the (simulated) network is sent by the one
:class:`Transport` in :mod:`repro.fl.comm` (DESIGN.md §17), so
communication-cost tables are measured, not estimated.

Beyond the baselines, the package supplies the framework plumbing every
algorithm rides on:

- :mod:`repro.fl.wire` — the fast transport core behind
  :mod:`repro.fl.comm`: zero-copy codec, arena-backed scratch
  serialization, the per-round :class:`BroadcastCache`
  (DESIGN.md §11), and the versioned row-delta downlink
  (:class:`RowVersions` / :func:`apply_delta` / :func:`cold_cache`,
  DESIGN.md §5.1);
- :mod:`repro.fl.parallel` — pluggable round executors: the default
  in-process :class:`SerialExecutor` and a
  :class:`ProcessPoolRoundExecutor` that fans per-client work over worker
  processes with byte-identical results (DESIGN.md §9; CLI ``--workers``);
- :mod:`repro.fl.faults` / :mod:`repro.fl.resilience` — seeded fault
  injection and the retry/quorum recovery machinery (DESIGN.md §7);
- :mod:`repro.fl.async_runtime` — event-driven asynchronous server on a
  deterministic virtual clock: buffered (FedBuff-style) commits,
  staleness-discounted aggregation, and admission control
  (DESIGN.md §12; CLI ``--async``);
- :mod:`repro.fl.checkpoint` — bit-exact run checkpoint/resume, for both
  the synchronous loop and mid-flight async runs;
- :mod:`repro.fl.topk` — top-k delta sparsification with error feedback,
  a generic-compression comparator for SPATL's structured selection;
- :mod:`repro.fl.quant` — low-bit quantized uplink transport: stochastic
  int8/int4 codec with per-client error feedback, layered under every
  algorithm via ``quant=`` / ``--quant-bits`` (DESIGN.md §16);
- :mod:`repro.fl.sparse_init` — sparse-at-init masked uplinks:
  :class:`SalientGrads` (pre-training gradient saliency) and
  :class:`SSFL` (unified subnetwork at initialization), index-free
  sparse wire sharing;
- :mod:`repro.fl.scale` — population-scale simulation: virtual clients
  over a spill-to-disk state store and streaming fold aggregation
  (DESIGN.md §13; CLI ``scale``).
"""

from repro.fl.comm import (CommLedger, PayloadError, Transport,
                           payload_nbytes, serialize_state,
                           deserialize_state, sparse_payload_nbytes)
from repro.fl.wire import (BroadcastCache, RowVersions, apply_delta,
                           cold_cache, state_fingerprint)
from repro.fl.resilience import (ClientCrashed, ClientDropped, ClientFailure,
                                 FaultStats, RetryPolicy, StragglerTimeout,
                                 TransferCorrupted, WorkerCrashed)
from repro.fl.faults import AsyncProfile, FaultModel
from repro.fl.async_runtime import (AsyncConfig, AsyncFederatedRunner,
                                    StepResult, VirtualClock,
                                    staleness_weight)
from repro.fl.client import Client, make_federated_clients
from repro.fl.parallel import (ProcessPoolRoundExecutor, RoundExecutor,
                               SerialExecutor, make_executor)
from repro.fl.base import FederatedAlgorithm, RoundResult, sample_clients
from repro.fl.fedavg import FedAvg
from repro.fl.fedprox import FedProx
from repro.fl.fednova import FedNova
from repro.fl.scaffold import Scaffold
from repro.fl.topk import FedTopK
from repro.fl.quant import (QuantConfig, quantize_payload, dequantize_payload,
                            quant_payload_nbytes, make_quant_config)
from repro.fl.sparse_init import SalientGrads, SparseInitFL, SSFL
from repro.fl.scale import (ClientStateStore, ScaleRunner,
                            ShardedClientFactory, StubClientFactory,
                            UpdateSpill, VirtualClient, VirtualClientPool)

ALGORITHMS = {
    "fedavg": FedAvg,
    "fedprox": FedProx,
    "fednova": FedNova,
    "scaffold": Scaffold,
    "fedtopk": FedTopK,
    "salientgrads": SalientGrads,
    "ssfl": SSFL,
}

__all__ = [
    "CommLedger", "PayloadError", "payload_nbytes", "serialize_state",
    "deserialize_state", "sparse_payload_nbytes", "Client",
    "make_federated_clients", "FederatedAlgorithm", "RoundResult",
    "sample_clients", "FedAvg", "FedProx", "FedNova", "Scaffold", "FedTopK",
    "ALGORITHMS",
    "QuantConfig", "quantize_payload", "dequantize_payload",
    "quant_payload_nbytes", "make_quant_config",
    "SparseInitFL", "SalientGrads", "SSFL",
    "FaultModel", "Transport", "RetryPolicy", "FaultStats",
    "ClientFailure", "ClientDropped", "ClientCrashed", "StragglerTimeout",
    "TransferCorrupted", "WorkerCrashed",
    "RoundExecutor", "SerialExecutor", "ProcessPoolRoundExecutor",
    "make_executor",
    "BroadcastCache", "state_fingerprint", "RowVersions", "apply_delta",
    "cold_cache",
    "AsyncProfile", "AsyncConfig", "AsyncFederatedRunner", "StepResult",
    "VirtualClock", "staleness_weight",
    "ClientStateStore", "VirtualClient", "VirtualClientPool",
    "ShardedClientFactory", "StubClientFactory", "UpdateSpill",
    "ScaleRunner",
]
