"""Population-scale federated simulation (DESIGN.md §13).

Four pieces, composable with every algorithm and executor:

- :class:`ClientStateStore` — sharded spill-to-disk KV store for
  per-client persistent state;
- :class:`VirtualClientPool` / :class:`VirtualClient` — lazily
  materialized population over the store;
- folds (:mod:`repro.fl.scale.fold`) — :class:`StreamingFold`, which
  streams parked upload payloads to an algorithm's ``server_step``, and
  SPATL's running :class:`SPATLFold`: what every driver aggregates
  through, O(model) when spilled to disk;
- :class:`ScaleRunner` — the streaming round loop.
"""

from repro.fl.scale.fold import SPATLFold, StreamingFold, UpdateSpill
from repro.fl.scale.runner import ScaleRunner
from repro.fl.scale.store import (ClientStateStore, decode_client_state,
                                  encode_client_state)
from repro.fl.scale.virtual import (ShardedClientFactory, StubClientFactory,
                                    VirtualClient, VirtualClientPool)

__all__ = [
    "ClientStateStore", "encode_client_state", "decode_client_state",
    "UpdateSpill", "StreamingFold", "SPATLFold", "VirtualClient",
    "VirtualClientPool",
    "ShardedClientFactory", "StubClientFactory", "ScaleRunner",
]
