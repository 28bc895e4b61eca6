"""Sparse-at-init uplink masks: SalientGrads- and SSFL-style variants.

Two communication-reduction baselines from the PAPERS.md related work
that fix a *static* sparse communication pattern before training starts,
in contrast to :class:`~repro.fl.topk.FedTopK` (re-selects coordinates
every round, pays index bytes every round) and SPATL (re-selects salient
*structures* per round):

- :class:`SalientGrads` — pre-training gradient saliency: before round
  0, every client scores each parameter coordinate by ``|grad * weight|``
  (SNIP-style, one batch), the server averages the scores and keeps the
  top ``density`` fraction per tensor as the one global mask.  The
  one-time score upload and mask broadcast are charged to the ledger
  (round 0), so the bootstrap is not free bytes.
- :class:`SSFL` — unified subnetwork at initialization: the mask is the
  top ``density`` fraction by initial weight magnitude, derived from the
  seeded global init that server and clients already share — zero
  bootstrap communication.

After setup both run FedAvg locally but the uplink carries **only the
masked coordinates' values** — no indices, since both sides hold the
mask — plus dense buffers (BN statistics).  Aggregation folds the masked
coordinates with FedAvg weighting and leaves every unmasked global
coordinate at its initial value; local training of unmasked weights is
discarded at the next download (the subnetwork is the only globally
shared model).  Per-round uplink is therefore ``density * 4`` bytes per
parameter before quantization, and the payload is plain float values +
dense buffers — exactly the shape the low-bit codec (DESIGN.md §16)
compresses best, so ``--quant-bits 4`` stacks multiplicatively on top.
"""

from __future__ import annotations

import numpy as np

from repro.fl.client import Client
from repro.fl.fedavg import FedAvg
from repro.tensor import Tensor, functional as F


class SparseInitFL(FedAvg):
    """Shared masked-uplink machinery; subclasses supply the mask scores.

    ``density`` is the kept fraction of each parameter tensor.  The mask
    is built once in ``__init__`` (both server and clients are assumed to
    derive/receive it before round 0) and stays fixed for the whole run,
    so every round's wire format is index-free.
    """

    name = "sparseinit"

    def __init__(self, *args, density: float = 0.3, **kwargs):
        super().__init__(*args, **kwargs)
        if not 0.0 < density <= 1.0:
            raise ValueError("density must be in (0, 1]")
        self.density = density
        self.masks = self._build_masks()
        self._charge_mask_bootstrap()

    # ------------------------------------------------------------- masks
    def _mask_scores(self) -> dict[str, np.ndarray]:
        """Per-parameter saliency scores (higher = kept)."""
        raise NotImplementedError

    def _build_masks(self) -> dict[str, np.ndarray]:
        masks: dict[str, np.ndarray] = {}
        for name, scores in self._mask_scores().items():
            flat = np.abs(np.asarray(scores, dtype=np.float64)).ravel()
            k = max(1, int(round(self.density * flat.size)))
            keep = np.argpartition(flat, -k)[-k:] if k < flat.size \
                else np.arange(flat.size)
            masks[name] = np.sort(keep).astype(np.int64)
        return masks

    def _charge_mask_bootstrap(self) -> None:
        """Ledger charges for any setup communication (round 0)."""

    # ------------------------------------------------------------- wire
    def local_update(self, client: Client, round_idx: int) -> dict:
        """FedAvg's local step, kept as what the uplink carries: each
        masked tensor's values gathered at the mask (``name.val``), then
        the unmasked entries (buffers) — the payload the server folds."""
        update = super().local_update(client, round_idx)
        state = update.pop("state")
        upload = {f"{name}.val": np.ascontiguousarray(
            np.asarray(state[name]).ravel()[idx], dtype=np.float32)
            for name, idx in self.masks.items()}
        upload.update((n, a) for n, a in state.items() if n not in self.masks)
        return {"upload": upload, **update}

    def upload_payload(self, update: dict) -> dict[str, np.ndarray]:
        return update["upload"]

    # -------------------------------------------------------- aggregation
    # Masked aggregation is not FedAvg's dict mean (unmasked coordinates
    # must stay at init), so the family states its own server step.
    def server_step(self, payloads, pairs) -> None:
        weights = np.asarray([n * w for n, w in pairs], dtype=np.float64)
        p = weights / weights.sum()
        acc = {name: np.zeros(idx.size, dtype=np.float64)
               for name, idx in self.masks.items()}
        for pi, payload in zip(p, payloads()):
            for name, values in acc.items():
                values += pi * payload[f"{name}.val"]
        for name, param in self.global_model.named_parameters():
            flat = param.data.ravel()
            flat[self.masks[name]] = acc[name].astype(param.data.dtype)
        self._mean_buffers(payloads, pairs)


class SSFL(SparseInitFL):
    """Unified subnetwork at initialization (SSFL-style).

    The mask is the top ``density`` fraction of each parameter tensor by
    initial weight magnitude.  Both sides derive it from the seeded
    global init they already share, so setup costs zero bytes.
    """

    name = "ssfl"

    def _mask_scores(self) -> dict[str, np.ndarray]:
        return {n: np.abs(p.data)
                for n, p in self.global_model.named_parameters()}


class SalientGrads(SparseInitFL):
    """Pre-training gradient-saliency mask (SalientGrads-style).

    Each client runs one forward/backward on its first local batch of the
    *initial* global model and scores coordinates by ``|grad * weight|``;
    the server averages client scores into the one global mask.  Score
    uploads (one full model-shaped float32 tensor set per client) and the
    mask broadcast (int32 indices per tensor) are charged to the ledger
    as round-0 traffic.
    """

    name = "salientgrads"

    def _client_saliency(self, client: Client) -> dict[str, np.ndarray]:
        self._work.load_state_dict(self.global_model.state_dict())
        self._work.train()
        xb, yb = next(iter(client.train_loader(0)))
        logits = self._work(Tensor(xb))
        loss = F.cross_entropy(logits, yb)
        self._work.zero_grad()
        loss.backward()
        return {n: np.abs((p.grad if p.grad is not None
                           else np.zeros_like(p.data)) * p.data)
                .astype(np.float32)
                for n, p in self._work.named_parameters()}

    def _mask_scores(self) -> dict[str, np.ndarray]:
        total: dict[str, np.ndarray] = {}
        for client in self.clients:
            scores = self._client_saliency(client)
            self.transport.charge("up", 0, client.client_id, scores)
            for name, s in scores.items():
                acc = total.get(name)
                total[name] = s.astype(np.float64) if acc is None else acc + s
        return {n: s / len(self.clients) for n, s in total.items()}

    def _charge_mask_bootstrap(self) -> None:
        mask_payload = {f"{n}.idx": idx.astype(np.int32)
                        for n, idx in self.masks.items()}
        for client in self.clients:
            self.transport.charge("down", 0, client.client_id, mask_payload)
