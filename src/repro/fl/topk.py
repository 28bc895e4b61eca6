"""Top-k delta sparsification — the classical communication-compression
baseline (adaptive gradient sparsification line of work the paper cites,
Han et al. 2020).

Each client uploads only the ``k`` fraction of its model-delta coordinates
with the largest magnitude (plus their int32 indices); the server applies
the sparse deltas with FedAvg weighting.  Unlike SPATL, selection is at
*coordinate* granularity on deltas, carries no structural meaning (no
FLOPs reduction at inference), and has no gradient control — this is the
"merely send fewer bytes" comparator that isolates how much of SPATL's
win is structure vs. sparsity.
"""

from __future__ import annotations

import numpy as np

from repro.fl.base import FederatedAlgorithm
from repro.fl.client import Client
from repro.fl.local import train_local


def topk_mask(delta: np.ndarray, fraction: float) -> np.ndarray:
    """Flat indices of the largest-|value| ``fraction`` of ``delta``."""
    flat = np.abs(delta).ravel()
    k = max(1, int(round(fraction * flat.size)))
    return np.sort(np.argpartition(flat, -k)[-k:]).astype(np.int64)


def topk_feedback(update: np.ndarray, residual, fraction: float
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top-k sparsification with error feedback: ``(idx, vals, residual')``
    of ``update + residual``, where ``residual'`` is what was not sent —
    so ``residual' + scatter(idx, vals) == update + residual``."""
    delta = update + residual
    idx = topk_mask(delta, fraction)
    vals = delta.ravel()[idx].copy()
    kept = np.zeros_like(delta).ravel()
    kept[idx] = vals
    return idx, vals, delta - kept.reshape(delta.shape)


class FedTopK(FederatedAlgorithm):
    """FedAvg with top-k sparsified delta uploads.

    ``fraction`` is the kept share of coordinates per tensor.  Residuals
    (the dropped delta mass) are accumulated locally and added to the next
    round's delta — the standard error-feedback trick that keeps top-k
    convergent.
    """

    name = "fedtopk"

    def __init__(self, *args, fraction: float = 0.25, **kwargs):
        super().__init__(*args, **kwargs)
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        self.fraction = fraction
        self._work = self.model_fn()

    def downlink_state(self) -> dict[str, np.ndarray]:
        return self.global_model.state_dict()

    def local_update(self, client: Client, round_idx: int) -> dict:
        self._work.load_state_dict(self.global_model.state_dict())
        before = {n: p.data.copy() for n, p in self._work.named_parameters()}
        loss, steps, _ = train_local(self._work, client, round_idx,
                                     epochs=self.epochs_for(client, round_idx),
                                     lr=self.lr, momentum=self.momentum,
                                     weight_decay=self.weight_decay,
                                     max_grad_norm=self.max_grad_norm,
                                     compiler=self.step_compiler)
        residual = client.local_state.setdefault("residual", {})
        sparse: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for n, p in self._work.named_parameters():
            idx, vals, residual[n] = topk_feedback(
                p.data - before[n], residual.get(n, 0.0), self.fraction)
            sparse[n] = (idx.astype(np.int32), vals.astype(np.float32))
        buffers = {n: b.copy() for n, b in self._work.named_buffers()}
        return {"sparse": sparse, "buffers": buffers, "n": client.num_train,
                "train_loss": loss, "steps": steps}

    def upload_payload(self, update: dict) -> dict[str, np.ndarray]:
        payload: dict[str, np.ndarray] = {}
        for n, (idx, vals) in update["sparse"].items():
            payload[f"{n}.idx"] = idx
            payload[f"{n}.val"] = vals
        payload.update(update["buffers"])
        return payload

    def server_step(self, payloads, pairs) -> None:
        """Scatter-add each upload's kept coordinates with FedAvg
        weighting; the buffers take FedAvg's mean."""
        weights = np.asarray([n * w for n, w in pairs], dtype=np.float64)
        p = weights / weights.sum()
        params = dict(self.global_model.named_parameters())
        acc = {name: np.zeros(param.data.size, dtype=np.float64)
               for name, param in params.items()}
        for pi, payload in zip(p, payloads()):
            for name, flat in acc.items():
                idx = np.asarray(payload[f"{name}.idx"], dtype=np.int64)
                flat[idx] += pi * payload[f"{name}.val"]
        for name, param in params.items():
            flat = param.data.ravel()
            flat += acc[name].astype(flat.dtype)
        self._mean_buffers(payloads, pairs)
