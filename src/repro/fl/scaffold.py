"""SCAFFOLD (Karimireddy et al., ICML 2020) — full-model control variates.

Server keeps a control variate ``c``; each client keeps ``c_i``.  Every
local SGD step is corrected by ``+ (c - c_i)`` (drift removal), and after
``K`` local steps with learning rate ``eta_l`` the client refreshes its
variate with option II of the paper:

    c_i+ = c_i - c + (x - y_i) / (K * eta_l)

The server then updates model and variate from the deltas:

    x <- x + eta_g * mean(y_i - x)
    c <- c + (|S| / N) * mean(c_i+ - c_i)

Wire cost: (model + c) down, (delta + delta_c) up — 2x FedAvg, matching
the paper's Table I.  ``c⁰ = 0`` on both sides, so a first contact is not
sent the rows of ``c`` that are still zero (DESIGN.md §5.1): round 0 is
model down, 1.5x FedAvg.

Faithfulness note (SPATL §V-B, finding 6 of the Non-IID benchmark): with
many clients and partial participation SCAFFOLD is prone to gradient
explosion / divergence.  This implementation deliberately applies *no*
stabilisation beyond the optional global ``max_grad_norm`` inherited from
the base class, so the reproduction exhibits the same failure mode the
paper reports.
"""

from __future__ import annotations

import numpy as np

from repro.fl.base import FederatedAlgorithm
from repro.fl.client import Client
from repro.fl.local import train_local


class Scaffold(FederatedAlgorithm):
    """Stochastic controlled averaging; see module docstring for equations."""
    name = "scaffold"
    zero_born = ("c.",)      # c⁰ = 0, as every client's c_i

    def __init__(self, *args, server_lr: float = 1.0, **kwargs):
        # SCAFFOLD's algorithm specifies *vanilla* local SGD; its variate
        # refresh (x - y_i)/(K*eta) is only consistent without momentum.
        # Callers may still force momentum explicitly to reproduce the
        # momentum-driven explosions the Non-IID benchmark reports.
        kwargs.setdefault("momentum", 0.0)
        super().__init__(*args, **kwargs)
        self._work = self.model_fn()
        self.server_lr = server_lr
        self.c_global: dict[str, np.ndarray] = {
            n: np.zeros_like(p.data) for n, p in self.global_model.named_parameters()}

    def _client_variate(self, client: Client) -> dict[str, np.ndarray]:
        if "c_i" not in client.local_state:
            client.local_state["c_i"] = {n: np.zeros_like(v)
                                         for n, v in self.c_global.items()}
        return client.local_state["c_i"]

    def server_arrays(self) -> dict[str, dict[str, np.ndarray]]:
        """The server control variate, synced as ``cv.*``."""
        return {"cv.": self.c_global}

    def downlink_state(self) -> dict[str, np.ndarray]:
        payload = self.global_model.state_dict()
        payload.update({f"c.{n}": v for n, v in self.c_global.items()})
        return payload

    def local_update(self, client: Client, round_idx: int) -> dict:
        self._work.load_state_dict(self.global_model.state_dict())
        c_i = self._client_variate(client)
        c = self.c_global
        before = {n: p.data.copy() for n, p in self._work.named_parameters()}

        def control(name: str, grad: np.ndarray) -> np.ndarray:
            return grad + c[name] - c_i[name]

        loss, steps, _ = train_local(self._work, client, round_idx,
                                     epochs=self.epochs_for(client, round_idx), lr=self.lr,
                                     momentum=self.momentum,
                                     weight_decay=self.weight_decay,
                                     max_grad_norm=self.max_grad_norm,
                                     correction_hook=control,
                                     compiler=self.step_compiler)
        k_eta = max(steps, 1) * self.lr
        delta_w = {n: p.data - before[n] for n, p in self._work.named_parameters()}
        c_i_new = {n: c_i[n] - c[n] - delta_w[n] / k_eta for n in c_i}
        delta_c = {n: c_i_new[n] - c_i[n] for n in c_i}
        client.local_state["c_i"] = c_i_new
        buffers = {n: b.copy() for n, b in self._work.named_buffers()}
        return {"delta_w": delta_w, "delta_c": delta_c, "buffers": buffers,
                "n": client.num_train, "train_loss": loss, "steps": steps}

    def upload_payload(self, update: dict) -> dict[str, np.ndarray]:
        payload = {f"dw.{n}": v for n, v in update["delta_w"].items()}
        payload.update({f"dc.{n}": v for n, v in update["delta_c"].items()})
        payload.update(update["buffers"])
        return payload

    def aggregate(self, updates: list[dict], round_idx: int) -> None:
        # Survivor correctness under dropout: the model step averages over
        # the n_sel *surviving* deltas, while the variate step keeps the
        # paper's (|S|/N) damping with |S| = survivors — i.e. the c update
        # sums survivor variate deltas and normalises by N (= n_all), so a
        # dropped client contributes nothing rather than a stale term.
        if not updates:
            raise ValueError("aggregate() needs >= 1 surviving update; "
                             "skipped rounds must not reach aggregation")
        n_sel = len(updates)
        n_all = len(self.clients)
        params = dict(self.global_model.named_parameters())
        for name, param in params.items():
            mean_dw = sum(u["delta_w"][name] for u in updates) / n_sel
            param.data += (self.server_lr * mean_dw).astype(param.data.dtype)
            mean_dc = sum(u["delta_c"][name] for u in updates) / n_sel
            self.c_global[name] = (self.c_global[name]
                                   + (n_sel / n_all) * mean_dc).astype(param.data.dtype)
        owners = self.global_model._buffer_owners()
        for name, (owner, local) in owners.items():
            first = np.asarray(updates[0]["buffers"][name])
            if first.dtype.kind in "iu":
                avg = first
            else:
                avg = sum(u["buffers"][name] for u in updates) / n_sel
            owner.set_buffer(local, np.asarray(avg, dtype=first.dtype))
