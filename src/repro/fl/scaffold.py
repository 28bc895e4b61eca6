"""SCAFFOLD (Karimireddy et al., ICML 2020) — full-model control variates.

Server keeps a control variate ``c``; each client keeps ``c_i``.  Every
local SGD step is corrected by ``+ (c - c_i)`` (drift removal), and after
``K`` local steps with learning rate ``eta_l`` the client refreshes its
variate with option II of the paper:

    c_i+ = c_i - c + (x - y_i) / (K * eta_l)

The server then updates model and variate from the deltas:

    x <- x + eta_g * sum_i w_i (y_i - x) / sum_i w_i
    c <- c + sum_i w_i (c_i+ - c_i) / N

over the surviving uploads ``S`` of ``N`` clients: ``w_i = 1`` gives the
paper's ``mean`` and ``(|S| / N) * mean``; async runs pass staleness
discounts.

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

    def server_step(self, payloads, pairs) -> None:
        # The module docstring's step, in float32 sums in cohort order: a
        # dropped client adds nothing, a stale one its discounted share.
        # c moves by (W/N) * (sum / W), bitwise (|S|/N) * mean at w = 1.
        acc: dict[str, np.ndarray] = {}
        for (_, w), payload in zip(pairs, payloads()):
            for key, value in payload.items():
                integral = value.dtype.kind in "iu"
                if key not in acc:
                    acc[key] = value.copy() if integral else w * value
                elif not integral:
                    acc[key] += w * value
        w_sum = sum(w for _, w in pairs)
        n_all = len(self.clients)
        for name, param in self.global_model.named_parameters():
            mean_dw = acc[f"dw.{name}"] / w_sum
            param.data += (self.server_lr * mean_dw).astype(param.data.dtype)
            mean_dc = acc[f"dc.{name}"] / w_sum
            self.c_global[name] = (self.c_global[name] + (w_sum / n_all)
                                   * mean_dc).astype(param.data.dtype)
        for name, (owner, local) in self.global_model._buffer_owners().items():
            value = acc[name]
            if value.dtype.kind not in "iu":     # integer counters: the first
                value = value / w_sum
            owner.set_buffer(local, value)
