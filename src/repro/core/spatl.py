"""The SPATL trainer (§IV, Fig. 1).

Protocol per round, per selected client:

1. **Download** — the global encoder, plus the server control variate
   ``c`` when gradient control is on (:meth:`SPATL.downlink_state`).  A
   returning client gets only the rows that changed since the version it
   last synced at — Eq. 12 rewrites just the filters some upload covered
   and Eq. 11 moves ``c`` on those same rows, so the rest is not re-sent.
   A client that never synced gets the encoder and the rows of ``c``
   Eq. 11 has moved: ``c⁰ = 0`` and a joining client initialises it as
   it does its own ``c_i``, so those zeros never travel (DESIGN.md §5.1).
2. **Local update** (Eq. 3) — the client composes the downloaded encoder
   with its *private* predictor and trains both; encoder gradients are
   corrected by ``(c - c_i)`` (Eq. 9).  The predictor never leaves the
   client (knowledge transfer, §IV-A).
3. **Variate refresh** (Eq. 10) — the client refreshes its ``c_i`` from
   the encoder's net movement.
4. **Selection** — the salient-parameter policy (RL agent by default)
   picks the filters worth uploading; non-prunable encoder tensors travel
   dense.
5. **Upload** — selected filter rows + int32 indices + dense remainder.
6. **Aggregate** (Eq. 12) — index-wise averaging of covered filters;
   dense tensors average FedAvg-style.  The server reconstructs each
   client's variate delta from the upload itself (see
   :func:`repro.core.gradient_control.server_variate_delta`) and applies
   Eq. 11 — control information therefore costs no uplink bytes.

Ablation switches: ``use_selection`` (Fig. 4), ``use_transfer`` (Fig. 5a,
predictor becomes shared/aggregated), ``use_gradient_control`` (Fig. 5b).
"""

from __future__ import annotations

import numpy as np

from repro.core.gradient_control import (ControlVariate, make_correction_hook,
                                         refresh_client_variate)
from repro.core.selection_policies import (NoSelectionPolicy, SelectionPolicy,
                                           StaticSaliencyPolicy)
from repro.fl.base import FederatedAlgorithm
from repro.fl.client import Client
from repro.fl.local import train_local
from repro.graph import build_graph
from repro.models.split import SplitModel
from repro.pruning.selector import SalientSelection, select_salient


class SPATL(FederatedAlgorithm):
    """Salient Parameter Aggregation and Transfer Learning trainer.

    See the module docstring for the per-round protocol; constructor
    switches ``use_selection`` / ``use_transfer`` / ``use_gradient_control``
    drive the paper's ablations.
    """
    name = "spatl"
    zero_born = ("c.",)      # c⁰ = 0 (§IV-C), as every client's c_i

    def __init__(self, model_fn, clients, selection_policy: SelectionPolicy | None = None,
                 use_selection: bool = True, use_transfer: bool = True,
                 use_gradient_control: bool = True,
                 aggregation_step: float = 1.0, **kwargs):
        super().__init__(model_fn, clients, **kwargs)
        self._work: SplitModel = model_fn()
        self._eval: SplitModel = model_fn()
        if not use_selection:
            self.selection_policy: SelectionPolicy = NoSelectionPolicy()
        else:
            self.selection_policy = selection_policy or StaticSaliencyPolicy(0.3)
        self.use_transfer = use_transfer
        self.use_gradient_control = use_gradient_control
        self.aggregation_step = aggregation_step
        self.prunable: list[str] = self.global_model.encoder.prunable_layers()
        self._prunable_weight_keys = {name + ".weight" for name in self.prunable}
        self.c_global = ControlVariate.zeros_like_params(
            self.global_model.encoder.named_parameters())
        self._template_predictor = self.global_model.predictor_state()

    # ------------------------------------------------------------ state
    def _effective_steps(self, tau: int) -> float:
        """Momentum-corrected step count for the variate refresh.

        SCAFFOLD's Eq. 10 denominator ``K * eta`` assumes vanilla SGD; with
        heavy-ball momentum ``rho`` the encoder's net movement per unit
        gradient is amplified, and the matching denominator uses FedNova's
        effective-step formula.  This keeps Eq. 10's variate estimate
        consistent, letting SPATL retain momentum (unlike SCAFFOLD, whose
        reference implementation must drop it).
        """
        rho = self.momentum
        tau = max(tau, 1)
        if rho == 0.0:
            return float(tau)
        return (tau - rho * (1 - rho ** tau) / (1 - rho)) / (1 - rho)

    def _client_predictor(self, client: Client) -> dict[str, np.ndarray]:
        if "predictor" not in client.local_state:
            client.local_state["predictor"] = \
                {k: v.copy() for k, v in self._template_predictor.items()}
        return client.local_state["predictor"]

    def _client_variate(self, client: Client) -> ControlVariate:
        if "c_i" not in client.local_state:
            client.local_state["c_i"] = ControlVariate.zeros_like_params(
                self.global_model.encoder.named_parameters())
        return client.local_state["c_i"]

    # ------------------------------------------------------------ hooks
    def downlink_state(self) -> dict[str, np.ndarray]:
        payload = {f"enc.{k}": v for k, v in self.global_model.encoder_state().items()}
        if self.use_gradient_control:
            payload.update(self.c_global.as_state("c."))
        if not self.use_transfer:
            # shared-predictor ablation: the head travels too
            payload.update({f"pred.{k}": v
                            for k, v in self.global_model.predictor_state().items()})
        return payload

    def local_update(self, client: Client, round_idx: int) -> dict:
        self._work.load_encoder_state(self.global_model.encoder_state())
        if self.use_transfer:
            self._work.load_predictor_state(self._client_predictor(client))
        else:
            self._work.load_predictor_state(self.global_model.predictor_state())

        before = {n: p.data.copy()
                  for n, p in self._work.encoder.named_parameters()}
        hook = None
        if self.use_gradient_control:
            c_i = self._client_variate(client)
            prefix = SplitModel.ENCODER_PREFIX

            def name_map(name: str) -> str | None:
                return name[len(prefix):] if name.startswith(prefix) else None

            hook = make_correction_hook(self.c_global, c_i, name_map)

        loss, steps, _ = train_local(self._work, client, round_idx,
                                     epochs=self.epochs_for(client, round_idx), lr=self.lr,
                                     momentum=self.momentum,
                                     weight_decay=self.weight_decay,
                                     max_grad_norm=self.max_grad_norm,
                                     correction_hook=hook,
                                     compiler=self.step_compiler)
        # Live parameters: nothing moves them before the variate reads them.
        after = {n: p.data for n, p in self._work.encoder.named_parameters()}

        eff_steps = self._effective_steps(steps)
        if self.use_gradient_control:
            client.local_state["c_i"] = refresh_client_variate(
                self._client_variate(client), self.c_global, before, after,
                eff_steps, self.lr)

        if self.use_transfer:
            client.local_state["predictor"] = self._work.predictor_state()
        predictor_state = None if self.use_transfer else self._work.predictor_state()

        selection = self.selection_policy.select(self._work, client,
                                                 round_idx)
        client.local_state["selection_keep"] = selection.keep
        salient = select_salient(self._work.encoder, selection)
        # The encoder state minus the prunable weights (sent as salient
        # rows), in ``state_dict`` order; only what is returned is copied.
        encoder = self._work.encoder
        dense = {n: p.data.copy() for n, p in encoder.named_parameters()
                 if n not in self._prunable_weight_keys}
        dense.update((n, b.copy()) for n, b in encoder.named_buffers())
        return {"salient": salient, "dense": dense, "n": client.num_train,
                "train_loss": loss, "steps": steps, "eff_steps": eff_steps,
                "before": before, "predictor_state": predictor_state}

    def upload_payload(self, update: dict) -> dict[str, np.ndarray]:
        payload: dict[str, np.ndarray] = {}
        for name, (idx, rows) in update["salient"].items():
            payload[f"{name}.idx"] = np.asarray(idx, dtype=np.int32)
            payload[f"{name}.val"] = rows
        payload.update(update["dense"])
        if update["predictor_state"] is not None:
            payload.update({f"pred.{k}": v
                            for k, v in update["predictor_state"].items()})
        return payload

    def make_fold(self, spill=None):
        """SPATL's server step (step 6 above): the Eq. 12/11 fold."""
        from repro.fl.scale.fold import SPATLFold
        return SPATLFold(self, spill)

    def server_arrays(self) -> dict[str, dict[str, np.ndarray]]:
        """The server control variate ``c``, synced as ``cv.*`` — when
        gradient control is on."""
        return {"cv.": self.c_global.values} if self.use_gradient_control \
            else {}

    # ------------------------------------------------------------ eval
    def client_eval_model(self, client: Client):
        self._eval.load_encoder_state(self.global_model.encoder_state())
        if self.use_transfer:
            self._eval.load_predictor_state(self._client_predictor(client))
        else:
            self._eval.load_predictor_state(self.global_model.predictor_state())
        return self._eval

    # ------------------------------------------------------------ reports
    def inference_report(self) -> dict[int, dict[str, float]]:
        """Per-client FLOPs ratio / sparsity of the final selection (§V-D)."""
        graph = build_graph(self.global_model.encoder)
        report = {}
        for client in self.clients:
            keep = client.local_state.get("selection_keep")
            if keep is not None:
                report[client.client_id] = {
                    "flops_ratio": graph.flops_ratio(keep),
                    "params_ratio": graph.params_ratio(keep),
                    "sparsity_ratio": SalientSelection(keep, {}, {}).mean_keep(),
                }
        return report
