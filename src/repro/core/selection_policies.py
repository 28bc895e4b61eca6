"""Pluggable salient-selection policies for the SPATL client (step 3 of
Fig. 1: "the salient parameter selection agent evaluates the training
results of the current model").

``RLSelectionPolicy`` is the paper's agent; the others exist for the
ablation of Fig. 4 (no selection) and for the DESIGN.md ablation benches
(static saliency, random) that isolate how much the *learned* policy
matters versus merely uploading fewer parameters.
"""

from __future__ import annotations

import numpy as np

from repro.models.split import SplitModel
from repro.pruning.selector import (SalientSelection, dense_selection,
                                    selection_from_sparsity)
from repro.rl.agent import SalientParameterAgent
from repro.utils.rng import spawn_rng


class SelectionPolicy:
    """Interface: produce a selection for a client's freshly trained model.

    ``select`` receives the client itself: the probe data is
    ``client.val_data``, and a policy that keeps anything across rounds
    keeps it in ``client.local_state`` — the one home of per-client state,
    which is what ships to worker processes, rolls back on a crash, spills
    to the scale store and lands in checkpoints.  Policies hold no
    per-client dicts of their own, so clients can run in any order, in any
    process, and stay byte-identical to serial execution.
    """

    def select(self, model: SplitModel, client,
               round_idx: int) -> SalientSelection:
        raise NotImplementedError

    def communicates_sparse(self) -> bool:
        """False for the no-selection ablation (dense uploads)."""
        return True


class NoSelectionPolicy(SelectionPolicy):
    """Fig. 4 ablation: upload every parameter (SPATL w/o selection)."""

    def select(self, model, client, round_idx):
        return dense_selection(model.encoder)

    def communicates_sparse(self) -> bool:
        return False


class StaticSaliencyPolicy(SelectionPolicy):
    """Uniform sparsity with a norm criterion — selection without the agent."""

    def __init__(self, sparsity: float = 0.3, criterion: str = "l2"):
        if not 0.0 <= sparsity < 1.0:
            raise ValueError("sparsity must be in [0, 1)")
        self.sparsity = sparsity
        self.criterion = criterion

    def select(self, model, client, round_idx):
        uniform = {n: self.sparsity for n in model.encoder.prunable_layers()}
        return selection_from_sparsity(model.encoder, uniform, self.criterion)


class RandomSelectionPolicy(SelectionPolicy):
    """Random filters at fixed sparsity — the lower bound for selection."""

    def __init__(self, sparsity: float = 0.3, seed: int = 0):
        self.sparsity = sparsity
        self.seed = seed

    def select(self, model, client, round_idx):
        rng = spawn_rng(self.seed, "random_sel", client.client_id, round_idx)
        keep, masks, indices = {}, {}, {}
        params = dict(model.encoder.named_parameters())
        for name in model.encoder.prunable_layers():
            out_c = params[name + ".weight"].data.shape[0]
            k = max(1, int(round((1 - self.sparsity) * out_c)))
            kept = np.sort(rng.choice(out_c, size=k, replace=False)).astype(np.int32)
            mask = np.zeros(out_c, dtype=np.float32)
            mask[kept] = 1.0
            keep[name], masks[name], indices[name] = k / out_c, mask, kept
        return SalientSelection(keep, masks, indices)


class RLSelectionPolicy(SelectionPolicy):
    """The paper's agent: pre-trained PPO policy, fine-tuned online per client.

    Each client starts from the pre-trained agent; for the first
    ``finetune_rounds`` rounds of that client's participation the MLP
    heads are fine-tuned by online PPO on the client's own model and
    validation data (§V-A: fine-tune "in the first 10 communication rounds",
    updating only the MLP).  Afterwards selection is one-shot deterministic
    inference.

    The client's agent is *state*, not an object: its policy arrays, PPO
    update count and participation count live in
    ``client.local_state["agent"]`` and are loaded into the policy's one
    reusable work agent for the duration of a ``select`` — the way every
    algorithm loads the global model into its one ``_work`` model.
    """

    def __init__(self, pretrained: SalientParameterAgent,
                 flops_target: float = 0.7, finetune_rounds: int = 3,
                 finetune_updates: int = 1, episodes_per_update: int = 4,
                 s_max: float = 0.8, probe_size: int = 128):
        self.pretrained = pretrained
        self.flops_target = flops_target
        self.finetune_rounds = finetune_rounds
        self.finetune_updates = finetune_updates
        self.episodes_per_update = episodes_per_update
        self.s_max = s_max
        self.probe_size = probe_size
        self._work = pretrained.clone()

    def select(self, model, client, round_idx):
        agent = self._work
        agent.seed = self.pretrained.seed * 9973 + client.client_id
        state = client.local_state.get("agent") or {
            "policy": self.pretrained.state_dict(), "updates": 0,
            "participations": 0}
        agent.load_state_dict(state["policy"])
        agent._update_count = state["updates"]
        seen = state["participations"]
        if seen < self.finetune_rounds:
            agent.finetune(model, client.val_data,
                           updates=self.finetune_updates,
                           episodes_per_update=self.episodes_per_update,
                           flops_target=self.flops_target, s_max=self.s_max,
                           probe_size=self.probe_size)
        client.local_state["agent"] = {"policy": agent.state_dict(),
                                       "updates": agent._update_count,
                                       "participations": seen + 1}
        selection, _ = agent.propose(model, flops_target=self.flops_target,
                                     s_max=self.s_max)
        return selection
