"""Network-pruning RL environment (the agent's task, Algorithm 1 / §IV-B1).

State: the encoder's computational graph with the current keep fractions in
the feature matrix.  Action: per-prunable-layer sparsity increments (raw
Gaussian, clipped into ``[0, s_max]``).  Episode dynamics follow the
paper's search loop: while the selected sub-network is still larger than
the size constraint the agent keeps shrinking it (reward 0); once the
constraint is met the episode ends with reward = accuracy of the selected
sub-network on held-out data (Eq. 7); episodes that exhaust ``max_steps``
without meeting the constraint are penalised by the remaining gap.
"""

from __future__ import annotations

import numpy as np

from repro.data.datasets import ArrayDataset
from repro.graph import build_graph, node_feature_matrix, normalized_adjacency
from repro.models.split import SplitModel
from repro.pruning.baselines import evaluate
from repro.pruning.selector import selection_from_sparsity
from repro.rl.policy import GraphState


class PruningEnv:
    """Single-model pruning environment.

    Parameters
    ----------
    model:
        Trained (or training) split model whose encoder gets pruned.
    val_data:
        Held-out data providing the reward signal; a bounded probe subset
        keeps reward evaluation cheap (``probe_size``).  ``None`` runs the
        dynamics only (:meth:`advance`): there is nothing to score with.
    flops_target:
        Size constraint as a fraction of dense FLOPs (e.g. 0.6 means the
        sub-network must use at most 60% of dense FLOPs).
    s_max:
        Per-step, per-layer maximum sparsity increment.
    """

    def __init__(self, model: SplitModel, val_data: ArrayDataset | None = None,
                 flops_target: float = 0.6, s_max: float = 0.8,
                 max_steps: int = 4, probe_size: int = 256,
                 criterion: str = "l2", gap_penalty: float = 0.5):
        if not 0.0 < flops_target <= 1.0:
            raise ValueError("flops_target must be in (0, 1]")
        self.model = model
        self.encoder = model.encoder
        self.graph = build_graph(self.encoder)
        self.a_hat = normalized_adjacency(self.graph)
        self.prunable_idx = np.asarray(self.graph.prunable_indices())
        self.layers = self.encoder.prunable_layers()
        self.flops_target = flops_target
        self.s_max = s_max
        self.max_steps = max_steps
        self.criterion = criterion
        self.gap_penalty = gap_penalty
        self.probe = None if val_data is None else \
            val_data.subset(np.arange(min(len(val_data), probe_size)))
        self._keep: dict[str, float] = {}
        self._step = 0

    @property
    def n_actions(self) -> int:
        return len(self.layers)

    def observe(self) -> GraphState:
        x = node_feature_matrix(self.graph, keep=self._keep)
        return GraphState(x=x, a_hat=self.a_hat, prunable_idx=self.prunable_idx)

    def reset(self) -> GraphState:
        self._keep = {name: 1.0 for name in self.layers}
        self._step = 0
        return self.observe()

    def action_to_sparsity(self, raw_action: np.ndarray) -> np.ndarray:
        """Squash raw Gaussian actions into the valid sparsity interval.

        ``s = s_max * sigmoid(raw)`` keeps the raw action space unbounded
        (Gaussian log-probs stay exact) while centring an untrained policy
        at a meaningful sparsity of ``s_max / 2`` instead of the degenerate
        zero a hard clip would produce.
        """
        raw = np.asarray(raw_action, dtype=np.float64)
        return self.s_max / (1.0 + np.exp(-raw))

    def current_flops_ratio(self) -> float:
        return self.graph.flops_ratio(self._keep)

    def evaluate_subnetwork(self) -> float:
        """Accuracy of the currently selected sub-network (Eq. 7 reward)."""
        if self.probe is None:
            raise ValueError("PruningEnv built without val_data cannot "
                             "score a sub-network")
        selection = selection_from_sparsity(self.encoder,
                                            {n: 1.0 - k for n, k in self._keep.items()},
                                            self.criterion)
        selection.apply_to(self.encoder)
        acc = evaluate(self.model, self.probe)
        self.encoder.clear_channel_masks()
        return acc

    def advance(self, raw_action: np.ndarray) -> tuple[bool, dict]:
        """Apply a sparsity increment — the episode dynamics, unscored.
        Returns whether the episode ended and the step's diagnostics."""
        sparsity = self.action_to_sparsity(raw_action)
        if len(sparsity) != self.n_actions:
            raise ValueError(f"action length {len(sparsity)} != {self.n_actions}")
        for name, s in zip(self.layers, sparsity):
            self._keep[name] = float(np.clip(self._keep[name] * (1.0 - s),
                                             1e-3, 1.0))
        self._step += 1
        ratio = self.current_flops_ratio()
        done = ratio <= self.flops_target or self._step >= self.max_steps
        return done, {"flops_ratio": ratio, "keep": dict(self._keep)}

    def step(self, raw_action: np.ndarray) -> tuple[GraphState, float, bool, dict]:
        """:meth:`advance`, scored; see class docstring for the reward."""
        done, info = self.advance(raw_action)
        if not done:
            return self.observe(), 0.0, False, info
        reward = info["accuracy"] = self.evaluate_subnetwork()
        ratio = info["flops_ratio"]
        if ratio > self.flops_target:      # the step budget ran out
            reward -= self.gap_penalty * (ratio - self.flops_target)
        return self.observe(), reward, True, info
