"""The salient parameter selection agent (§IV-B).

Lifecycle (matching §V-A):

1. :func:`pretrain_agent` — train the policy end-to-end with PPO on a
   network-pruning task (the paper uses ResNet-56).
2. :meth:`SalientParameterAgent.finetune` — transfer to a client's model by
   online PPO, updating **only the MLP heads** (the GNN topology embedding
   is frozen).
3. :meth:`SalientParameterAgent.propose` — one-shot deterministic inference
   of the per-layer sparsity ratios for the current encoder ("one-shot
   inference ... 0.36 ms" in the paper's ablation).
"""

from __future__ import annotations

import numpy as np

from repro.data.datasets import ArrayDataset
from repro.graph import FEATURE_DIM
from repro.models.split import SplitModel
from repro.optim import Adam
from repro.pruning.selector import SalientSelection
from repro.rl.buffer import RolloutBuffer, Transition
from repro.rl.env import PruningEnv
from repro.rl.policy import ActorCriticPolicy
from repro.rl.ppo import PPOConfig, ppo_update
from repro.utils.rng import spawn_rng


class SalientParameterAgent:
    """PPO-trained GNN agent emitting per-layer sparsity ratios."""

    def __init__(self, policy: ActorCriticPolicy | None = None,
                 config: PPOConfig | None = None, seed: int = 0,
                 hidden_dim: int = 32):
        self.policy = policy or ActorCriticPolicy(FEATURE_DIM, hidden_dim,
                                                  seed=seed)
        self.config = config or PPOConfig()
        self.seed = seed
        self._update_count = 0

    # ------------------------------------------------------------------ #
    def _collect(self, env: PruningEnv, episodes: int,
                 rng: np.random.Generator) -> tuple[RolloutBuffer, list[float]]:
        buffer = RolloutBuffer(gamma=self.config.gamma,
                               gae_lambda=self.config.gae_lambda)
        episode_rewards = []
        for _ in range(episodes):
            state = env.reset()
            done = False
            total = 0.0
            while not done:
                action, logp, value = self.policy.act(state, rng)
                next_state, reward, done, _ = env.step(action)
                buffer.add(Transition(state, action, logp, value, reward, done))
                state = next_state
                total += reward
            episode_rewards.append(total)
        return buffer, episode_rewards

    def train(self, env: PruningEnv, updates: int, episodes_per_update: int = 8,
              optimizer: Adam | None = None,
              freeze_gnn: bool = False) -> list[float]:
        """Run PPO for ``updates`` rounds; returns mean reward per round.

        ``freeze_gnn=True`` is the fine-tuning mode: only the actor/critic
        MLP heads (and the action std) receive updates.
        """
        opt = optimizer or Adam(list(self.policy.named_parameters()),
                                lr=self.config.lr)
        if freeze_gnn:
            opt.freeze(["gnn."])
        history = []
        for u in range(updates):
            rng = spawn_rng(self.seed, "rollout", self._update_count)
            buffer, rewards = self._collect(env, episodes_per_update, rng)
            ppo_update(self.policy, buffer, opt, self.config,
                       spawn_rng(self.seed, "ppo", self._update_count))
            self._update_count += 1
            history.append(float(np.mean(rewards)))
        return history

    def finetune(self, model: SplitModel, val_data: ArrayDataset,
                 updates: int = 2, episodes_per_update: int = 4,
                 flops_target: float = 0.6, optimizer: Adam | None = None,
                 **env_kwargs) -> list[float]:
        """Online fine-tuning on a client (GNN frozen, MLP heads only)."""
        env = PruningEnv(model, val_data, flops_target=flops_target,
                         **env_kwargs)
        return self.train(env, updates, episodes_per_update,
                          optimizer=optimizer, freeze_gnn=True)

    # ------------------------------------------------------------------ #
    def propose(self, model: SplitModel, flops_target: float = 0.6,
                **env_kwargs) -> tuple[SalientSelection, dict]:
        """Deterministic one-shot selection for the current encoder.

        Walks the environment's dynamics with the policy mean action until
        the size constraint is met (or the step budget runs out), then
        returns the materialised selection plus diagnostics (flops ratio,
        keep fractions, mean keep).  Nothing is scored: the reward is a
        training signal, and the episode's last step would spend a probe
        forward on it.
        """
        env = PruningEnv(model, flops_target=flops_target, **env_kwargs)
        state = env.reset()
        rng = spawn_rng(self.seed, "propose")
        done = False
        while not done:
            action, _, _ = self.policy.act(state, rng, deterministic=True)
            done, info = env.advance(action)
            state = env.observe()
        selection = selection_for_keep(env)
        info["mean_keep"] = selection.mean_keep()
        return selection, info

    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict[str, np.ndarray]:
        return self.policy.state_dict()

    def load_state_dict(self, state: dict) -> None:
        self.policy.load_state_dict(state)

    def clone(self) -> "SalientParameterAgent":
        """Independent copy (each FL client customises its own agent)."""
        fresh = SalientParameterAgent(config=self.config, seed=self.seed,
                                      hidden_dim=self.policy.gnn.out_dim)
        fresh.policy.load_state_dict(self.policy.state_dict())
        return fresh


def selection_for_keep(env: PruningEnv) -> SalientSelection:
    """Materialise the environment's current keep fractions."""
    from repro.pruning.selector import selection_from_sparsity
    return selection_from_sparsity(
        env.encoder, {n: 1.0 - k for n, k in env._keep.items()}, env.criterion)


def pretrain_agent(model: SplitModel, train_data: ArrayDataset,
                   val_data: ArrayDataset, updates: int = 20,
                   episodes_per_update: int = 8, flops_target: float = 0.6,
                   seed: int = 0, config: PPOConfig | None = None,
                   **env_kwargs) -> tuple[SalientParameterAgent, list[float]]:
    """Pre-train a fresh agent on the pruning task (paper: ResNet-56).

    Returns the agent and the reward history (Fig. 6's x/y series).
    """
    agent = SalientParameterAgent(config=config, seed=seed)
    env = PruningEnv(model, val_data, flops_target=flops_target, **env_kwargs)
    history = agent.train(env, updates, episodes_per_update)
    return agent, history
