"""Encoder/predictor split — the knowledge-transfer structure of SPATL (§IV-A).

The paper formulates every model as ``y = predictor(encoder(x))`` where the
encoder's parameters ``W_e`` are shared through federated aggregation and the
predictor's ``W_p`` stay private per client.  :class:`SplitModel` realises
the split; encoders additionally expose the *prunable layer* metadata the
salient-parameter machinery needs:

- ``prunable_layers()`` — ordered names of conv layers whose output filters
  the RL agent can sparsify (the action space dimension ``N`` of Eq. 5/6);
- ``conv_specs(input_hw)`` — static per-layer geometry used by the
  computational-graph extraction and the analytic pruned-FLOPs model;
- per-layer ``channel masks`` applied in forward, so a selection policy
  can be *executed* (masked inference) and not just accounted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.module import Module
from repro.tensor.tensor import Tensor


@dataclass(frozen=True)
class ConvSpec:
    """Static geometry of one prunable conv layer."""

    name: str
    in_channels: int
    out_channels: int
    kernel_size: int
    stride: int
    padding: int
    in_hw: tuple[int, int]
    out_hw: tuple[int, int]

    @property
    def weight_numel(self) -> int:
        return self.out_channels * self.in_channels * self.kernel_size ** 2

    @property
    def flops(self) -> int:
        ho, wo = self.out_hw
        return 2 * self.out_channels * ho * wo * self.in_channels * self.kernel_size ** 2


class EncoderBase(Module):
    """Base class for shareable encoders with channel-mask support.

    Masks are plain float arrays (1.0 = keep); ``set_channel_masks`` installs
    a mask per prunable layer and ``clear_channel_masks`` restores dense
    execution.  Masked forward multiplies the corresponding conv *outputs*
    channel-wise, which is mathematically equivalent to zeroing the selected
    filters — the execution model of the paper's salient sub-network reward
    (Eq. 7 evaluates "the selected sub-network").
    """

    def __init__(self):
        super().__init__()
        object.__setattr__(self, "_channel_masks", {})

    # -- prunable-layer protocol ------------------------------------- #
    def prunable_layers(self) -> list[str]:
        """Ordered names (dotted paths) of prunable conv layers."""
        raise NotImplementedError

    def conv_specs(self, input_hw: tuple[int, int]) -> list[ConvSpec]:
        """Static geometry of each prunable layer for ``input_hw`` inputs."""
        raise NotImplementedError

    def output_dim(self) -> int:
        """Dimensionality of the embedding fed to the predictor."""
        raise NotImplementedError

    # -- channel masks ------------------------------------------------ #
    def set_channel_masks(self, masks: dict[str, np.ndarray]) -> None:
        unknown = set(masks) - set(self.prunable_layers())
        if unknown:
            raise KeyError(f"masks for unknown layers: {sorted(unknown)}")
        self._channel_masks.clear()
        for name, m in masks.items():
            self._channel_masks[name] = np.asarray(m, dtype=np.float32)

    def clear_channel_masks(self) -> None:
        self._channel_masks.clear()

    def _apply_mask(self, name: str, x: Tensor) -> Tensor:
        mask = self._channel_masks.get(name)
        if mask is None:
            return x
        return x * Tensor(mask.reshape(1, -1, 1, 1))


class SplitModel(Module):
    """``predictor(encoder(x))`` with prefix-based parameter partitioning.

    ``encoder_state`` / ``load_encoder_state`` give the FL layer exactly the
    shared portion; predictor parameters never appear in those dicts, which
    is what makes the predictor private (paper Fig. 1, steps 1 and 4 move
    encoder state only).
    """

    ENCODER_PREFIX = "encoder."
    PREDICTOR_PREFIX = "predictor."

    def __init__(self, encoder: EncoderBase, predictor: Module, name: str = "model"):
        super().__init__()
        self.encoder = encoder
        self.predictor = predictor
        self.model_name = name

    def forward(self, x: Tensor) -> Tensor:
        return self.predictor(self.encoder(x))

    def embed(self, x: Tensor) -> Tensor:
        """Encoder output only (Eq. 1: z = f_e(x; W_e))."""
        return self.encoder(x)

    # -- state partitioning ------------------------------------------ #
    def encoder_state(self) -> dict[str, np.ndarray]:
        """Copy of shared (encoder) parameters + buffers, names unprefixed."""
        return self.encoder.state_dict()

    def load_encoder_state(self, state: dict) -> None:
        self.encoder.load_state_dict(state)

    def predictor_state(self) -> dict[str, np.ndarray]:
        return self.predictor.state_dict()

    def load_predictor_state(self, state: dict) -> None:
        self.predictor.load_state_dict(state)

    def num_encoder_parameters(self) -> int:
        return sum(p.size for p in self.encoder.parameters())

    def num_predictor_parameters(self) -> int:
        return sum(p.size for p in self.predictor.parameters())
