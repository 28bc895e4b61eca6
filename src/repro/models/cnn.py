"""The 2-layer CNN used on FEMNIST (LEAF benchmark model).

This is the deliberately *under*-parameterised model of the paper's
learning-efficiency study: SPATL's over-parameterisation assumption breaks
here and the paper reports it slightly losing to the baselines — a negative
result our reproduction preserves.
"""

from __future__ import annotations

import numpy as np

from repro.models.split import ConvSpec, EncoderBase, SplitModel
from repro.nn import Conv2d, Linear, MaxPool2d, ReLU, Sequential
from repro.tensor.tensor import Tensor


class TwoLayerCNNEncoder(EncoderBase):
    """conv(32) -> pool -> conv(64) -> pool, flattened."""

    def __init__(self, in_channels: int = 1, input_size: int = 28,
                 width_mult: float = 1.0, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.input_size = input_size
        self.in_channels = in_channels
        c1 = max(1, int(round(32 * width_mult)))
        c2 = max(1, int(round(64 * width_mult)))
        self.conv1 = Conv2d(in_channels, c1, 5, padding=2, rng=rng)
        self.pool1 = MaxPool2d(2)
        self.conv2 = Conv2d(c1, c2, 5, padding=2, rng=rng)
        self.pool2 = MaxPool2d(2)
        self._c = (c1, c2)
        self.final_size = input_size // 4
        self.final_channels = c2

    def forward(self, x: Tensor) -> Tensor:
        # Each conv output is read only by its ReLU, which writes over it.
        h = self.pool1(self.conv1(x).relu(donate=True))
        h = self._apply_mask("conv1", h)
        h = self.pool2(self.conv2(h).relu(donate=True))
        h = self._apply_mask("conv2", h)
        return h.flatten_from(1)

    def prunable_layers(self) -> list[str]:
        return ["conv1", "conv2"]

    def conv_specs(self, input_hw: tuple[int, int] | None = None) -> list[ConvSpec]:
        h, w = input_hw or (self.input_size, self.input_size)
        c1, c2 = self._c
        return [
            ConvSpec("conv1", self.in_channels, c1, 5, 1, 2, (h, w), (h, w)),
            ConvSpec("conv2", c1, c2, 5, 1, 2, (h // 2, w // 2), (h // 2, w // 2)),
        ]

    def output_dim(self) -> int:
        return self.final_channels * self.final_size * self.final_size


def make_two_layer_cnn(num_classes: int = 62, input_size: int = 28,
                       width_mult: float = 1.0, seed: int | None = None) -> SplitModel:
    """LEAF's FEMNIST CNN: 2 conv layers + a 2-layer MLP head."""
    rng = np.random.default_rng(seed)
    encoder = TwoLayerCNNEncoder(input_size=input_size, width_mult=width_mult, rng=rng)
    hidden = max(8, int(round(128 * width_mult)))
    predictor = Sequential(
        Linear(encoder.output_dim(), hidden, rng=rng),
        ReLU(),
        Linear(hidden, num_classes, rng=rng),
    )
    return SplitModel(encoder, predictor, name="cnn2")
