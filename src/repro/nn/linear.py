"""Fully-connected layer."""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.tensor.tensor import Tensor


class Linear(Module):
    """Affine map ``y = x W^T + b`` with weight shape ``(out, in)``.

    Parameters
    ----------
    in_features, out_features:
        Input / output dimensionality.
    bias:
        Whether to learn an additive bias.
    rng:
        Seeded generator for the Kaiming-uniform init; a fresh default
        generator is used when omitted (tests always pass one).
    """

    op_name = "linear"

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), rng,
                                                     gain=1.0))
        if bias:
            self.bias = Parameter(init.uniform_fan_in_bias((out_features, in_features), rng))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight.T
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:
        return (f"Linear(in={self.in_features}, out={self.out_features}, "
                f"bias={self.bias is not None})")
