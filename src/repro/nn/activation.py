"""Activation layers (thin Module wrappers over tensor functional ops)."""

from __future__ import annotations

from repro.nn.module import Module
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor


class ReLU(Module):
    """max(x, 0) as a layer; ``donate`` as in :meth:`Tensor.relu`."""
    def forward(self, x: Tensor, donate: bool = False) -> Tensor:
        return x.relu(donate=donate)

    def __repr__(self) -> str:
        return "ReLU()"


class Tanh(Module):
    """Hyperbolic tangent layer."""
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()

    def __repr__(self) -> str:
        return "Tanh()"


class Sigmoid(Module):
    """Logistic sigmoid layer."""
    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()

    def __repr__(self) -> str:
        return "Sigmoid()"


class LeakyReLU(Module):
    """LeakyReLU layer with configurable negative slope."""
    def __init__(self, negative_slope: float = 0.01):
        super().__init__()
        self.negative_slope = negative_slope

    def forward(self, x: Tensor) -> Tensor:
        return F.leaky_relu(x, self.negative_slope)

    def __repr__(self) -> str:
        return f"LeakyReLU({self.negative_slope})"
