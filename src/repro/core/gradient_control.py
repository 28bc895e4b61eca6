"""Encoder-only control variates (§IV-C, Eq. 9-11).

SPATL's twist on SCAFFOLD: only the *generic* (encoder) parameters have
their gradients corrected; the heterogeneous predictor stays uncorrected so
each client can keep fitting its own non-IID data.  ``ControlVariate``
holds one such variate (server ``c`` or client ``c_i``) keyed by encoder
parameter name.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


class ControlVariate:
    """A named collection of gradient-direction estimates."""

    def __init__(self, template: dict[str, np.ndarray]):
        self.values: dict[str, np.ndarray] = {
            name: np.zeros_like(arr) for name, arr in template.items()}

    @classmethod
    def zeros_like_params(cls, named_params) -> "ControlVariate":
        return cls({name: p.data for name, p in named_params})

    def __getitem__(self, name: str) -> np.ndarray:
        return self.values[name]

    def __contains__(self, name: str) -> bool:
        return name in self.values

    def names(self) -> list[str]:
        return list(self.values)

    def copy(self) -> "ControlVariate":
        fresh = ControlVariate({})
        fresh.values = {k: v.copy() for k, v in self.values.items()}
        return fresh

    def as_state(self, prefix: str = "c.") -> dict[str, np.ndarray]:
        """Flat dict view for the communication codec."""
        return {prefix + name: value for name, value in self.values.items()}

    def nbytes(self) -> int:
        return sum(v.nbytes for v in self.values.values())


def make_correction_hook(c_global: ControlVariate, c_local: ControlVariate,
                         name_map: Callable[[str], str | None] = None):
    """Eq. 9 hook: ``grad + (c - c_i)`` for encoder parameters only.

    ``name_map`` translates optimizer parameter names (e.g.
    ``encoder.conv1.weight``) to variate keys (``conv1.weight``); returning
    ``None`` marks the parameter as non-generic (predictor) and leaves its
    gradient untouched.
    """
    def hook(name: str, grad: np.ndarray) -> np.ndarray:
        key = name_map(name) if name_map else name
        if key is None or key not in c_global:
            return grad
        return grad + c_global[key] - c_local[key]

    return hook


def refresh_client_variate(c_local: ControlVariate, c_global: ControlVariate,
                           before: dict[str, np.ndarray],
                           after: dict[str, np.ndarray],
                           steps: float, lr: float) -> ControlVariate:
    """Eq. 10: ``c_i+ = c_i - c + (x - y_i) / (K * eta_l)`` (encoder only).

    ``before``/``after`` are the encoder parameters at round start (x) and
    after local training (y_i).  Returns the refreshed variate (the caller
    swaps it into the client's persistent state).
    """
    k_eta = max(steps, 1) * lr
    fresh = c_local.copy()
    for name in fresh.names():
        fresh.values[name] = (c_local[name] - c_global[name]
                              + (before[name] - after[name]) / k_eta)
    return fresh


def server_variate_delta(c: np.ndarray, before: np.ndarray,
                         uploaded: np.ndarray, k_eta: float,
                         idx: np.ndarray | None = None) -> np.ndarray:
    """Server-side reconstruction of one tensor of a client's ``delta c_i``
    (Eq. 11's summand; ``k_eta`` is ``K * eta_l``).

    Because Eq. 10 gives ``delta c_i = -c + (x - y_i)/(K*eta)`` and the
    server already knows ``c``, ``x``, ``K`` and ``eta``, the uploaded
    parameters ``y_i`` are *sufficient* for the server to recompute the
    variate delta itself — SPATL therefore never uploads control-variate
    tensors, which is what keeps its per-round cost near FedAvg despite
    using gradient control (§V-C).  With ``idx``, ``uploaded`` holds only
    those (salient) rows and the delta covers only them: coordinates the
    client did not upload contribute zero (no information).
    """
    if idx is not None:
        c, before = c[idx], before[idx]
    return -c + (before - uploaded) / k_eta
