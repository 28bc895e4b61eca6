"""Sparsity ratios → concrete filter selections.

A :class:`SalientSelection` is the bridge between the three consumers of
the agent's action:

- **masked execution** (`masks`) — evaluate the selected sub-network
  (RL reward, Eq. 7; inference acceleration, §V-D);
- **sparse communication** (`indices`) — which filter rows of each
  prunable conv weight travel to the server (§IV-C1);
- **cost models** (`keep`) — analytic FLOPs / parameter ratios via
  :meth:`repro.graph.CompGraph.flops_ratio`.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.models.split import EncoderBase
from repro.pruning.saliency import filter_saliency


@dataclass
class SalientSelection:
    """Selected filters per prunable layer."""

    keep: dict[str, float]            # actual kept fraction per layer
    masks: dict[str, np.ndarray]      # float32 {0,1} masks, len = out_channels
    indices: dict[str, np.ndarray]    # sorted kept filter indices (int32)

    def apply_to(self, encoder: EncoderBase) -> None:
        """Install channel masks for masked (sub-network) execution."""
        encoder.set_channel_masks(self.masks)

    def mean_keep(self) -> float:
        if not self.keep:
            return 1.0
        return float(np.mean(list(self.keep.values())))

    def mean_sparsity(self) -> float:
        """Fraction of filters dropped, averaged over layers."""
        return 1.0 - self.mean_keep()

    def n_selected(self) -> int:
        return int(sum(len(v) for v in self.indices.values()))


def _weights(encoder: EncoderBase,
             layer_names: Iterable[str]) -> dict[str, np.ndarray]:
    """``{layer: conv weight data}`` from one walk of the parameters."""
    params = dict(encoder.named_parameters())
    weights = {}
    for name in layer_names:
        key = name + ".weight"
        if key not in params:
            raise KeyError(f"no conv weight named {key!r} in encoder")
        weights[name] = params[key].data
    return weights


def selection_from_sparsity(encoder: EncoderBase, sparsity,
                            criterion: str = "l2",
                            min_keep: int = 1) -> SalientSelection:
    """Select the top-(1-s) most salient filters of each prunable layer.

    ``sparsity`` is either a mapping ``{layer: ratio}`` or a sequence
    aligned with ``encoder.prunable_layers()``.  Ratios are clipped to
    ``[0, 1]``; at least ``min_keep`` filters survive per layer.
    """
    layers = encoder.prunable_layers()
    if not isinstance(sparsity, dict):
        sparsity = np.asarray(sparsity, dtype=np.float64).ravel()
        if len(sparsity) != len(layers):
            raise ValueError(f"sparsity length {len(sparsity)} != "
                             f"{len(layers)} prunable layers")
        sparsity = dict(zip(layers, sparsity))
    keep: dict[str, float] = {}
    masks: dict[str, np.ndarray] = {}
    indices: dict[str, np.ndarray] = {}
    for name, weight in _weights(encoder, layers).items():
        out_c = weight.shape[0]
        s = float(np.clip(sparsity.get(name, 0.0), 0.0, 1.0))
        k = max(min_keep, int(round((1.0 - s) * out_c)))
        scores = filter_saliency(weight, criterion)
        kept = np.sort(np.argsort(scores)[::-1][:k]).astype(np.int32)
        mask = np.zeros(out_c, dtype=np.float32)
        mask[kept] = 1.0
        keep[name] = k / out_c
        masks[name] = mask
        indices[name] = kept
    return SalientSelection(keep, masks, indices)


def dense_selection(encoder: EncoderBase) -> SalientSelection:
    """The trivial selection keeping every filter (no-selection ablation)."""
    return selection_from_sparsity(
        encoder, {name: 0.0 for name in encoder.prunable_layers()})


def select_salient(encoder: EncoderBase,
                   selection: SalientSelection) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Extract the sparse uplink payload: {layer: (indices, weight rows)}.

    Only prunable conv weights are row-sliced; every other encoder tensor
    travels dense (handled by the FL layer).
    """
    weights = _weights(encoder, selection.indices)
    # Indexing with an index array already copies the rows.
    return {name: (idx.copy(), weights[name][idx])
            for name, idx in selection.indices.items()}
