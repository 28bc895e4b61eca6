"""Classical pruning baselines for the Table-IV comparison.

Each baseline takes a trained :class:`~repro.models.split.SplitModel`, a
train/validation dataset pair, and a target mean sparsity, and returns a
:class:`PruneResult` with accuracy before/after and the analytic FLOPs
ratio of the pruned sub-network.  All baselines share the same masked
execution and fine-tuning machinery, so the comparison isolates the
*selection policy* — exactly what Table IV compares (SFP / FPGM / DSA vs
the paper's RL agent).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.datasets import ArrayDataset
from repro.data.dataloader import DataLoader
from repro.graph import build_graph
from repro.models.split import SplitModel
from repro.optim import SGD
from repro.pruning.selector import SalientSelection, selection_from_sparsity
from repro.tensor import Tensor, functional as F, no_grad
from repro.utils.rng import spawn_rng


@dataclass
class PruneResult:
    """Outcome of one pruning run."""

    method: str
    acc_dense: float
    acc_pruned: float
    flops_ratio: float
    mean_sparsity: float
    selection: SalientSelection

    @property
    def acc_drop(self) -> float:
        return self.acc_dense - self.acc_pruned

    @property
    def flops_reduction(self) -> float:
        return 1.0 - self.flops_ratio


def evaluate(model: SplitModel, data: ArrayDataset, batch_size: int = 256) -> float:
    """Top-1 accuracy with whatever masks are currently installed (masks are
    a tensor multiply: the same logits under ``no_grad``, without the graph)."""
    model.eval()
    correct = 0
    with no_grad():
        for lo in range(0, len(data), batch_size):
            xb, yb = data.x[lo:lo + batch_size], data.y[lo:lo + batch_size]
            correct += int((model(Tensor(xb)).data.argmax(axis=1) == yb).sum())
    model.train()
    return correct / len(data)


def finetune(model: SplitModel, train: ArrayDataset, epochs: int, lr: float = 0.01,
             batch_size: int = 64, seed: int = 0) -> None:
    """Brief masked fine-tuning (recovery phase all baselines share)."""
    if epochs <= 0:
        return
    opt = SGD(list(model.named_parameters()), lr=lr, momentum=0.9)
    loader = DataLoader(train, batch_size=batch_size, seed=seed)
    model.train()
    for _ in range(epochs):
        for xb, yb in loader:
            loss = F.cross_entropy(model(Tensor(xb)), yb)
            model.zero_grad()
            loss.backward()
            opt.step()


def _finish(method: str, model: SplitModel, train: ArrayDataset, val: ArrayDataset,
            selection: SalientSelection, acc_dense: float, finetune_epochs: int,
            seed: int) -> PruneResult:
    selection.apply_to(model.encoder)
    finetune(model, train, finetune_epochs, seed=seed)
    acc_pruned = evaluate(model, val)
    graph = build_graph(model.encoder)
    ratio = graph.flops_ratio(selection.keep)
    model.encoder.clear_channel_masks()
    return PruneResult(method, acc_dense, acc_pruned, ratio,
                       selection.mean_sparsity(), selection)


def prune_magnitude(model: SplitModel, train: ArrayDataset, val: ArrayDataset,
                    sparsity: float = 0.3, criterion: str = "l2",
                    finetune_epochs: int = 1, seed: int = 0) -> PruneResult:
    """One-shot uniform magnitude pruning (the simplest sane baseline)."""
    acc_dense = evaluate(model, val)
    uniform = {name: sparsity for name in model.encoder.prunable_layers()}
    selection = selection_from_sparsity(model.encoder, uniform, criterion)
    return _finish(f"magnitude-{criterion}", model, train, val, selection,
                   acc_dense, finetune_epochs, seed)


def prune_random(model: SplitModel, train: ArrayDataset, val: ArrayDataset,
                 sparsity: float = 0.3, finetune_epochs: int = 1,
                 seed: int = 0) -> PruneResult:
    """Uniform random filter selection — the sanity floor."""
    acc_dense = evaluate(model, val)
    rng = spawn_rng(seed, "prune_random")
    keep, masks, indices = {}, {}, {}
    for name in model.encoder.prunable_layers():
        weight = dict(model.encoder.named_parameters())[name + ".weight"].data
        out_c = weight.shape[0]
        k = max(1, int(round((1 - sparsity) * out_c)))
        kept = np.sort(rng.choice(out_c, size=k, replace=False)).astype(np.int32)
        mask = np.zeros(out_c, dtype=np.float32)
        mask[kept] = 1.0
        keep[name], masks[name], indices[name] = k / out_c, mask, kept
    selection = SalientSelection(keep, masks, indices)
    return _finish("random", model, train, val, selection, acc_dense,
                   finetune_epochs, seed)


def prune_sfp(model: SplitModel, train: ArrayDataset, val: ArrayDataset,
              sparsity: float = 0.3, epochs: int = 3, lr: float = 0.01,
              criterion: str = "l2", finetune_epochs: int = 1,
              seed: int = 0) -> PruneResult:
    """Soft Filter Pruning (He et al., IJCAI 2018).

    Each epoch, the lowest-norm filters of every prunable layer are set to
    zero *softly* — they keep receiving gradients and may grow back — and
    after the last epoch the selection is hardened into masks.
    """
    acc_dense = evaluate(model, val)
    params = dict(model.encoder.named_parameters())
    opt = SGD(list(model.named_parameters()), lr=lr, momentum=0.9)
    loader = DataLoader(train, batch_size=64, seed=seed)
    uniform = {name: sparsity for name in model.encoder.prunable_layers()}
    model.train()
    for _ in range(epochs):
        for xb, yb in loader:
            loss = F.cross_entropy(model(Tensor(xb)), yb)
            model.zero_grad()
            loss.backward()
            opt.step()
        # soft-zero the currently least salient filters
        selection = selection_from_sparsity(model.encoder, uniform, criterion)
        for name, mask in selection.masks.items():
            params[name + ".weight"].data *= mask.reshape(-1, 1, 1, 1)
    selection = selection_from_sparsity(model.encoder, uniform, criterion)
    return _finish("sfp", model, train, val, selection, acc_dense,
                   finetune_epochs, seed)


def prune_fpgm(model: SplitModel, train: ArrayDataset, val: ArrayDataset,
               sparsity: float = 0.3, finetune_epochs: int = 1,
               seed: int = 0) -> PruneResult:
    """Filter Pruning via Geometric Median (He et al., CVPR 2019)."""
    acc_dense = evaluate(model, val)
    uniform = {name: sparsity for name in model.encoder.prunable_layers()}
    selection = selection_from_sparsity(model.encoder, uniform,
                                        criterion="geometric_median")
    return _finish("fpgm", model, train, val, selection, acc_dense,
                   finetune_epochs, seed)


def prune_dsa(model: SplitModel, train: ArrayDataset, val: ArrayDataset,
              flops_target: float = 0.7, probe_sparsity: float = 0.5,
              criterion: str = "l2", finetune_epochs: int = 1,
              seed: int = 0, max_iters: int = 50) -> PruneResult:
    """DSA-style budgeted sparsity allocation (Ning et al., ECCV 2020).

    The original differentiates through a soft pruning process to allocate
    a global FLOPs budget across layers.  This implementation keeps the
    *allocation-under-budget* behaviour with a sensitivity proxy: each
    layer is probed at ``probe_sparsity`` and its validation-accuracy drop
    measured; sparsity is then allocated in proportion to insensitivity,
    scaled (by bisection on the shared multiplier) until the analytic
    FLOPs ratio meets ``flops_target``.
    """
    acc_dense = evaluate(model, val)
    encoder = model.encoder
    layers = encoder.prunable_layers()
    graph = build_graph(encoder)
    # Per-layer sensitivity probe.
    drops = {}
    probe = val.subset(np.arange(min(len(val), 256)))
    for name in layers:
        sel = selection_from_sparsity(
            encoder, {n: (probe_sparsity if n == name else 0.0) for n in layers},
            criterion)
        sel.apply_to(encoder)
        drops[name] = max(acc_dense - evaluate(model, probe), 0.0)
        encoder.clear_channel_masks()
    inv = np.asarray([1.0 / (1e-3 + drops[n]) for n in layers])
    base = inv / inv.max()

    def ratio_at(scale: float) -> tuple[float, dict[str, float]]:
        alloc = {n: float(np.clip(scale * b, 0.0, 0.9))
                 for n, b in zip(layers, base)}
        keep = {n: 1.0 - s for n, s in alloc.items()}
        return graph.flops_ratio(keep), alloc

    lo, hi = 0.0, 1.0
    alloc = {n: 0.0 for n in layers}
    for _ in range(max_iters):
        mid = 0.5 * (lo + hi)
        ratio, alloc = ratio_at(mid)
        if abs(ratio - flops_target) < 5e-3:
            break
        if ratio > flops_target:
            lo = mid
        else:
            hi = mid
    selection = selection_from_sparsity(encoder, alloc, criterion)
    return _finish("dsa", model, train, val, selection, acc_dense,
                   finetune_epochs, seed)
