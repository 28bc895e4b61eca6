"""Local-training helpers shared by all FL algorithms.

:func:`train_local` is the one SGD loop every algorithm's
``local_update`` delegates to; algorithm-specific behaviour plugs in via
hooks rather than subclassed loops — ``correction_hook`` for
SCAFFOLD/SPATL control variates (Eq. 9) and FedProx's proximal
gradient, ``param_filter`` to restrict training to the encoder.
:func:`weighted_average_states` is the FedAvg server-side reduction
(batch lists and streamed spill records alike).
Both are pure with respect to server state, which is what makes them
safe to run inside worker processes (DESIGN.md §9).
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from repro.fl.client import Client
from repro.obs.trace import get_tracer
from repro.optim import SGD
from repro.tensor import Tensor, functional as F
from repro.utils.metrics import RunningAverage


def train_local(model, client: Client, round_idx: int, epochs: int, lr: float,
                momentum: float = 0.9, weight_decay: float = 0.0,
                max_grad_norm: float | None = None,
                correction_hook: Callable | None = None,
                param_filter: Callable[[str], bool] | None = None,
                compiler=None) -> tuple[float, int, SGD]:
    """Run ``epochs`` of SGD on the client's shard.

    Parameters
    ----------
    correction_hook:
        Per-step gradient correction ``(name, grad) -> grad`` — SCAFFOLD /
        SPATL control variates (Eq. 9) and FedProx's proximal gradient
        plug in here.
    param_filter:
        Restrict the optimizer to parameters whose dotted name passes the
        predicate (used for predictor-only transfer updates, Eq. 4).
    compiler:
        Optional :class:`~repro.tensor.compile.StepCompiler`.  When given,
        each step is attempted as a compiled replay (byte-identical to the
        eager step); steps the compiler cannot replay — unsupported graph
        shapes, active channel masks, dropout — run eagerly.

    Returns ``(mean train loss, number of optimizer steps, optimizer)`` —
    the optimizer is returned so algorithms that communicate local optimizer
    state (FedNova's momentum variant) can read its buffers.
    """
    named = [(n, p) for n, p in model.named_parameters()
             if param_filter is None or param_filter(n)]
    opt = SGD(named, lr=lr, momentum=momentum, weight_decay=weight_decay,
              max_grad_norm=max_grad_norm)
    if correction_hook is not None:
        opt.add_correction_hook(correction_hook)
    loss_avg = RunningAverage()
    steps = 0
    model.train()
    with get_tracer().span("train_local", round=round_idx,
                           client=client.client_id, epochs=epochs) as span:
        for epoch in range(epochs):
            for xb, yb in client.train_loader(round_idx * 1000 + epoch):
                loss_val = None
                if compiler is not None:
                    loss_val = compiler.try_step(model, xb, yb)
                if loss_val is None:
                    logits = model(Tensor(xb))
                    loss = F.cross_entropy(logits, yb)
                    model.zero_grad()
                    loss.backward()
                    loss_val = loss.item()
                opt.step()
                loss_avg.update(loss_val, len(yb))
                steps += 1
        span.set(steps=steps, train_loss=loss_avg.value)
    return loss_avg.value, steps, opt


def weighted_average_states(states: Iterable[dict[str, np.ndarray]],
                            weights: Sequence[float]) -> dict[str, np.ndarray]:
    """Weighted mean of aligned state dicts — the repo's one mean body.

    ``states`` may be any iterable (a list, or records streamed back from
    a spill): each is consumed once, in order, so per key the sequence of
    float64 additions (normalized weight times state) is the cohort
    order whichever way the caller holds them.  Integer-typed entries
    (e.g. ``num_batches_tracked``) take the first client's value rather
    than a meaningless average; the result keeps the first state's key
    order.
    """
    w = np.asarray(weights, dtype=np.float64)
    if not w.size:
        raise ValueError("weighted_average_states needs >= 1 state")
    w = w / w.sum()
    first: dict[str, np.ndarray] = {}
    acc: dict[str, np.ndarray] = {}
    # strict: a states/weights length mismatch is a ValueError
    for i, (wi, state) in enumerate(zip(w, states, strict=True)):
        if i == 0:
            first = {key: np.asarray(value) for key, value in state.items()}
            acc = {key: np.zeros_like(value, dtype=np.float64)
                   for key, value in first.items()
                   if value.dtype.kind not in "iu"}
        for key in acc:
            acc[key] += wi * np.asarray(state[key], dtype=np.float64)
    return {key: acc[key].astype(value.dtype) if key in acc else value.copy()
            for key, value in first.items()}
