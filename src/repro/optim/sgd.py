"""Stochastic gradient descent with momentum, weight decay, and hooks.

The update is fully in-place (DESIGN.md §10): gradient scaling, weight
decay, and the learning-rate product go through the optimizer's own
scratch buffers with ``np.multiply/add/subtract(..., out=)``, keeping
the exact operand order of the allocating form so steps stay
byte-identical.  Aliasing contract: ``p.grad`` itself is never written;
correction hooks receive either ``p.grad`` or an optimizer scratch
buffer and must treat it as read-only borrowed memory — return a fresh
array (as SCAFFOLD/SPATL's ``g + c - c_i`` does) or the argument itself,
and never retain it past the call.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from repro.nn.module import Parameter

# A correction hook receives (param_name, grad) and returns the corrected
# gradient.  SCAFFOLD / SPATL register ``grad + c - c_i`` here (Eq. 9).
CorrectionHook = Callable[[str, np.ndarray], np.ndarray]


class SGD:
    """SGD over named parameters.

    Parameters
    ----------
    named_params:
        Iterable of ``(name, Parameter)``; names let correction hooks and
        selective updates (encoder-only corrections) address parameters.
    lr, momentum, weight_decay:
        Standard hyper-parameters; ``momentum=0`` disables velocity state.
    max_grad_norm:
        Optional global gradient-norm clip applied before the step
        (the Non-IID benchmark clips at 10 for stability; SCAFFOLD runs in
        the paper diverge *despite* this, which our reproduction preserves
        by keeping clipping off by default).
    """

    def __init__(self, named_params: Iterable[tuple[str, Parameter]], lr: float,
                 momentum: float = 0.0, weight_decay: float = 0.0,
                 max_grad_norm: float | None = None):
        self.params: list[tuple[str, Parameter]] = [(n, p) for n, p in named_params]
        if not self.params:
            raise ValueError("SGD received no parameters")
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.max_grad_norm = max_grad_norm
        self._velocity: dict[str, np.ndarray] = {}
        self._hooks: list[CorrectionHook] = []
        # Flat per-parameter step plan (name, param, g/decay/lrg scratch
        # views), built on the first step and then iterated directly: a
        # plain list walk beats per-step keyed lookups for the many tiny
        # parameters a resnet20-scale model carries.
        self._plan: list[tuple[str, Parameter, np.ndarray, np.ndarray,
                               np.ndarray]] | None = None

    def add_correction_hook(self, hook: CorrectionHook) -> None:
        """Register a per-parameter gradient correction (applied in order)."""
        self._hooks.append(hook)

    def clear_correction_hooks(self) -> None:
        self._hooks.clear()

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.grad = None

    def _global_grad_norm(self) -> float:
        sq = 0.0
        for _, p in self.params:
            if p.grad is not None:
                sq += float(np.sum(p.grad.astype(np.float64) ** 2))
        return float(np.sqrt(sq))

    def step(self) -> None:
        """Apply one update to every parameter that has a gradient.

        In-place formulation of ``p -= lr * (scale*g + wd*p)`` (plus hooks
        and momentum): the scratch is this optimizer's, one base per tag
        and dtype sized to the largest parameter and shared by every
        parameter as a C-contiguous prefix view — safe because each
        parameter's update completes before the next begins.
        Every ``out=`` op mirrors one allocating op of the original update,
        same operands, same order.
        """
        scale = 1.0
        if self.max_grad_norm is not None:
            norm = self._global_grad_norm()
            if norm > self.max_grad_norm:
                scale = self.max_grad_norm / (norm + 1e-12)
        plan = self._plan
        if plan is None:
            largest: dict[np.dtype, int] = {}
            for _, p in self.params:
                largest[p.data.dtype] = max(largest.get(p.data.dtype, 0),
                                            p.data.size)
            # g, decay, lrg: one base each per dtype
            bases = {dtype: [np.empty(size, dtype) for _ in range(3)]
                     for dtype, size in largest.items()}
            plan = self._plan = [
                (name, p, *(base[:p.data.size].reshape(p.data.shape)
                            for base in bases[p.data.dtype]))
                for name, p in self.params]
        lr = self.lr
        momentum = self.momentum
        weight_decay = self.weight_decay
        hooks = self._hooks
        velocity = self._velocity
        mul, add, sub = np.multiply, np.add, np.subtract
        for name, p, gbuf, decay, lrg in plan:
            g = p.grad
            if g is None:
                continue
            if scale != 1.0:
                mul(g, scale, gbuf)                         # g * scale
                g = gbuf
            if weight_decay:
                mul(p.data, weight_decay, decay)
                add(g, decay, gbuf)                         # g + wd * p
                g = gbuf
            for hook in hooks:
                g = hook(name, g)
            if momentum:
                v = velocity.get(name)
                if v is None:
                    v = np.zeros_like(p.data)
                    velocity[name] = v
                mul(v, momentum, v)                         # v *= momentum
                add(v, g, v)                                # v += g
                g = v
            mul(g, lr, lrg)                                 # lr * g
            sub(p.data, lrg, p.data)                        # p -= lr * g

    def state_dict(self) -> dict:
        return {"lr": self.lr, "velocity": {k: v.copy() for k, v in self._velocity.items()}}

    def load_state_dict(self, state: dict) -> None:
        self.lr = state["lr"]
        self._velocity = {k: v.copy() for k, v in state["velocity"].items()}
