"""``Module``/``Parameter`` abstractions with named traversal and state dicts.

The federated-learning layer of this repository moves *flat dictionaries of
numpy arrays* between clients and the server, so ``state_dict`` /
``load_state_dict`` here operate on plain ``np.ndarray`` values keyed by
dotted paths (``features.0.weight`` ...), exactly the representation the
communication codec (:mod:`repro.fl.comm`) serialises.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Callable, Iterator

import numpy as np

from repro.obs.metrics import observe_op
from repro.obs.trace import get_tracer
from repro.tensor.tensor import Tensor


class Parameter(Tensor):
    """A :class:`Tensor` that is registered as trainable by ``Module``."""

    def __init__(self, data, dtype=None):
        super().__init__(data, requires_grad=True, dtype=dtype)


class Module:
    """Base class for all layers and models.

    Subclasses assign :class:`Parameter`, buffers (via :meth:`register_buffer`)
    and child ``Module`` instances as attributes; traversal methods discover
    them by introspection, in insertion order.
    """

    def __init__(self):
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    # ---------------------------------------------------------------- #
    # attribute plumbing                                                 #
    # ---------------------------------------------------------------- #
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
            self._buffers.pop(name, None)
            self._modules.pop(name, None)
        elif isinstance(value, Module):
            self._modules[name] = value
            self._parameters.pop(name, None)
            self._buffers.pop(name, None)
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register non-trainable state (e.g. BatchNorm running stats)."""
        self._buffers[name] = np.asarray(value)
        object.__setattr__(self, name, self._buffers[name])

    def set_buffer(self, name: str, value: np.ndarray) -> None:
        """Replace a registered buffer's contents."""
        if name not in self._buffers:
            raise KeyError(f"no buffer named {name!r}")
        self._buffers[name] = np.asarray(value)
        object.__setattr__(self, name, self._buffers[name])

    # ---------------------------------------------------------------- #
    # traversal                                                          #
    # ---------------------------------------------------------------- #
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, p in self._parameters.items():
            yield prefix + name, p
        for mod_name, mod in self._modules.items():
            yield from mod.named_parameters(prefix + mod_name + ".")

    def parameters(self) -> Iterator[Parameter]:
        for _, p in self.named_parameters():
            yield p

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        for name in self._buffers:
            yield prefix + name, self._buffers[name]
        for mod_name, mod in self._modules.items():
            yield from mod.named_buffers(prefix + mod_name + ".")

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        yield prefix.rstrip("."), self
        for mod_name, mod in self._modules.items():
            yield from mod.named_modules(prefix + mod_name + ".")

    def modules(self) -> Iterator["Module"]:
        for _, m in self.named_modules():
            yield m

    def apply(self, fn: Callable[["Module"], None]) -> "Module":
        for m in self.modules():
            fn(m)
        return self

    # ---------------------------------------------------------------- #
    # state                                                              #
    # ---------------------------------------------------------------- #
    def state_dict(self, include_buffers: bool = True) -> "OrderedDict[str, np.ndarray]":
        """Flat dict of parameter (and buffer) arrays, copied."""
        out: OrderedDict[str, np.ndarray] = OrderedDict()
        for name, p in self.named_parameters():
            out[name] = p.data.copy()
        if include_buffers:
            for name, b in self.named_buffers():
                out[name] = b.copy()
        return out

    def load_state_dict(self, state: dict, strict: bool = True) -> None:
        """Load arrays by dotted name into parameters and buffers in place."""
        params = dict(self.named_parameters())
        buffer_owners = self._buffer_owners()
        missing = []
        for name, p in params.items():
            if name in state:
                arr = np.asarray(state[name], dtype=p.data.dtype)
                if arr.shape != p.data.shape:
                    raise ValueError(f"shape mismatch for {name}: {arr.shape} vs {p.data.shape}")
                p.data[...] = arr
            elif strict:
                missing.append(name)
        for name, (owner, local) in buffer_owners.items():
            if name in state:
                arr = np.asarray(state[name])
                if not arr.flags.writeable:
                    # set_buffer keeps a reference, and a read-only array
                    # here is a zero-copy wire view over a blob the sender
                    # owns; detach so the buffer stays mutable and owned.
                    arr = arr.copy()
                owner.set_buffer(local, arr)
            elif strict:
                missing.append(name)
        if strict:
            known = set(params) | set(buffer_owners)
            unexpected = [k for k in state if k not in known]
            if missing or unexpected:
                raise KeyError(f"load_state_dict: missing={missing} unexpected={unexpected}")

    def _buffer_owners(self) -> dict[str, tuple["Module", str]]:
        owners: dict[str, tuple[Module, str]] = {}

        def walk(mod: Module, prefix: str):
            for name in mod._buffers:
                owners[prefix + name] = (mod, name)
            for mod_name, child in mod._modules.items():
                walk(child, prefix + mod_name + ".")

        walk(self, "")
        return owners

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # ---------------------------------------------------------------- #
    # training-mode & grads                                              #
    # ---------------------------------------------------------------- #
    def train(self, mode: bool = True) -> "Module":
        for m in self.modules():
            object.__setattr__(m, "training", mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    # ---------------------------------------------------------------- #
    # call protocol                                                      #
    # ---------------------------------------------------------------- #
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    #: Op name a traced run charges this layer's forward to (``conv2d`` ->
    #: ``op.seconds{op=conv2d.forward}``); None leaves it to its caller.
    op_name: str | None = None

    def __call__(self, *args, **kwargs):
        if self.op_name is None or not get_tracer().enabled:
            return self.forward(*args, **kwargs)
        t0 = time.perf_counter()
        out = self.forward(*args, **kwargs)
        seconds = time.perf_counter() - t0
        from repro.nn.flops import forward_flops
        observe_op(self.op_name + ".forward", seconds,
                   forward_flops(self, args[0]))
        return out

    def __repr__(self) -> str:
        child_lines = [f"  ({n}): {m!r}".replace("\n", "\n  ") for n, m in self._modules.items()]
        body = "\n".join(child_lines)
        if body:
            return f"{self.__class__.__name__}(\n{body}\n)"
        return f"{self.__class__.__name__}()"


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        for i, m in enumerate(modules):
            setattr(self, str(i), m)

    def __len__(self) -> int:
        return len(self._modules)

    def __getitem__(self, idx: int) -> Module:
        return self._modules[str(idx % len(self) if idx < 0 else idx)]

    def __iter__(self):
        return iter(self._modules.values())

    def append(self, module: Module) -> "Sequential":
        setattr(self, str(len(self._modules)), module)
        return self

    def forward(self, x):
        for m in self._modules.values():
            x = m(x)
        return x


class ModuleList(Module):
    """Indexable container of modules (no implicit forward)."""

    def __init__(self, modules=()):
        super().__init__()
        for i, m in enumerate(modules):
            setattr(self, str(i), m)

    def __len__(self) -> int:
        return len(self._modules)

    def __getitem__(self, idx: int) -> Module:
        return self._modules[str(idx % len(self) if idx < 0 else idx)]

    def __iter__(self):
        return iter(self._modules.values())

    def append(self, module: Module) -> "ModuleList":
        setattr(self, str(len(self._modules)), module)
        return self
