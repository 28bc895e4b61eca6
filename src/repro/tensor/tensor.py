"""Core reverse-mode autodiff ``Tensor``.

Design
------
Each :class:`Tensor` optionally records the operation that produced it as a
closure ``_backward`` plus the list of parent tensors ``_parents``.  Calling
:meth:`Tensor.backward` topologically sorts the DAG reachable from the output
and accumulates gradients into ``.grad`` (a plain ``np.ndarray``) of every
tensor with ``requires_grad=True``.

Broadcasting follows NumPy semantics; gradients of broadcast operands are
reduced back to the operand shape by :func:`unbroadcast`.

All floating point data is kept in ``float32`` by default (matching the
communication-cost accounting elsewhere in the repository, which assumes
4-byte parameters), but ``float64`` tensors are supported and used by the
gradient-checking tests.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.obs.metrics import observe_op
from repro.obs.trace import get_tracer

_DEFAULT_DTYPE = np.float32

_grad_state = threading.local()

_op_name_cache: dict = {}

# Graph-capture hook: when set, every Tensor produced through ``_make`` is
# reported as ``(out, parents, backward, args)`` — including nodes created
# with ``requires_grad=False`` results, which the step compiler must see to
# detect per-step values it would otherwise bake in as constants.  ``args``
# is whatever non-tensor operands the op declared at its ``_make`` call
# (stride, axis, workspace slot, ...): the only channel through which a
# replay learns them.  None (the default) keeps op creation on the original
# path: one global ``is None`` check per op.
_graph_capture_hook: Callable[["Tensor", tuple, Callable, tuple], None] | None = None


def set_graph_capture_hook(hook):
    """Install (or clear, with ``None``) the op-creation capture hook.

    Returns the previously installed hook.  Used by
    :mod:`repro.tensor.compile` to record one training step's tape; not a
    public API for anything else.
    """
    global _graph_capture_hook
    previous = _graph_capture_hook
    _graph_capture_hook = hook
    return previous


def _backward_op_name(fn) -> str:
    """Derive an op name from a backward closure's qualname (cached).

    ``conv2d.<locals>.backward`` -> ``conv2d``;
    ``Tensor.__matmul__.<locals>.backward`` -> ``matmul``;
    ``_BatchNorm.forward.<locals>.backward`` -> ``batchnorm``.
    """
    code = getattr(fn, "__code__", None)
    name = _op_name_cache.get(code)
    if name is None:
        parts = getattr(fn, "__qualname__", "op").split(".<locals>")[0].split(".")
        name = parts[-1]
        if name == "forward" and len(parts) > 1:
            name = parts[-2]
        name = name.strip("_").lower()
        _op_name_cache[code] = name
    return name


def is_grad_enabled() -> bool:
    """Return whether new operations record the autodiff graph."""
    return getattr(_grad_state, "enabled", True)


# Debug guard against silent dtype upcasts on the hot path (see
# forbid_dtype).  None (the default) keeps tensor creation on the
# original path — one global ``is None`` check.
_forbidden_dtype: np.dtype | None = None


@contextlib.contextmanager
def forbid_dtype(dtype=np.float64):
    """Debug assertion: raise if a Tensor or gradient of ``dtype`` appears.

    The float32 training path can silently upcast to float64 through a
    stray NumPy scalar (``np.float64(2) * x`` promotes), doubling memory
    traffic without changing results enough to notice.  Inside this
    context every ``Tensor`` construction and every gradient entering
    ``Tensor._accumulate`` asserts against the forbidden dtype — the
    surface through which any upcast must pass to affect training.
    Intentional float64 use (server-side aggregation, gradcheck tests,
    ``SGD._global_grad_norm``) happens on plain arrays outside that
    surface and is unaffected.
    """
    global _forbidden_dtype
    prev = _forbidden_dtype
    _forbidden_dtype = np.dtype(dtype)
    try:
        yield
    finally:
        _forbidden_dtype = prev


@contextlib.contextmanager
def no_grad():
    """Context manager: operations inside do not build the autodiff graph.

    Used for inference, parameter updates inside optimizers, and the
    communication codec (which must not retain graphs across FL rounds).
    """
    prev = is_grad_enabled()
    _grad_state.enabled = False
    try:
        yield
    finally:
        _grad_state.enabled = prev


def _as_array(data, dtype=None) -> np.ndarray:
    if isinstance(data, Tensor):
        data = data.data
    arr = np.asarray(data)
    if dtype is not None:
        arr = arr.astype(dtype, copy=False)
    elif arr.dtype == np.float64:
        arr = arr.astype(_DEFAULT_DTYPE)
    elif arr.dtype.kind not in "fiub":
        raise TypeError(f"unsupported dtype for Tensor: {arr.dtype}")
    return arr


def backward_schedule(root: "Tensor") -> list["Tensor"]:
    """The order :meth:`Tensor.backward` runs the nodes reachable from
    ``root`` in: reverse topological, so each node's gradient is complete
    before its closure runs.

    Gradient accumulation order — hence every byte of a step — follows
    from this order, so the step compiler schedules its replay from the
    same function.  Iterative DFS (recursion-free: deep graphs from
    many-layer models would overflow Python's stack).
    """
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited and p.requires_grad:
                stack.append((p, False))
    topo.reverse()
    return topo


def donatable(arr: np.ndarray, dtype) -> bool:
    """Whether an op may write a ``dtype`` result over ``arr`` in place.

    Only a C-contiguous, writeable array of exactly that dtype qualifies
    (DESIGN.md §10.2): a strided view (a padded conv's interior gradient)
    would hand a strided result to the next op, whose BLAS call could then
    take another kernel and other bits; a read-only array may be shared.
    A refused donation allocates, as an undonated call does.
    """
    return (arr.dtype == dtype and arr.flags.c_contiguous
            and arr.flags.writeable)


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` (shape of a broadcast result) back to ``shape``.

    Sums over the leading dimensions that were added by broadcasting and
    over any axis where the original extent was 1.
    """
    if grad.shape == shape:
        return grad
    # Sum away prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum axes that were broadcast from extent 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """N-dimensional array with reverse-mode gradient tracking.

    Parameters
    ----------
    data:
        Array-like payload.  Copied only if dtype conversion is required.
    requires_grad:
        If True, gradients are accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")
    __array_priority__ = 100.0  # make np_scalar * Tensor dispatch to us

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data: np.ndarray = _as_array(data, dtype)
        if _forbidden_dtype is not None and self.data.dtype == _forbidden_dtype:
            raise AssertionError(
                f"Tensor created with forbidden dtype {_forbidden_dtype} "
                f"(shape {self.data.shape}) inside forbid_dtype()")
        self.requires_grad: bool = bool(requires_grad) and is_grad_enabled()
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name: str | None = None

    # ------------------------------------------------------------------ #
    # basic properties                                                     #
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4, threshold=8)}{grad_flag})"

    def item(self) -> float:
        return float(self.data.item())

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a view sharing data but cut from the autodiff graph."""
        return Tensor(self.data, requires_grad=False, dtype=self.data.dtype)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad,
                      dtype=self.data.dtype)

    def astype(self, dtype) -> "Tensor":
        return Tensor(self.data.astype(dtype), requires_grad=self.requires_grad,
                      dtype=dtype)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------ #
    # graph plumbing                                                       #
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make(data: np.ndarray, parents: Sequence["Tensor"],
              backward: Callable[[np.ndarray], None],
              args: tuple = ()) -> "Tensor":
        """Create a result tensor, attaching graph edges if grad is enabled.

        ``args`` are the op's non-tensor operands, passed on to the graph
        capture hook and otherwise unused.
        """
        req = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=False, dtype=data.dtype)
        out.requires_grad = req
        if req:
            out._parents = tuple(parents)
            out._backward = backward
        if _graph_capture_hook is not None:
            _graph_capture_hook(out, tuple(parents), backward, args)
        return out

    def _accumulate(self, grad: np.ndarray,
                    donate: str | None = None) -> None:
        """Add ``grad`` into ``self.grad``.

        ``donate="fresh"`` lets a backward closure transfer buffer
        ownership and skip the defensive first-accumulation copy
        (DESIGN.md §10.2): the caller just allocated ``grad`` (or holds
        the only reference) and will never read or write it again.  Any
        other gradient is copied on first accumulation — closures may hand
        over views of arrays they reuse.  Donation never changes values,
        only whether a copy is taken.
        """
        if not self.requires_grad:
            return
        if _forbidden_dtype is not None \
                and np.asarray(grad).dtype == _forbidden_dtype:
            raise AssertionError(
                f"gradient with forbidden dtype {_forbidden_dtype} for "
                f"tensor of shape {self.shape} inside forbid_dtype()")
        grad = np.asarray(grad, dtype=self.data.dtype)
        if self.grad is None:
            self.grad = grad if donate == "fresh" else np.array(grad)
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to the implicit seed of 1.0 (scalar outputs only).
        Convention: every op's ``_backward`` closure receives the node's
        fully-accumulated output gradient and calls ``parent._accumulate``
        on each input.  ``backward()`` walks the DAG in reverse topological
        order, so each node's gradient is complete before its closure runs.

        A node is dropped from the schedule once its closure has run, and
        its edges, closure and gradient are released: an activation lives
        only until the last backward that reads it, not until the walk
        ends (DESIGN.md §10.1).  The gradient is released *before* the
        closure runs, so the closure holds the only reference and may
        write its input gradient over it (DESIGN.md §10.2); the root keeps
        ``.grad``, so its closure gets a copy.

        While the tracer is enabled each closure is timed and charged to
        ``op.seconds{op=<name>.backward}`` (:func:`repro.obs.metrics.
        observe_op`); otherwise the walk times nothing.
        """
        if grad is None:
            if self.size != 1:
                raise RuntimeError("backward() on non-scalar tensor requires an explicit gradient")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.shape:
                raise ValueError(f"seed gradient shape {grad.shape} != tensor shape {self.shape}")

        self._accumulate(grad)
        traced = get_tracer().enabled
        schedule = backward_schedule(self)
        schedule.reverse()              # popped from the end, in order
        while schedule:
            node = schedule.pop()
            fn, g = node._backward, node.grad
            if fn is None or g is None:
                continue
            if node is self:
                g = g.copy()
            else:
                node._backward = None
                node._parents = ()
                node.grad = None
            if not traced:
                fn(g)
            else:
                t0 = time.perf_counter()
                fn(g)
                observe_op(_backward_op_name(fn) + ".backward",
                           time.perf_counter() - t0)

    # ------------------------------------------------------------------ #
    # arithmetic                                                           #
    # ------------------------------------------------------------------ #
    def _coerce(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=self.data.dtype))

    def __add__(self, other):
        other = self._coerce(other)
        out_data = self.data + other.data
        a, b = self, other

        def backward(g):
            a._accumulate(unbroadcast(g, a.shape))
            b._accumulate(unbroadcast(g, b.shape))

        return Tensor._make(out_data, (a, b), backward)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        out_data = self.data - other.data
        a, b = self, other

        def backward(g):
            a._accumulate(unbroadcast(g, a.shape))
            b._accumulate(unbroadcast(-g, b.shape))

        return Tensor._make(out_data, (a, b), backward)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        other = self._coerce(other)
        out_data = self.data * other.data
        a, b = self, other

        def backward(g):
            a._accumulate(unbroadcast(g * b.data, a.shape), donate="fresh")
            b._accumulate(unbroadcast(g * a.data, b.shape), donate="fresh")

        return Tensor._make(out_data, (a, b), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        out_data = self.data / other.data
        a, b = self, other

        def backward(g):
            a._accumulate(unbroadcast(g / b.data, a.shape), donate="fresh")
            b._accumulate(unbroadcast(-g * a.data / (b.data * b.data), b.shape),
                          donate="fresh")

        return Tensor._make(out_data, (a, b), backward)

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def __neg__(self):
        a = self

        def backward(g):
            a._accumulate(-g, donate="fresh")

        return Tensor._make(-self.data, (a,), backward)

    def __pow__(self, exponent: float):
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log")
        a = self
        out_data = self.data ** exponent

        def backward(g):
            a._accumulate(g * exponent * self.data ** (exponent - 1),
                          donate="fresh")

        return Tensor._make(out_data, (a,), backward)

    def __matmul__(self, other):
        other = self._coerce(other)
        a, b = self, other
        out_data = a.data @ b.data

        def backward(g):
            ad, bd = a.data, b.data
            if a.requires_grad:
                if ad.ndim == 1 and bd.ndim == 1:          # (k,)@(k,) -> ()
                    ga = g * bd
                elif ad.ndim == 1:                          # (k,)@(...,k,n) -> (...,n)
                    ga = (bd @ g[..., None])[..., 0] if bd.ndim > 2 else bd @ g
                elif bd.ndim == 1:                          # (...,m,k)@(k,) -> (...,m)
                    ga = g[..., None] * bd
                else:                                       # batched mat-mat
                    ga = g @ np.swapaxes(bd, -1, -2)
                a._accumulate(unbroadcast(np.asarray(ga), a.shape),
                              donate="fresh")
            if b.requires_grad:
                if ad.ndim == 1 and bd.ndim == 1:
                    gb = g * ad
                elif ad.ndim == 1:                          # gb: (...,k,n)
                    gb = ad[:, None] * g[..., None, :]
                elif bd.ndim == 1:                          # gb: (k,)
                    gb = np.tensordot(ad, g, axes=(tuple(range(ad.ndim - 1)),
                                                   tuple(range(g.ndim))))
                else:
                    gb = np.swapaxes(ad, -1, -2) @ g
                b._accumulate(unbroadcast(np.asarray(gb), b.shape),
                              donate="fresh")

        return Tensor._make(out_data, (a, b), backward)

    # ------------------------------------------------------------------ #
    # reductions                                                           #
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False):
        a = self
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g):
            g = np.asarray(g)
            if axis is None:
                grad = np.broadcast_to(g, a.shape)
            else:
                if not keepdims:
                    g = np.expand_dims(g, axis=axis)
                grad = np.broadcast_to(g, a.shape)
            a._accumulate(grad.astype(a.dtype, copy=False))

        return Tensor._make(np.asarray(out_data), (a,), backward,
                            (axis, keepdims))

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            n = self.size
        elif isinstance(axis, tuple):
            n = int(np.prod([self.shape[ax] for ax in axis]))
        else:
            n = self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def var(self, axis=None, keepdims: bool = False):
        mu = self.mean(axis=axis, keepdims=True)
        sq = (self - mu) * (self - mu)
        return sq.mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False):
        a = self
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(g):
            g_arr = np.asarray(g)
            if axis is None:
                mask = (a.data == a.data.max())
                contrib = mask / mask.sum()
                a._accumulate((g_arr * contrib).astype(a.dtype, copy=False),
                              donate="fresh")
            else:
                expanded = a.data.max(axis=axis, keepdims=True)
                mask = (a.data == expanded)
                counts = mask.sum(axis=axis, keepdims=True)
                gg = g_arr if keepdims else np.expand_dims(g_arr, axis=axis)
                a._accumulate((mask * gg / counts).astype(a.dtype, copy=False),
                              donate="fresh")

        return Tensor._make(np.asarray(out_data), (a,), backward)

    # ------------------------------------------------------------------ #
    # shape ops                                                            #
    # ------------------------------------------------------------------ #
    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        out_data = self.data.reshape(shape)

        def backward(g):
            a._accumulate(g.reshape(a.shape))

        return Tensor._make(out_data, (a,), backward)

    def flatten_from(self, start_dim: int = 1):
        """Flatten dims from ``start_dim`` on (like ``torch.flatten``)."""
        new_shape = self.shape[:start_dim] + (-1,)
        return self.reshape(*new_shape)

    def transpose(self, *axes):
        a = self
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inv = np.argsort(axes)
        out_data = self.data.transpose(axes)

        def backward(g):
            a._accumulate(g.transpose(inv))

        return Tensor._make(out_data, (a,), backward, (axes, inv))

    def __getitem__(self, idx):
        a = self
        out_data = self.data[idx]
        # Basic (slice/int) indexing selects each element at most once, so
        # the backward scatter is plain assignment into zeros — equal to
        # np.add.at but without its slow buffered-iteration path.  Fancy
        # (array) indexing may repeat elements and keeps the add-scatter.
        items = idx if isinstance(idx, tuple) else (idx,)
        basic = all(isinstance(i, (int, np.integer, slice)) or i is Ellipsis
                    or i is None for i in items)

        def backward(g):
            full = np.zeros_like(a.data)
            if basic:
                full[idx] = g
            else:
                np.add.at(full, idx, g)
            a._accumulate(full, donate="fresh")

        return Tensor._make(np.asarray(out_data), (a,), backward,
                            (idx, basic))

    # ------------------------------------------------------------------ #
    # elementwise nonlinearities                                           #
    # ------------------------------------------------------------------ #
    def exp(self):
        a = self
        out_data = np.exp(self.data)

        def backward(g):
            a._accumulate(g * out_data, donate="fresh")

        return Tensor._make(out_data, (a,), backward)

    def log(self):
        a = self
        out_data = np.log(self.data)

        def backward(g):
            a._accumulate(g / a.data, donate="fresh")

        return Tensor._make(out_data, (a,), backward)

    def sqrt(self):
        a = self
        out_data = np.sqrt(self.data)

        def backward(g):
            a._accumulate(g * 0.5 / out_data, donate="fresh")

        return Tensor._make(out_data, (a,), backward)

    def tanh(self):
        a = self
        out_data = np.tanh(self.data)

        def backward(g):
            a._accumulate(g * (1.0 - out_data * out_data), donate="fresh")

        return Tensor._make(out_data, (a,), backward)

    def sigmoid(self):
        a = self
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(g):
            a._accumulate(g * out_data * (1.0 - out_data), donate="fresh")

        return Tensor._make(out_data, (a,), backward)

    def relu(self, donate: bool = False):
        """``x * (x > 0)``.  ``donate=True`` is the caller's promise that
        nothing reads ``self.data`` again: the output is written over it
        when :func:`donatable` allows (DESIGN.md §10.2)."""
        a = self
        x = self.data
        out = x if donate and donatable(x, x.dtype) else None
        out_data = np.multiply(x, x > 0, out=out)

        def backward(g):
            # ``out > 0`` is ``x > 0`` for every float: a positive x passes
            # through, and 0, -0, a negative, -inf (-> NaN) and NaN all
            # leave an ``out`` that is not positive.  No mask is kept.  The
            # input gradient is written over ``g`` when it may be.
            dx = g if donatable(g, a.data.dtype) else None
            a._accumulate(np.multiply(g, out_data > 0, out=dx),
                          donate="fresh")

        return Tensor._make(out_data, (a,), backward)

    def clip(self, lo: float, hi: float):
        a = self
        out_data = np.clip(self.data, lo, hi)
        mask = (self.data >= lo) & (self.data <= hi)

        def backward(g):
            a._accumulate(g * mask, donate="fresh")

        return Tensor._make(out_data, (a,), backward)

    # comparison helpers (no grad, return plain bool arrays)
    def __gt__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data > other

    def __lt__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data < other

    def __ge__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data >= other

    def __le__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data <= other


def tensor(data, requires_grad: bool = False, dtype=None) -> Tensor:
    """Construct a :class:`Tensor` (convenience mirroring ``torch.tensor``)."""
    return Tensor(data, requires_grad=requires_grad, dtype=dtype)


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    ts = list(tensors)
    out_data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            t._accumulate(g[tuple(sl)])

    return Tensor._make(out_data, tuple(ts), backward, (axis, offsets))


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Differentiable stack along a new ``axis``."""
    ts = list(tensors)
    out_data = np.stack([t.data for t in ts], axis=axis)

    def backward(g):
        for i, t in enumerate(ts):
            sl = [slice(None)] * g.ndim
            sl[axis] = i
            t._accumulate(g[tuple(sl)])

    return Tensor._make(out_data, tuple(ts), backward)
