"""Plan IR: buffer handles, lifetimes, and the linear-scan arena.

A compiled step is a straight-line program over three kinds of values:

- :class:`Handle` — an intermediate buffer the planner owns.  Handles are
  declared during emission with shape/dtype only; after all instructions
  are emitted, a linear-scan pass assigns every handle a byte offset in
  one arena, reusing memory between handles whose lifetimes (first/last
  touching instruction) do not overlap.  The arena is a prefix of a uint8
  base the caller may pass in: the step compiler hands every plan its one
  shared base, because an arena holds only intra-step intermediates and
  plans never replay concurrently.
- :class:`View` — a derived array built once at bind time (a transpose /
  reshape / slice of a handle's arena array, a broadcast of a gradient,
  or a window view over the input buffer).  Views carry their base handle
  so touching a view extends the base's lifetime.
- plain ``np.ndarray`` — memory the planner does not own: parameter data,
  persistent input/label/gradient buffers, workspace-arena buffers shared
  with the eager kernels, and captured constants.

Instructions are *factories*: ``factory(resolve) -> callable | None``.
Emission stores the factory plus the list of values it touches (for
lifetime analysis); after offsets are assigned and handle arrays
materialised, every factory is invoked once with :meth:`PlanBuilder.resolve`
to produce the zero-argument closure replayed each step (``None`` means
the factory turned out to be a no-op, e.g. a reshape that binds as a
view).
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.tensor.tensor import donatable

_ALIGN = 64


class Unsupported(Exception):
    """Raised during capture/emission when a graph shape cannot be planned.

    The step compiler catches this and marks the signature as
    fall-back-to-eager; the message becomes the ``reason`` label on the
    ``compile.fallbacks`` counter.
    """


class Handle:
    """A planner-owned buffer: shape/dtype at emission, array after layout."""

    __slots__ = ("shape", "dtype", "nbytes", "first", "last", "offset",
                 "name", "array")

    def __init__(self, shape: tuple[int, ...], dtype, name: str = ""):
        self.shape = tuple(shape)
        self.dtype = np.dtype(dtype)
        self.nbytes = int(np.prod(self.shape, dtype=np.int64)) * self.dtype.itemsize
        self.first: int | None = None
        self.last: int | None = None
        self.offset: int | None = None
        self.name = name
        self.array: np.ndarray | None = None

    def __repr__(self) -> str:
        return (f"Handle({self.name or '?'}, {self.shape}, {self.dtype}, "
                f"live=[{self.first},{self.last}], off={self.offset})")


class View:
    """A bind-time derived array over a handle (or constant memory).

    ``build`` receives ``resolve`` and returns the array; the result is
    memoised so every consumer sees the same object.  ``base`` is the
    handle whose storage the view aliases (``None`` when the view is over
    memory the planner does not own).
    """

    __slots__ = ("base", "build", "_arr")

    def __init__(self, base: Handle | None,
                 build: Callable[[Callable], np.ndarray]):
        self.base = base
        self.build = build
        self._arr: np.ndarray | None = None

    def materialize(self, resolve) -> np.ndarray:
        if self._arr is None:
            self._arr = self.build(resolve)
        return self._arr


def _align(n: int) -> int:
    return (n + _ALIGN - 1) & ~(_ALIGN - 1)


class PlanBuilder:
    """Collects handles and instruction factories, then lays out and binds.

    Emission order is execution order: the instruction counter doubles as
    the timestamp for lifetime analysis, covering the forward and backward
    sequences as one interval space (an activation read by a backward
    instruction stays live across the whole forward tail).
    """

    def __init__(self):
        self.handles: list[Handle] = []
        self._factories: list[Callable] = []
        self._uses: list[list[Any]] = []
        self._counter = 0
        self.arena: np.ndarray | None = None   # this plan's prefix of base
        self.base: np.ndarray | None = None
        self.persistent_bytes = 0

    # ------------------------------------------------------------ declare
    def alloc(self, shape, dtype, name: str = "") -> Handle:
        """Declare an arena-planned intermediate buffer."""
        h = Handle(shape, dtype, name)
        self.handles.append(h)
        return h

    def persistent(self, shape, dtype, adopt=None) -> np.ndarray:
        """A buffer that lives across steps (inputs, parameter gradients)
        — plain memory, never part of the reuse arena.

        ``adopt`` is an array the caller hands over (the capture step's
        own gradient): it becomes the buffer when it is C-contiguous,
        writeable and of this shape and dtype, so the plan holds no
        second copy; otherwise one is allocated.
        """
        if (adopt is not None and adopt.shape == tuple(shape)
                and donatable(adopt, np.dtype(dtype))):
            arr = adopt
        else:
            arr = np.empty(shape, dtype=dtype)
        self.persistent_bytes += arr.nbytes
        return arr

    # ------------------------------------------------------------- emit
    def emit(self, factory: Callable[[Callable], Callable | None],
             uses: list[Any]) -> None:
        """Append one instruction.

        ``uses`` lists every Handle/View the bound closure will read or
        write; under-reporting a use lets the arena recycle a buffer that
        is still needed, so emitters must be exhaustive here.
        """
        idx = self._counter
        self._counter += 1
        for u in uses:
            h = u.base if isinstance(u, View) else u
            if isinstance(h, Handle):
                if h.first is None:
                    h.first = idx
                h.last = idx
        self._factories.append(factory)
        self._uses.append(uses)

    def touch(self, value: Any) -> None:
        """Extend a value's lifetime to the current instruction frontier
        (for reads that happen outside an emitted instruction, e.g. a
        gradient alias consumed by a later emission)."""
        h = value.base if isinstance(value, View) else value
        if isinstance(h, Handle) and h.first is not None:
            h.last = max(h.last, self._counter)

    # ---------------------------------------------------------- finalize
    def finalize(self, base: np.ndarray | None = None) -> list[Callable]:
        """Assign offsets, materialise the arena, bind all factories.

        Linear-scan first-fit: handles sorted by first touch; a handle may
        reuse bytes of any handle whose last touch strictly precedes its
        first.  The arena is a prefix view of ``base`` (a uint8 array) when
        the plan fits in it, else of a fresh base of exactly the plan's
        size; :attr:`base` is whichever backs it.  Returns the bound
        closure list (factories that bind to ``None`` are dropped).
        """
        live: list[tuple[int, int, int]] = []   # (last, offset, nbytes)
        total = 0
        planned = [h for h in self.handles if h.first is not None]
        for h in sorted(planned, key=lambda h: (h.first, -h.nbytes)):
            live = [iv for iv in live if iv[0] >= h.first]
            live.sort(key=lambda iv: iv[1])
            off = 0
            for last, o, nb in live:
                if off + h.nbytes <= o:
                    break
                off = _align(o + nb)
            h.offset = off
            live.append((h.last, off, h.nbytes))
            total = max(total, off + h.nbytes)
        need = _align(total)
        if base is None or base.nbytes < need:
            base = np.empty(need, dtype=np.uint8)
        self.base = base
        self.arena = base[:need]
        for h in planned:
            h.array = (self.arena[h.offset:h.offset + h.nbytes]
                       .view(h.dtype).reshape(h.shape))
        for h in self.handles:
            # Declared but never emitted against (defensive): standalone.
            if h.array is None:
                h.array = np.empty(h.shape, dtype=h.dtype)
        resolve = self.resolve
        fns = [f(resolve) for f in self._factories]
        return [f for f in fns if f is not None]

    def resolve(self, value: Any) -> np.ndarray:
        """Handle -> its arena array; View -> its memoised array;
        anything else passes through."""
        if isinstance(value, Handle):
            return value.array
        if isinstance(value, View):
            return value.materialize(self.resolve)
        return value

    # ------------------------------------------------------------- stats
    def stats(self) -> dict:
        planned = [h for h in self.handles if h.array is not None]
        return {
            "handles": len(planned),
            "instructions": len(self._factories),
            "arena_bytes": 0 if self.arena is None else int(self.arena.nbytes),
            "raw_bytes": int(sum(h.nbytes for h in planned)),
            "persistent_bytes": int(self.persistent_bytes),
        }
