"""Scratch-buffer arena for the training hot path.

The kernels would otherwise re-allocate the same megabyte-scale
temporaries every step (im2col patch matrices, padded inputs, col2im
staging, batch-norm work arrays).  Training memory is kept by how long
it must live, and there are two lifetimes (DESIGN.md §10.1 has the
table); the arena holds the first:

- **inside a kernel** — :data:`transient`, the one process-wide
  :class:`TransientStack`: valid until the kernel call that asked for it
  returns.  Every conv, batch-norm and max-pool kernel that draws
  scratch, forward and backward, eager or replayed, calls
  :meth:`TransientStack.reset` on entry and then bump-allocates its pad,
  im2col patch matrix, GEMM outputs, work arrays and masks — and, when
  no backward is recorded, the normalised input — from one base.  The
  process pays for the largest single kernel's *sum* of scratch, not for
  the largest request of each tag.  Relies on one kernel running at a
  time per process: grad mode is thread-local, the arena is not.
- **inside a step** — activations, batch norm's normalised input and
  the input gradients are not arena memory: eager allocates them fresh
  and the graph frees each once the last backward reading it has run; a
  replayed step holds them as handles of its plan.  No layer owns memory.

Whatever is retained across calls belongs to its owner, not to the
arena: the optimizer keeps its update scratch (``optim/sgd.py``), and
the wire codec its staging buffers in a :func:`shared_cache`.  Anything
that must outlive the op (graph payloads, gradients handed to
``Tensor._accumulate``) is freshly allocated or copied.  Nobody keeps
:data:`transient` arrays: they are requested where used, and the stack
re-bases (``generation`` moves) when a kernel outgrew it.

Per-tag hit/miss and bytes-saved counts of the transient requests — tags
own no memory — go to ``obs.metrics`` via :func:`publish_metrics` and
onto ``repro profile``'s hotspot table.  All of it is process-local:
pool workers each grow their own arena.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

__all__ = ["TransientStack", "transient",
           "stats_snapshot", "stats_since", "tag_stats", "resident_bytes",
           "shared_cache", "shared_bytes", "reset", "publish_metrics"]

#: Byte alignment of every :class:`TransientStack` array (one cache line).
ALIGN = 64


@dataclass
class TagStat:
    """Arena traffic for one buffer tag (e.g. ``conv2d.cols``)."""

    hits: int = 0
    misses: int = 0
    bytes_alloc: int = 0   # bytes newly allocated on misses
    bytes_saved: int = 0   # bytes served from cache on hits
    growths: int = 0       # misses that replaced a smaller base

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


# tag -> TagStat of the transient requests in this process.
_stats: defaultdict[str, TagStat] = defaultdict(TagStat)

# name -> process-wide cache of immutable arrays (``conv.gather_idx``).
_shared: dict[str, dict] = {}


class TransientStack:
    """Scratch that dies when the kernel call asking for it returns.

    One base, bump-allocated at :data:`ALIGN`-byte offsets.  A kernel calls
    :meth:`reset` on entry — everything served before is dead — and may
    :meth:`release` a region it is done with so a later request reuses it.
    A request that does not fit is served a fresh array (a miss) and raises
    the high-water mark; the next :meth:`reset`, when nothing points into
    the base, replaces it with one of that size and bumps ``generation``.
    Tags name requests for the counters and own no memory.
    """

    __slots__ = ("_base", "_top", "_high", "generation")

    def __init__(self):
        self._base = np.empty(0, np.uint8)
        self._top = 0           # bytes in use by the running kernel
        self._high = 0          # largest ``_top`` any kernel reached
        self.generation = 0

    @property
    def nbytes(self) -> int:
        """Bytes the base holds."""
        return self._base.nbytes

    def reset(self) -> None:
        """Start a kernel call: every array served before is dead."""
        self._top = 0
        if self._high > self._base.nbytes:
            self._base = np.empty(0, np.uint8)      # free before allocating
            raw = np.empty(self._high + ALIGN, np.uint8)
            lead = -raw.ctypes.data % ALIGN
            self._base = raw[lead:lead + self._high]
            self.generation += 1

    def mark(self) -> int:
        """The current top, for :meth:`release`."""
        return self._top

    def release(self, mark: int) -> None:
        """Free everything served since :meth:`mark` returned ``mark``."""
        self._top = mark

    def buffer(self, tag: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """An uninitialised C-contiguous ``shape``/``dtype`` array, valid
        until the next :meth:`reset` (or a :meth:`release` below it)."""
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        start = -(-self._top // ALIGN) * ALIGN
        self._top = start + nbytes
        self._high = max(self._high, self._top)
        st = _stats[tag]
        if self._top <= self._base.nbytes:
            st.hits += 1
            st.bytes_saved += nbytes
            return self._base[start:self._top].view(dtype).reshape(shape)
        st.misses += 1
        st.bytes_alloc += nbytes
        st.growths += self._base.nbytes > 0
        return np.empty(shape, dtype)


#: The one stack for scratch that dies inside a kernel call.
transient = TransientStack()


def tag_stats(tag: str) -> TagStat:
    """The live :class:`TagStat` for ``tag`` (created empty if missing)."""
    return _stats[tag]


def stats_snapshot() -> dict[str, tuple[int, int, int, int]]:
    """``{tag: (hits, misses, bytes_alloc, bytes_saved)}`` snapshot."""
    return {tag: (s.hits, s.misses, s.bytes_alloc, s.bytes_saved)
            for tag, s in _stats.items()}


def stats_since(before: dict) -> dict[str, tuple[int, int, int, int]]:
    """Per-tag traffic since the :func:`stats_snapshot` ``before``, as
    ``(hits, misses, bytes_alloc, bytes_saved)`` deltas; tags with no
    traffic in the window are omitted."""
    deltas = {}
    for tag, now in stats_snapshot().items():
        delta = tuple(a - b for a, b in zip(now, before.get(tag, (0,) * 4)))
        if any(delta):
            deltas[tag] = delta
    return deltas


def resident_bytes() -> dict[str, int]:
    """``{"transient": bytes}`` held by :data:`transient`'s one base
    (empty while it holds none)."""
    return {"transient": transient.nbytes} if transient.nbytes else {}


def shared_cache(name: str) -> dict:
    """The process-wide array cache ``name`` (created empty)."""
    return _shared.setdefault(name, {})


def shared_bytes() -> dict[str, int]:
    """``{name: bytes}`` held by each :func:`shared_cache`."""
    return {n: sum(a.nbytes for a in c.values()) for n, c in _shared.items()}


def reset() -> None:
    """Drop the stack's base and every shared array, zero the counters
    (test isolation)."""
    transient.__init__()
    _stats.clear()
    for cache in _shared.values():
        cache.clear()


def publish_metrics(registry=None) -> None:
    """Export per-tag counters into an ``obs.metrics`` registry.

    Counter names: ``workspace.hits``, ``workspace.misses``,
    ``workspace.bytes_saved``, ``workspace.growths``, each labelled
    ``tag=<tag>``.  Values are assigned absolutely (the underlying stats
    are monotonic), so repeated publishes are idempotent and survive
    registry swaps.  Where the memory sits goes out as gauges:
    ``workspace.resident_bytes{tag=}`` (``tag=transient`` for the stack;
    its request tags own nothing), ``conv.gather_idx_bytes`` and
    ``maxpool.base_bytes``.
    """
    if registry is None:
        from repro.obs.metrics import get_registry
        registry = get_registry()
    resident = resident_bytes()
    for tag, st in _stats.items():
        registry.counter("workspace.hits", tag=tag).value = float(st.hits)
        registry.counter("workspace.misses", tag=tag).value = float(st.misses)
        registry.counter("workspace.bytes_saved", tag=tag).value = float(st.bytes_saved)
        registry.counter("workspace.growths", tag=tag).value = float(st.growths)
    for tag in _stats.keys() | resident.keys():
        registry.gauge("workspace.resident_bytes", tag=tag).set(resident.get(tag, 0))
    for name, nbytes in shared_bytes().items():
        registry.gauge(name + "_bytes").set(nbytes)
