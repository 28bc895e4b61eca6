"""Op-level profiler for the autograd engine and hot ``repro.nn`` layers.

Two hook families, both installed only while a profiler is active so the
default path runs the original, unwrapped code:

- **forward**: the hot modules (``Conv2d``, ``Linear``, batch norm) get
  their ``forward`` temporarily wrapped with a timer that also charges
  analytic FLOPs via :mod:`repro.nn.flops` (2 FLOPs per MAC, times the
  batch size);
- **backward**: the engine's graph walk (:meth:`Tensor.backward`) reports
  every node's closure through a module-level hook, with the op name
  derived from the closure's qualname — so ``conv2d.backward``,
  ``matmul.backward`` etc. are attributed without touching each op.

``top_hotspots(n)`` returns the ops ranked by cumulative wall time; the
table renderer lives in :mod:`repro.obs.report`.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass

# ``repro.tensor`` re-exports a ``tensor()`` *function*, which shadows the
# submodule under plain attribute imports — resolve the module explicitly.
_tensor_engine = importlib.import_module("repro.tensor.tensor")


@dataclass
class OpStat:
    """Aggregate cost of one op: calls, wall seconds, analytic FLOPs."""

    calls: int = 0
    seconds: float = 0.0
    flops: int = 0

    def add(self, seconds: float, flops: int = 0) -> None:
        """Charge one call of ``seconds`` wall time and ``flops`` work."""
        self.calls += 1
        self.seconds += seconds
        self.flops += int(flops)

    @property
    def gflops_per_s(self) -> float:
        """Achieved throughput (0 when no FLOPs were attributed)."""
        return self.flops / self.seconds / 1e9 if self.seconds > 0 else 0.0


class OpProfiler:
    """Collects per-op statistics while installed (also a context manager).

    ::

        with OpProfiler() as prof:
            loss.backward()
        print(prof.report())

    Install/uninstall is idempotent and restores whatever backward hook
    was present before (profilers nest, last-installed wins).
    """

    def __init__(self):
        self.stats: dict[str, OpStat] = {}
        self._installed = False
        self._saved_forwards: list[tuple[type, object]] = []
        self._prev_hook = None
        self._ws_baseline: dict[str, tuple[int, int, int, int]] = {}

    # ---------------------------------------------------------- recording
    def record(self, op: str, seconds: float, flops: int = 0) -> None:
        """Charge one call of ``op``; creates its :class:`OpStat` lazily."""
        stat = self.stats.get(op)
        if stat is None:
            stat = self.stats[op] = OpStat()
        stat.add(seconds, flops)

    def _on_backward(self, op: str, seconds: float) -> None:
        self.record(op + ".backward", seconds)

    # ------------------------------------------------------------ install
    def install(self) -> "OpProfiler":
        """Patch the hot forwards and the engine backward hook in."""
        if self._installed:
            return self
        # Imported here so a disabled profiler costs the nn stack nothing.
        from repro.nn import flops as _flops
        from repro.nn.conv import Conv2d
        from repro.nn.linear import Linear
        from repro.nn.norm import LayerNorm, _BatchNorm

        profiler = self

        def _instrument(cls: type, op: str):
            original = cls.forward

            def timed_forward(self, x, *args, **kwargs):
                t0 = time.perf_counter()
                out = original(self, x, *args, **kwargs)
                elapsed = time.perf_counter() - t0
                report = _flops.FlopsReport()
                _flops._walk(self, "", tuple(x.shape[1:]), report)
                batch = x.shape[0] if x.ndim > 1 else 1
                profiler.record(op + ".forward", elapsed,
                                report.total * batch)
                return out

            timed_forward.__doc__ = original.__doc__
            profiler._saved_forwards.append((cls, original))
            cls.forward = timed_forward

        _instrument(Conv2d, "conv2d")
        _instrument(Linear, "linear")
        _instrument(_BatchNorm, "batchnorm")
        _instrument(LayerNorm, "layernorm")
        self._prev_hook = _tensor_engine.set_backward_op_hook(
            self._on_backward)
        from repro.tensor import workspace as _workspace
        self._ws_baseline = _workspace.stats_snapshot()
        self._installed = True
        return self

    def uninstall(self) -> None:
        """Restore the original forwards and the previous backward hook."""
        if not self._installed:
            return
        for cls, original in reversed(self._saved_forwards):
            cls.forward = original
        self._saved_forwards.clear()
        _tensor_engine.set_backward_op_hook(self._prev_hook)
        self._prev_hook = None
        self._installed = False

    def __enter__(self) -> "OpProfiler":
        return self.install()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.uninstall()

    # ------------------------------------------------------------ queries
    def top_hotspots(self, n: int = 10) -> list[tuple[str, OpStat]]:
        """The ``n`` ops with the largest cumulative wall time."""
        ranked = sorted(self.stats.items(), key=lambda kv: -kv[1].seconds)
        return ranked[:n]

    def workspace_stats(self) -> dict[str, tuple[int, int, int, int]]:
        """Arena traffic since :meth:`install`, per buffer tag.

        Returns ``{tag: (hits, misses, bytes_alloc, bytes_saved)}`` deltas
        against the snapshot taken when the profiler was installed, so a
        profiled region reports only its own workspace activity.  Tags
        with no traffic in the window are omitted.
        """
        from repro.tensor import workspace as _workspace
        deltas = {}
        for tag, now in _workspace.stats_snapshot().items():
            base = self._ws_baseline.get(tag, (0, 0, 0, 0))
            d = tuple(a - b for a, b in zip(now, base))
            if any(d):
                deltas[tag] = d
        return deltas

    def report(self, n: int = 10) -> str:
        """Human-readable hotspot table (top ``n`` ops by time)."""
        from repro.obs.report import hotspot_table
        return hotspot_table(self, n)
