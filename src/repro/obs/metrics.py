"""Named metric instruments: counters, gauges, histograms with labels.

A :class:`MetricsRegistry` hands out get-or-create instruments keyed by
``(name, labels)`` — the Prometheus data model, scaled down to an
in-process simulator.  Registries snapshot to plain JSON-able dicts and
merge, so per-worker (or per-algorithm) registries can be combined into
one run-level view.

A process-global default registry always exists (instruments are cheap:
one dict lookup and an integer add per update), so call sites like the
fault-tolerance counters in :mod:`repro.fl.resilience` never need a
feature flag.  Swap or reset it with :func:`set_registry`.
"""

from __future__ import annotations

import bisect
import json
import math
from typing import Any


def _label_key(labels: dict[str, Any]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_key(name: str, labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing count (events, bytes, failures...)."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self.value += amount


class Gauge:
    """Last-observed value (current round, live accuracy...)."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = float("nan")

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = float(value)


class Histogram:
    """Cumulative-bucket histogram plus count/sum/min/max.

    ``bounds`` are upper bucket edges; observations above the last bound
    land in the implicit +inf bucket.  The default bounds are exponential
    from 1ms to ~100s — suitable for wall-time observations, the dominant
    use here.
    """

    DEFAULT_BOUNDS = tuple(0.001 * 4 ** i for i in range(9))

    __slots__ = ("bounds", "bucket_counts", "count", "total", "min", "max")

    def __init__(self, bounds: tuple[float, ...] | None = None):
        self.bounds = tuple(bounds) if bounds is not None else self.DEFAULT_BOUNDS
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram bounds must be sorted")
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (NaN when empty)."""
        return self.total / self.count if self.count else float("nan")

    def summary(self) -> dict[str, Any]:
        """JSON-able view: count, sum, min/max/mean, per-bucket counts."""
        return {"count": self.count, "sum": self.total,
                "min": None if self.count == 0 else self.min,
                "max": None if self.count == 0 else self.max,
                "mean": None if self.count == 0 else self.mean,
                "bounds": list(self.bounds),
                "buckets": list(self.bucket_counts)}


class MetricsRegistry:
    """Get-or-create store of instruments keyed by name + labels."""

    def __init__(self):
        self._counters: dict[tuple, Counter] = {}
        self._gauges: dict[tuple, Gauge] = {}
        self._histograms: dict[tuple, Histogram] = {}

    # ------------------------------------------------------- instruments
    def counter(self, name: str, **labels: Any) -> Counter:
        """The :class:`Counter` for ``(name, labels)``, created on first use."""
        key = (name, _label_key(labels))
        inst = self._counters.get(key)
        if inst is None:
            inst = self._counters[key] = Counter()
        return inst

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """The :class:`Gauge` for ``(name, labels)``, created on first use."""
        key = (name, _label_key(labels))
        inst = self._gauges.get(key)
        if inst is None:
            inst = self._gauges[key] = Gauge()
        return inst

    def histogram(self, name: str, bounds: tuple[float, ...] | None = None,
                  **labels: Any) -> Histogram:
        """The :class:`Histogram` for ``(name, labels)``.

        ``bounds`` only takes effect at creation; later callers get the
        existing instrument regardless of the bounds they pass.
        """
        key = (name, _label_key(labels))
        inst = self._histograms.get(key)
        if inst is None:
            inst = self._histograms[key] = Histogram(bounds)
        return inst

    # ---------------------------------------------------- snapshot/merge
    def snapshot(self) -> dict[str, Any]:
        """Flat JSON-able dump: ``name{label=v,...}`` keys per family."""
        return {
            "counters": {_render_key(n, l): c.value
                         for (n, l), c in sorted(self._counters.items())},
            "gauges": {_render_key(n, l): g.value
                       for (n, l), g in sorted(self._gauges.items())},
            "histograms": {_render_key(n, l): h.summary()
                           for (n, l), h in sorted(self._histograms.items())},
        }

    def to_json(self) -> str:
        """:meth:`snapshot` rendered as a JSON string."""
        return json.dumps(self.snapshot())

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry.

        Counters add; gauges take the other's value when it has one;
        histograms require matching bounds and add component-wise.
        """
        for key, counter in other._counters.items():
            name, labels = key
            self.counter(name, **dict(labels)).value += counter.value
        for key, gauge in other._gauges.items():
            if not math.isnan(gauge.value):
                name, labels = key
                self.gauge(name, **dict(labels)).value = gauge.value
        for key, hist in other._histograms.items():
            name, labels = key
            mine = self.histogram(name, bounds=hist.bounds, **dict(labels))
            if mine.bounds != hist.bounds:
                raise ValueError(f"histogram bound mismatch for {name!r}")
            mine.count += hist.count
            mine.total += hist.total
            mine.min = min(mine.min, hist.min)
            mine.max = max(mine.max, hist.max)
            for i, c in enumerate(hist.bucket_counts):
                mine.bucket_counts[i] += c

    def reset(self) -> None:
        """Drop every instrument (tests and fresh runs)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()


def peak_rss_bytes(pid: int | str = "self") -> int:
    """This process's (or process ``pid``'s) lifetime peak resident set
    size, in bytes.

    Prefers ``VmHWM`` from ``/proc/<pid>/status`` (Linux): unlike
    ``ru_maxrss``, it belongs to the current address space and so resets
    on ``exec`` — a freshly spawned subprocess reports *its own* peak,
    not the high-water mark inherited from a large parent.  Falls back
    to ``resource.getrusage(RUSAGE_SELF).ru_maxrss`` (kilobytes on
    Linux, bytes on macOS) and returns 0 where neither exists (Windows),
    so callers can report it unconditionally.  The value is still a
    high-water mark over the process lifetime: per-phase measurements
    need subprocess isolation (see ``benchmarks/bench_scale.py``).
    Another process's peak has no fallback: 0 where ``/proc`` lacks it.
    """
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):  # pragma: no cover
        pass
    if pid != "self":
        return 0
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    import sys
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS reports bytes
        return int(peak)
    return int(peak) * 1024


def blas_env() -> dict:
    """The BLAS/threadpool environment a numerical benchmark ran under.

    BENCH_*.json trajectories are only comparable when the linear-algebra
    backend and its thread budget match, so every ``bench_*.py`` record
    embeds this snapshot: the detected BLAS implementation (from
    ``numpy.show_config``), the ``*_NUM_THREADS`` knobs that cap its
    threadpools, and the machine's CPU count.  Unset knobs record as
    ``None`` (backend default: all cores).
    """
    import os

    import numpy as np

    backend = "unknown"
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
        backend = blas.get("name", "unknown")
        version = blas.get("version")
        if version:
            backend = f"{backend} {version}"
    except (TypeError, AttributeError):  # pragma: no cover - numpy < 1.25
        pass
    threads = {var: os.environ.get(var)
               for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                           "MKL_NUM_THREADS")}
    return {"blas": backend, "cpu_count": os.cpu_count(), **threads}


def observe_peak_rss(registry: "MetricsRegistry | None" = None) -> int:
    """Record :func:`peak_rss_bytes` into the ``proc.peak_rss_bytes``
    gauge (default registry unless one is given); returns the value."""
    peak = peak_rss_bytes()
    (registry or get_registry()).gauge("proc.peak_rss_bytes").set(peak)
    return peak


_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global default registry."""
    return _registry


def observe_op(op: str, seconds: float, flops: int = 0) -> None:
    """Charge one call of ``op`` (``conv2d.forward``, ``relu.backward``)
    to the default registry: an ``op.seconds{op=}`` observation, whose
    count and sum are the op's calls and seconds, and ``flops`` analytic
    FLOPs to ``op.flops{op=}``.  :meth:`Tensor.backward
    <repro.tensor.Tensor.backward>` and :meth:`Module.__call__
    <repro.nn.Module.__call__>` call it only while the tracer is enabled,
    so a pool worker's ops come back in its per-task registry."""
    _registry.histogram("op.seconds", op=op).observe(seconds)
    if flops:
        _registry.counter("op.flops", op=op).inc(flops)


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` globally; returns the previous one."""
    global _registry
    previous = _registry
    _registry = registry
    return previous
