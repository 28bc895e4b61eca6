"""Observability: tracing spans, metric instruments, and op-level profiling.

The ROADMAP's perf goals ("as fast as the hardware allows") need the repo
to *see* where time and bytes go before any hot path can be optimised.
This package provides three orthogonal instruments, all off by default and
free when disabled:

- :mod:`repro.obs.trace` — context-managed wall-time spans with nesting
  and attributes, exportable as JSONL or Chrome ``chrome://tracing`` JSON.
  The process-global default tracer is a no-op; the FL loop, the wire
  codec, and the experiment harness emit spans through it unconditionally.
- :mod:`repro.obs.metrics` — named ``Counter``/``Gauge``/``Histogram``
  instruments with labels and a snapshot/merge API.
- :mod:`repro.obs.profiler` — op-level hooks into the autograd engine and
  the hot ``repro.nn`` modules (conv, linear, norm) recording per-op call
  counts, cumulative time, and analytic FLOPs.

``repro.obs.report`` renders hotspot and round-timeline tables from the
collected data (CLI command ``profile``; flags ``--trace-out`` /
``--metrics-out`` on every experiment command).

All three instruments compose with parallel client execution
(DESIGN.md §9): workers record into fresh per-task instruments and the
parent merges them — :meth:`MetricsRegistry.merge`,
:meth:`Tracer.absorb` — so a ``--workers N`` run reports the same
counters, span counts, and codec byte totals as the serial run.
"""

from repro.obs.trace import (NULL_SPAN, NullTracer, Span, Tracer, get_tracer,
                             set_tracer, tracing)
from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                               get_registry, observe_peak_rss,
                               peak_rss_bytes, set_registry)
from repro.obs.profiler import OpProfiler, OpStat
from repro.obs.report import (codec_byte_totals, downlink_line,
                              hotspot_table, round_timeline_table,
                              span_attr_total, span_total_seconds,
                              step_compiler_line)

__all__ = [
    "Span", "Tracer", "NullTracer", "NULL_SPAN", "get_tracer", "set_tracer",
    "tracing", "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "get_registry", "set_registry", "peak_rss_bytes", "observe_peak_rss",
    "OpProfiler", "OpStat", "hotspot_table",
    "round_timeline_table", "span_attr_total", "span_total_seconds",
    "codec_byte_totals", "downlink_line", "step_compiler_line",
]
