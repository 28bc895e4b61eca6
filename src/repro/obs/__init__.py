"""Observability: tracing spans and metric instruments.

The ROADMAP's perf goals ("as fast as the hardware allows") need the repo
to *see* where time and bytes go before any hot path can be optimised.
This package provides two instruments:

- :mod:`repro.obs.trace` — context-managed wall-time spans with nesting
  and attributes, exportable as JSONL or Chrome ``chrome://tracing`` JSON.
  The process-global default tracer is a no-op; the FL loop, the wire
  codec, and the experiment harness emit spans through it unconditionally.
- :mod:`repro.obs.metrics` — named ``Counter``/``Gauge``/``Histogram``
  instruments with labels and a snapshot/merge API.  While the tracer is
  enabled, op time goes here too: every autograd backward closure and
  the forward of each layer class with an ``op_name`` (conv, linear,
  batch and layer norm) is charged to ``op.seconds{op=}``, with analytic
  FLOPs in ``op.flops{op=}`` (:func:`~repro.obs.metrics.observe_op`).

``repro.obs.report`` renders hotspot and round-timeline tables from the
collected data (CLI command ``profile``; flags ``--trace-out`` /
``--metrics-out`` on every experiment command).

Both instruments compose with parallel client execution
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
from repro.obs.report import (codec_byte_totals, downlink_line,
                              hotspot_table, round_timeline_table,
                              span_attr_total, span_total_seconds,
                              step_compiler_line, transfer_byte_totals)

__all__ = [
    "Span", "Tracer", "NullTracer", "NULL_SPAN", "get_tracer", "set_tracer",
    "tracing", "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "get_registry", "set_registry", "peak_rss_bytes", "observe_peak_rss",
    "hotspot_table",
    "round_timeline_table", "span_attr_total", "span_total_seconds",
    "codec_byte_totals", "transfer_byte_totals", "downlink_line",
    "step_compiler_line",
]
