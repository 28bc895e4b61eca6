"""Human-readable views over traces and metrics.

Reuses :func:`repro.utils.logging.render_table` so observability output
matches the repo's paper-table style: a per-round phase timeline from a
:class:`~repro.obs.trace.Tracer` and a hotspot table from a metrics
snapshot's ``op.*`` instruments.
"""

from __future__ import annotations

from collections import defaultdict

from repro.utils.logging import render_table

# Server-loop phase spans, in protocol order (DESIGN.md §8).
ROUND_PHASES = ("sample", "download", "local_update", "upload", "aggregate",
                "evaluate")


def span_total_seconds(tracer, name: str) -> float:
    """Summed duration of every finished span called ``name``."""
    return sum(s.duration for s in tracer.spans if s.name == name)


def span_attr_total(tracer, name: str, attr: str) -> float:
    """Sum an attribute (e.g. ``bytes``) over spans called ``name``."""
    return sum(s.attrs.get(attr, 0) for s in tracer.spans if s.name == name)


def round_timeline_table(tracer, phases: tuple[str, ...] = ROUND_PHASES) -> str:
    """Per-round table of seconds spent in each server-loop phase.

    Rows are rounds (from each span's ``round`` attribute); columns are
    the protocol phases plus the enclosing ``round`` span's total, so gaps
    between the phase sum and the total expose unattributed time.
    """
    per_round: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    totals: dict[int, float] = defaultdict(float)
    for s in tracer.spans:
        r = s.attrs.get("round")
        if r is None:
            continue
        r = int(r)
        if s.name == "round":
            totals[r] += s.duration
        elif s.name in phases:
            per_round[r][s.name] += s.duration
    rounds = sorted(set(per_round) | set(totals))
    headers = ["round"] + [f"{p} s" for p in phases] + ["total s"]
    rows = [[r] + [per_round[r].get(p, 0.0) for p in phases] + [totals.get(r, 0.0)]
            for r in rounds]
    return render_table(headers, rows, title="Round timeline")


def _op_rows(snapshot: dict) -> dict[str, tuple[int, float, float]]:
    """``{op: (calls, seconds, flops)}`` from a metrics snapshot's
    ``op.seconds{op=}`` histograms and ``op.flops{op=}`` counters."""
    counters = snapshot.get("counters", {})
    rows = {}
    for key, hist in snapshot.get("histograms", {}).items():
        if key.startswith("op.seconds{op=") and hist["count"]:
            op = key[len("op.seconds{op="):-1]
            rows[op] = (hist["count"], hist["sum"],
                        counters.get(f"op.flops{{op={op}}}", 0.0))
    return rows


def hotspot_table(snapshot: dict, n: int = 10,
                  workspace: dict | None = None) -> str:
    """Top-``n`` ops by cumulative wall time, with FLOPs and throughput.

    ``snapshot`` is a :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`
    of a traced run: its ``op.*`` instruments (:func:`~repro.obs.metrics.
    observe_op`) give the rows, pool workers' ops included.  ``workspace``
    — ``{tag: (hits, misses, bytes_alloc, bytes_saved)}`` arena deltas of
    the run — joins two columns on: the workspace hit rate and megabytes
    of allocation served from cache, aggregated over the op's buffer tags
    (``conv2d.cols`` etc. fold into the ``conv2d`` rows).  Ops without
    arena traffic show ``-``.
    """
    headers = ["op", "calls", "total s", "mean ms", "GFLOP", "GFLOP/s",
               "ws hit%", "ws MB saved"]
    by_prefix: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0, 0])
    for tag, delta in (workspace or {}).items():
        agg = by_prefix[tag.split(".")[0]]
        for i, v in enumerate(delta):
            agg[i] += v
    ops = _op_rows(snapshot)
    rows = []
    for op in sorted(ops, key=lambda o: -ops[o][1])[:n]:
        calls, seconds, flops = ops[op]
        row = [op, calls, seconds, seconds / calls * 1e3, flops / 1e9,
               flops / seconds / 1e9 if seconds > 0 else 0.0]
        agg = by_prefix.get(op.split(".")[0])
        if agg:
            hits, misses, _, bytes_saved = agg
            rate = 100.0 * hits / (hits + misses) if hits + misses else 0.0
            row += [rate, bytes_saved / 1e6]
        else:
            row += ["-", "-"]
        rows.append(row)
    return render_table(headers, rows, title=f"Top {len(rows)} hotspots")


def codec_byte_totals(tracer) -> dict[str, float]:
    """Bytes that crossed the codec: the summed ``bytes`` attributes of
    the ``serialize`` and ``deserialize`` spans.  The codec runs only in
    checksummed transfers, so each equals the
    :class:`~repro.fl.comm.CommLedger` total of a traced run under a
    fault model and is 0 without one (DESIGN.md §17)."""
    return {"serialize": span_attr_total(tracer, "serialize", "bytes"),
            "deserialize": span_attr_total(tracer, "deserialize", "bytes")}


def transfer_byte_totals(tracer) -> dict[str, float]:
    """The summed ``bytes`` attributes of the ``download`` and ``upload``
    spans — on every driver, a traced run's
    :class:`~repro.fl.comm.CommLedger` totals per direction: the one
    :class:`~repro.fl.comm.Transport` opens both and charges the ledger
    (DESIGN.md §17)."""
    return {"download": span_attr_total(tracer, "download", "bytes"),
            "upload": span_attr_total(tracer, "upload", "bytes")}


def _counter_total(counters: dict[str, float], name: str) -> int:
    """A counter summed over its label sets, from a metrics snapshot."""
    return int(sum(v for k, v in counters.items()
                   if k == name or k.startswith(name + "{")))


def downlink_line(counters: dict[str, float]) -> str:
    """One line on what the delta downlink sent (DESIGN.md §5.1): the
    share of downlink rows that travelled, how many sends were cold
    (first contacts) against deltas, and the share of their rows the
    cold ones were not sent because a joining client is born holding
    them (zero control-variate rows).  ``counters`` is a metrics
    snapshot's counter dict."""
    total = _counter_total(counters, "downlink.rows_total")
    sent = _counter_total(counters, "downlink.rows_sent")
    cold = _counter_total(counters, "downlink.cold_sends")
    delta = _counter_total(counters, "downlink.delta_sends")
    known = _counter_total(counters, "downlink.rows_known")
    share = 100.0 * sent / total if total else 0.0
    # every send adds the same layout's row count to rows_total, so the
    # cold sends' part of it is their part of the sends
    cold_rows = total * cold / (cold + delta) if cold else 0
    held = 100.0 * known / cold_rows if cold_rows else 0.0
    return (f"downlink: {share:.0f} % of rows, {cold} cold ({held:.0f} % of "
            f"their rows already held) / {delta} delta")


def step_compiler_line(tracer, counters: dict[str, float]) -> str:
    """One line on what the step compiler did in a ``--compile`` run.

    Replayed steps run no ``Module.__call__`` and no ``Tensor.backward``,
    so they charge no ``op.*`` instrument: the hotspot table of such a run
    covers only its capture and fallback steps, and this line says where
    the rest went.  ``counters`` is a metrics snapshot's counter dict.
    """
    return (f"step compiler: "
            f"{_counter_total(counters, 'compile.captures')} captures, "
            f"{_counter_total(counters, 'compile.replays')} replays "
            f"({span_total_seconds(tracer, 'compile.replay'):.1f} s), "
            f"{_counter_total(counters, 'compile.fallbacks')} fallbacks — "
            f"replayed steps are not in the op table")
