"""Per-layer tracing from outside: a probe table, a span recorder, the metrics.

The traced pass wraps the public callables of each layer *from here* —
nothing under ``src/`` knows it is being measured.  ``PROBES`` is data:
``(dotted target, span name, extractor)``.  A target is resolved with
``importlib`` / ``getattr`` when :func:`install` runs; one that no longer
exists is listed in ``Recorder.missing`` and printed, never raised, so a
refactor that collapses a hook or moves a kernel cannot break the
benchmark — it only loses that layer's row until a benchmark issue
re-points the probe.

Functions imported by name (``from repro.fl.comm import encode_update``)
are probed at the importing module, which is where the call resolves.

Spans stay in memory (``Recorder.spans``) and are written only when the
run ends.  A span's self time is its duration minus the time covered by
its child spans; a span opened directly inside a span of the same name
(``aggregate_weighted`` delegating to ``aggregate``) is not recorded
twice.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import statistics
import time
from collections import defaultdict

MB = 2 ** 20


def wire_nbytes(payload: dict) -> int:
    """Wire size of a flat array dict, counted from the documented format
    (``[u32 n]`` + per entry ``[u16 len][name][u8 dtype][u8 ndim][u32 dims]
    [raw]``) — the harness's own count, checked against the ledger."""
    total = 4
    for name, value in payload.items():
        ndim = getattr(value, "ndim", 0)
        total += 2 + len(name.encode("utf-8")) + 2 + 4 * ndim + value.nbytes
    return total


# ------------------------------------------------------------ extractors
# ``extractor(recorder, args, kwargs, result)`` runs after a probed call
# and adds to ``recorder.counts``; args[0] is ``self`` for methods.

def _down_payload(rec, args, kwargs, result):
    rec.add("audit.down_bytes", wire_nbytes(result))
    for name, value in result.items():
        if name.startswith("enc.") and name.endswith(".weight"):
            rec.filters[name[4:-7]] = value.shape[0]


def _up_payload(rec, args, kwargs, result):
    rec.add("audit.up_bytes", wire_nbytes(result))


def _result_mb(metric):
    def extract(rec, args, kwargs, result):
        rec.add(metric, len(result) / MB)
    return extract


def _blob_arg_mb(metric, index):
    def extract(rec, args, kwargs, result):
        rec.add(metric, len(args[index]) / MB)
    return extract


def _salient_rows(rec, updates):
    """Rows folded and Eq. 12 coverage (filters covered / filters) so far."""
    for update in updates:
        for layer, (idx, _rows) in update["salient"].items():
            rec.add("core.aggregate.rows", len(idx))
            rec.covered[layer].update(idx.tolist())


def _close_coverage(rec):
    for layer, covered in rec.covered.items():
        if layer in rec.filters:
            rec.add("coverage.useful", len(covered))
            rec.add("coverage.possible", rec.filters[layer])
    rec.covered.clear()


def _aggregate(rec, args, kwargs, result):
    _salient_rows(rec, args[1])
    _close_coverage(rec)


def _fold_add(rec, args, kwargs, result):
    _salient_rows(rec, [args[1]])


def _fold_finalize(rec, args, kwargs, result):
    _close_coverage(rec)


def _quantized(rec, args, kwargs, result):
    algo = args[0]
    if getattr(algo, "quant", None) is None:
        return
    from repro.fl.quant import QUANT_WIRE_KEY
    rec.add("fl.quant.mb_in", wire_nbytes(algo.upload_payload(result)) / MB)
    rec.add("fl.quant.mb_out", wire_nbytes(result[QUANT_WIRE_KEY]) / MB)


def _bcast(rec, args, kwargs, result):
    cache = args[0]
    rec.bcast = (cache.hits + cache.content_hits, cache.misses)


# ----------------------------------------------------------- probe table
# (dotted target, span name, extractor or None).  Several targets may feed
# one span name.  ``COUNT_ONLY`` names are counted but open no span, so
# their time stays in the enclosing span's self time.

PROBES = [
    # repro.nn
    ("repro.nn.conv.Conv2d.forward", "nn.conv.forward", None),
    ("repro.nn.norm._BatchNorm.forward", "nn.norm.forward", None),
    ("repro.nn.pooling.MaxPool2d.forward", "nn.pooling.forward", None),
    ("repro.nn.pooling.AvgPool2d.forward", "nn.pooling.forward", None),
    ("repro.nn.pooling.GlobalAvgPool2d.forward", "nn.pooling.forward", None),
    ("repro.nn.linear.Linear.forward", "nn.linear.forward", None),
    # repro.tensor
    ("repro.tensor.tensor.Tensor.backward", "tensor.backward", None),
    ("repro.tensor.compile.step.StepCompiler.try_step",
     "tensor.compile.try_step", None),
    # repro.optim
    ("repro.optim.sgd.SGD.step", "optim.sgd.step", None),
    # repro.fl.local / algorithm hooks
    ("repro.fl.fedavg.FedAvg.local_update", "fl.local_update", None),
    ("repro.core.spatl.SPATL.local_update", "fl.local_update", None),
    ("repro.fl.fedavg.FedAvg.download_payload", "fl.download_payload",
     _down_payload),
    ("repro.core.spatl.SPATL.download_payload", "fl.download_payload",
     _down_payload),
    ("repro.fl.base.FederatedAlgorithm.wire_payload", "fl.upload_payload",
     _up_payload),
    ("repro.fl.base.FederatedAlgorithm.evaluate_all", "fl.evaluate_all", None),
    ("repro.fl.client.Client.evaluate", "fl.client.evaluate", None),
    # repro.core + agent stack
    ("repro.core.selection_policies.RLSelectionPolicy.select",
     "core.selection.select", None),
    ("repro.core.selection_policies.StaticSaliencyPolicy.select",
     "core.selection.select", None),
    ("repro.rl.agent.SalientParameterAgent.finetune", "rl.agent.finetune", None),
    ("repro.rl.agent.SalientParameterAgent.propose", "rl.agent.propose", None),
    ("repro.gnn.encoder.GraphEncoder.forward", "gnn.encoder.forward", None),
    ("repro.rl.env.build_graph", "graph.build_graph", None),
    ("repro.core.spatl.SPATL.aggregate", "core.aggregate", _aggregate),
    ("repro.core.spatl.SPATL.aggregate_weighted", "core.aggregate", _aggregate),
    ("repro.fl.fedavg.FedAvg.aggregate", "fl.aggregate", None),
    # repro.fl.wire / comm
    ("repro.fl.wire.serialize", "fl.wire.serialize",
     _result_mb("fl.wire.serialize.mb")),
    ("repro.fl.wire.serialize_scratch", "fl.wire.serialize",
     _result_mb("fl.wire.serialize.mb")),
    ("repro.fl.wire.deserialize", "fl.wire.deserialize", None),
    ("repro.fl.wire.BroadcastCache.encode", "fl.wire.bcast.encode", _bcast),
    ("repro.fl.scale.fold.encode_update", "fl.wire.encode_update", None),
    ("repro.fl.scale.store.encode_update", "fl.wire.encode_update", None),
    ("repro.fl.scale.fold.decode_update", "fl.wire.decode_update", None),
    ("repro.fl.scale.store.decode_update", "fl.wire.decode_update", None),
    ("repro.fl.parallel.decode_update", "fl.wire.decode_update", None),
    # repro.fl.quant
    ("repro.fl.base.FederatedAlgorithm.quantize_update", "fl.quant.quantize",
     _quantized),
    # repro.fl.parallel
    ("repro.fl.parallel.ProcessPoolRoundExecutor.collect",
     "fl.parallel.collect", None),
    ("repro.fl.base.FederatedAlgorithm.encoded_sync_state",
     "fl.parallel.sync_blob", _result_mb("fl.parallel.sync_blob_mb")),
    # repro.fl.async_runtime
    ("repro.fl.async_runtime.AsyncFederatedRunner.run", "fl.async.run", None),
    ("repro.fl.async_runtime.AsyncFederatedRunner._process_one",
     "fl.async.events", None),
    # repro.fl.scale
    ("repro.fl.scale.store.ClientStateStore.put", "fl.scale.store.put",
     _blob_arg_mb("fl.scale.store.put_mb", 2)),
    ("repro.fl.scale.store.ClientStateStore.get", "fl.scale.store.get", None),
    ("repro.fl.scale.virtual.VirtualClientPool.materialize",
     "fl.scale.pool.materialize", None),
    ("repro.fl.scale.virtual.VirtualClientPool.evict",
     "fl.scale.pool.evict", None),
    ("repro.fl.scale.virtual.ShardedClientFactory.__call__",
     "fl.scale.pool.build", None),
    ("repro.fl.scale.fold.SPATLFold.add", "fl.scale.fold.add", _fold_add),
    ("repro.fl.scale.fold.SPATLFold.finalize", "fl.scale.fold.finalize",
     _fold_finalize),
    ("repro.fl.scale.fold.UpdateSpill.append", "fl.scale.spill.append",
     _blob_arg_mb("fl.scale.spill_mb", 1)),
]

COUNT_ONLY = {"fl.async.events"}

DRIVER_SPAN = "driver.round"

# ``.calls`` metrics and the span each one counts.
CALLS = {"nn.conv.calls": "nn.conv.forward",
         "tensor.backward.calls": "tensor.backward",
         "optim.sgd.calls": "optim.sgd.step",
         "fl.local_update.calls": "fl.local_update",
         "fl.client.evaluate.calls": "fl.client.evaluate",
         "core.selection.calls": "core.selection.select"}

# The kernel layers whose sum the acceptance contrast is stated on.
KERNEL_SPANS = ("nn.conv.forward", "nn.norm.forward", "nn.pooling.forward",
                "nn.linear.forward", "tensor.backward", "optim.sgd.step")


class Recorder:
    """In-memory spans and counts of one traced run."""

    def __init__(self):
        self.pid = os.getpid()
        self.names: list[str] = []          # span-name table
        self.spans: list[tuple] = []        # (name idx, t0, dur, self, parent idx)
        self.stack: list[list] = []         # open spans: [name idx, t0, child s]
        self.counts: dict[str, float] = defaultdict(float)
        self.bcast = (0, 0)                 # BroadcastCache (hits, misses)
        self.filters: dict[str, int] = {}   # prunable layer -> n filters
        self.covered: dict[str, set] = defaultdict(set)
        self.missing: list[str] = []        # "target -> span" that did not resolve
        self.timed_from: float | None = None

    def add(self, metric: str, amount: float) -> None:
        """Counts are kept for the timed region; byte audits for the whole run."""
        if self.timed_from is not None or metric.startswith("audit."):
            self.counts[metric] += amount

    def _index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the harness itself (the driver's timed unit)."""
        idx = self._index(name)
        frame = [idx, time.perf_counter(), 0.0]
        self.stack.append(frame)
        try:
            yield
        finally:
            self._close(frame)

    def _close(self, frame) -> None:
        dur = time.perf_counter() - frame[1]
        self.stack.pop()
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += dur
        self.spans.append((frame[0], frame[1], dur, dur - frame[2],
                           parent[0] if parent is not None else -1))

    def wrap(self, fn, name: str, extractor):
        idx = self._index(name)
        stack, pid, perf = self.stack, self.pid, time.perf_counter
        count_only = name in COUNT_ONLY

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            # Forked pool workers inherit the patched classes; their work is
            # one leaf (``fl.parallel.collect``) seen from the parent.
            if os.getpid() != pid or (stack and stack[-1][0] == idx):
                return fn(*args, **kwargs)
            if count_only:
                self.add(name, 1)
                return fn(*args, **kwargs)
            frame = [idx, perf(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame)
            if extractor is not None:
                extractor(self, args, kwargs, result)
            return result
        return probe

    # ----------------------------------------------------------- totals
    def totals(self, since: float) -> dict[str, dict]:
        """Per span name: calls, busy seconds and self seconds since ``since``."""
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0}
               for name in self.names}
        for idx, t0, dur, self_s, _parent in self.spans:
            if t0 >= since:
                row = out[self.names[idx]]
                row["calls"] += 1
                row["s"] += dur
                row["self_s"] += self_s
        return out

    def durations(self, name: str) -> list[float]:
        if name not in self.names:
            return []
        idx = self.names.index(name)
        return [span[2] for span in self.spans if span[0] == idx]

    def dump(self, path: str) -> None:
        """Write every span, one JSON object per line."""
        with open(path, "w") as out:
            for idx, t0, dur, self_s, parent in self.spans:
                out.write(json.dumps({
                    "name": self.names[idx], "t0": t0, "dur": dur,
                    "self": self_s,
                    "parent": self.names[parent] if parent >= 0 else None}))
                out.write("\n")


def _resolve(target: str):
    """(owner object, attribute name) of a dotted target, or None."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:-1]:
                owner = getattr(owner, attr)
            getattr(owner, parts[-1])
        except AttributeError:
            return None
        return owner, parts[-1]
    return None


def install(recorder: Recorder) -> None:
    """Wrap every resolvable probe target; list the others as missing."""
    for target, name, extractor in PROBES:
        found = _resolve(target)
        if found is None:
            recorder.missing.append(f"{target} -> {name}")
            continue
        owner, attr = found
        setattr(owner, attr, recorder.wrap(getattr(owner, attr), name, extractor))


def span_cost_s(calls: int = 20000) -> float:
    """Seconds one recorded span costs, timed on a probed no-op.

    ``spans x cost / wall`` is the tracing overhead as a count-based
    estimate; the wall-clock ``trace_overhead_ratio`` of one traced and
    one untraced run is dominated by machine noise on a shared box.
    """
    def noop():
        return None
    probed = Recorder().wrap(noop, "noop", None)
    t0 = time.perf_counter()
    for _ in range(calls):
        probed()
    t1 = time.perf_counter()
    for _ in range(calls):
        noop()
    t2 = time.perf_counter()
    return max((t1 - t0) - (t2 - t1), 0.0) / calls


# ------------------------------------------------------- per-layer metrics

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def registry_counters() -> dict:
    """The repo's process-global counters (pool workers merge theirs in)."""
    from repro.obs.metrics import get_registry
    return get_registry().snapshot()["counters"]


def layer_metrics(recorder: Recorder, timed_wall: float, run,
                  counters_before: dict) -> dict:
    """The per-layer metric table of one traced run: name -> (value, unit).

    Times and counts cover the timed region; ``counters_before`` is
    :func:`registry_counters` taken when it began.
    """
    from repro.tensor import workspace

    t = recorder.totals(recorder.timed_from)
    counts = recorder.counts
    reg = registry_counters()

    def busy(name):
        return t.get(name, {}).get("s", 0.0)

    def self_s(name):
        return t.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return t.get(name, {}).get("calls", 0)

    def counter(prefix):
        return sum(v - counters_before.get(k, 0.0) for k, v in reg.items()
                   if k == prefix or k.startswith(prefix + "{"))

    m: dict[str, tuple[float, str]] = {}
    for name in dict.fromkeys(span for _t, span, _e in PROBES):
        if name not in COUNT_ONLY:
            m[name + "_s"] = (busy(name), "s")
    for metric, span in CALLS.items():
        m[metric] = (calls(span), "count")
    m["fl.local_update.self_s"] = (self_s("fl.local_update"), "s")
    m["fl.parallel.collect.self_s"] = (self_s("fl.parallel.collect"), "s")
    m["fl.async.run.self_s"] = (self_s("fl.async.run"), "s")
    m["driver.round.self_s"] = (self_s(DRIVER_SPAN), "s")
    m["unattributed_share"] = (_ratio(self_s(DRIVER_SPAN), timed_wall),
                               "fraction")
    m["kernel_share"] = (_ratio(sum(busy(n) for n in KERNEL_SPANS),
                                timed_wall), "fraction")
    spans = sum(row["calls"] for row in t.values())
    m["trace.spans"] = (spans, "count")
    m["trace.probe_cost_share"] = (_ratio(spans * span_cost_s(), timed_wall),
                                   "fraction")

    # repro.tensor.compile (pool workers report theirs through the registry
    # merge at commit time) / workspace (this process, whole run)
    replays = counter("compile.replays")
    captures = counter("compile.captures")
    fallbacks = counter("compile.fallbacks")
    m["tensor.compile.replays"] = (replays, "count")
    m["tensor.compile.captures"] = (captures, "count")
    m["tensor.compile.fallbacks"] = (fallbacks, "count")
    m["tensor.compile.replay_ratio"] = (
        _ratio(replays, replays + captures + fallbacks), "fraction")
    ws = workspace.stats_snapshot().values()
    hits = sum(s[0] for s in ws)
    misses = sum(s[1] for s in ws)
    m["tensor.workspace.hit_ratio"] = (_ratio(hits, hits + misses), "fraction")
    m["tensor.workspace.mb_saved"] = (sum(s[3] for s in ws) / MB, "MB")

    # aggregation
    m["core.aggregate.rows"] = (counts["core.aggregate.rows"], "count")
    m["core.aggregate.coverage"] = (
        _ratio(counts["coverage.useful"], counts["coverage.possible"]),
        "fraction")

    # wire / quant / parallel
    m["fl.wire.serialize.mb"] = (counts["fl.wire.serialize.mb"], "MB")
    bhits, bmisses = recorder.bcast
    m["fl.wire.bcast.hit_ratio"] = (_ratio(bhits, bhits + bmisses), "fraction")
    m["fl.quant.mb_in"] = (counts["fl.quant.mb_in"], "MB")
    m["fl.quant.mb_out"] = (counts["fl.quant.mb_out"], "MB")
    m["fl.quant.ratio"] = (
        _ratio(counts["fl.quant.mb_in"], counts["fl.quant.mb_out"]), "ratio")
    m["fl.parallel.sync_blob_mb"] = (counts["fl.parallel.sync_blob_mb"], "MB")
    collects = recorder.durations("fl.parallel.collect")
    m["fl.parallel.pool_start_s"] = (
        collects[0] - statistics.median(collects[1:])
        if len(collects) > 1 else 0.0, "s")

    # async runtime (cumulative runner counters, warm-up included)
    c = run.runner.counters if run.workload.driver == "async" else {}
    m["fl.async.events"] = (counts["fl.async.events"], "count")
    for key in ("dispatched", "accepted", "deduped", "crashed"):
        m[f"fl.async.{key}"] = (c.get(key, 0), "count")
    m["fl.async.useful_ratio"] = (
        _ratio(c.get("committed", 0), c.get("dispatched", 0)), "fraction")
    m["fl.async.mean_staleness"] = (
        statistics.fmean(run.staleness) if run.staleness else 0.0, "steps")

    # population scale
    m["fl.scale.store.put_mb"] = (counts["fl.scale.store.put_mb"], "MB")
    m["fl.scale.spill_mb"] = (counts["fl.scale.spill_mb"], "MB")
    materialize_calls = calls("fl.scale.pool.materialize")
    m["fl.scale.pool.hit_ratio"] = (
        _ratio(materialize_calls - calls("fl.scale.pool.build"),
               materialize_calls), "fraction")
    return m
