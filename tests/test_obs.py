"""Unit tests: the repro.obs subsystem (tracer, metrics, op attribution, reports)."""

import contextlib
import json

import numpy as np
import pytest

from repro.data import SyntheticCIFAR10
from repro.fl import (FedAvg, Transport, deserialize_state, make_executor,
                      make_federated_clients, payload_nbytes,
                      serialize_state, state_fingerprint)
from repro.models import build_model
from repro.nn.conv import Conv2d
from repro.nn.linear import Linear
from repro.obs import (NULL_SPAN, MetricsRegistry, NullTracer,
                       Tracer, downlink_line, get_tracer, hotspot_table,
                       round_timeline_table, set_registry, set_tracer,
                       span_attr_total, span_total_seconds, tracing)
from repro.tensor import Tensor

from tests import matrix


def _tiny_setting(n_clients=2, seed=0):
    ds = SyntheticCIFAR10(n_samples=40 * n_clients, size=12, seed=seed)
    parts = [np.arange(i * 40, (i + 1) * 40) for i in range(n_clients)]
    clients = make_federated_clients(ds, parts, batch_size=20, seed=seed)
    model_fn = lambda: build_model("resnet20", num_classes=10, input_size=12,
                                   width_mult=0.25, seed=seed + 1)
    return model_fn, clients


class TestTracer:
    def test_span_records_duration_and_attrs(self):
        tracer = Tracer()
        with tracer.span("work", kind="unit") as span:
            span.set(items=3)
        assert len(tracer.spans) == 1
        s = tracer.spans[0]
        assert s.name == "work"
        assert s.attrs == {"kind": "unit", "items": 3}
        assert s.duration >= 0.0

    def test_nesting_depth(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1

    def test_default_tracer_is_noop(self):
        tracer = get_tracer()
        assert not tracer.enabled
        assert tracer.span("anything", x=1) is NULL_SPAN
        assert NULL_SPAN.set(a=2) is NULL_SPAN  # never stores anything
        assert NULL_SPAN.attrs == {}

    def test_tracing_context_installs_and_restores(self):
        before = get_tracer()
        with tracing() as tracer:
            assert get_tracer() is tracer
            with tracer.span("inside"):
                pass
        assert get_tracer() is before
        assert [s.name for s in tracer.spans] == ["inside"]

    def test_set_tracer_returns_previous(self):
        t = Tracer()
        prev = set_tracer(t)
        try:
            assert get_tracer() is t
        finally:
            set_tracer(prev)
        assert isinstance(get_tracer(), (NullTracer, Tracer))

    def test_chrome_trace_export_well_formed(self):
        tracer = Tracer()
        with tracer.span("phase", round=0, bytes=128):
            pass
        doc = tracer.to_chrome_trace()
        payload = json.loads(json.dumps(doc))   # must be JSON-serialisable
        events = payload["traceEvents"]
        assert len(events) == 1
        ev = events[0]
        assert ev["ph"] == "X" and ev["name"] == "phase"
        assert set(ev) >= {"ts", "dur", "pid", "tid", "args"}
        assert ev["args"]["bytes"] == 128

    def test_jsonl_export_parses_line_per_span(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b", n=2):
            pass
        lines = tracer.to_jsonl().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["name"] for r in records] == ["a", "b"]
        assert records[1]["attrs"] == {"n": 2}

    def test_span_helpers(self):
        tracer = Tracer()
        for nbytes in (10, 32):
            with tracer.span("serialize", bytes=nbytes):
                pass
        assert span_attr_total(tracer, "serialize", "bytes") == 42
        assert span_total_seconds(tracer, "serialize") >= 0.0
        assert span_total_seconds(tracer, "missing") == 0.0


class TestMetrics:
    def test_counter_and_labels(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc()
        reg.counter("hits").inc(2)
        reg.counter("hits", side="up").inc(5)
        snap = reg.snapshot()
        assert snap["counters"]["hits"] == 3
        assert snap["counters"]["hits{side=up}"] == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("x").inc(-1)

    def test_gauge_last_value_wins(self):
        reg = MetricsRegistry()
        reg.gauge("acc").set(0.5)
        reg.gauge("acc").set(0.75)
        assert reg.snapshot()["gauges"]["acc"] == 0.75

    def test_histogram_buckets_and_summary(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", bounds=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        s = h.summary()
        assert s["count"] == 3
        assert s["buckets"] == [1, 1, 1]
        assert s["min"] == 0.5 and s["max"] == 50.0
        assert s["mean"] == pytest.approx(55.5 / 3)

    def test_merge_adds_counters_and_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("n").inc(1)
        b.counter("n").inc(2)
        a.histogram("h", bounds=(1.0,)).observe(0.5)
        b.histogram("h", bounds=(1.0,)).observe(2.0)
        b.gauge("g").set(7.0)
        a.merge(b)
        snap = a.snapshot()
        assert snap["counters"]["n"] == 3
        assert snap["gauges"]["g"] == 7.0
        assert snap["histograms"]["h"]["count"] == 2
        assert snap["histograms"]["h"]["buckets"] == [1, 1]

    def test_snapshot_is_json_serialisable(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.gauge("g").set(1.5)
        reg.histogram("h").observe(0.01)
        json.loads(reg.to_json())


def _op_calls(snapshot: dict, op: str) -> int:
    hist = snapshot["histograms"].get(f"op.seconds{{op={op}}}")
    return hist["count"] if hist else 0


def _traced(fn):
    """Run ``fn`` traced into a fresh registry; returns its snapshot."""
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        with tracing():
            fn()
    finally:
        set_registry(previous)
    return registry.snapshot()


class TestProfiler:
    """Op time goes to the metrics registry while the tracer is on."""

    def _run_small_model(self):
        rng = np.random.default_rng(0)
        conv = Conv2d(3, 4, 3, padding=1, rng=rng)
        fc = Linear(4 * 8 * 8, 10, rng=rng)
        x = Tensor(rng.standard_normal((2, 3, 8, 8)).astype(np.float32))
        out = fc(conv(x).relu().flatten_from(1))
        out.sum().backward()

    def test_records_conv_forward_and_backward(self):
        snap = _traced(self._run_small_model)
        for op in ("conv2d.forward", "conv2d.backward", "linear.forward"):
            assert _op_calls(snap, op) == 1, op
        fwd = snap["histograms"]["op.seconds{op=conv2d.forward}"]
        assert fwd["sum"] > 0
        assert snap["counters"]["op.flops{op=conv2d.forward}"] > 0

    def test_conv_flops_match_analytic_count(self):
        snap = _traced(self._run_small_model)
        # conv: 2 * (out_c * ho * wo * in_c * k^2) + bias, x batch of 2
        macs = 4 * 8 * 8 * 3 * 9
        expected = (2 * macs + 4 * 8 * 8) * 2
        assert snap["counters"]["op.flops{op=conv2d.forward}"] == expected

    def test_no_recording_without_install(self):
        """With no tracer installed no ``op.*`` instrument is touched."""
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            assert not get_tracer().enabled
            self._run_small_model()
        finally:
            set_registry(previous)
        snap = registry.snapshot()
        assert not [k for family in snap.values() for k in family
                    if k.startswith("op.")]

    def test_top_hotspots_ordering_and_report(self):
        snap = _traced(self._run_small_model)
        table = hotspot_table(snap, n=5)
        assert "conv2d.forward" in table and "GFLOP" in table
        rows = table.splitlines()[3:]
        assert len(rows) == 5
        seconds = [float(r.split("|")[2]) for r in rows]
        assert seconds == sorted(seconds, reverse=True)

    def test_pool_workers_report_the_serial_ops(self, capsys):
        """A ``--workers 2`` profile charges its clients' training to the
        table: the same conv calls as the serial run."""
        from repro.cli import main

        def calls(workers):
            assert main(["profile", "--clients", "2", "--rounds", "1",
                         "--sample-ratio", "1.0",
                         "--workers", str(workers)]) == 0
            rows = {line.split("|")[0].strip(): line.split("|")[1]
                    for line in capsys.readouterr().out.splitlines()
                    if line.startswith("conv2d.")}
            return {op: int(rows[op]) for op in
                    ("conv2d.forward", "conv2d.backward")}

        serial = calls(1)
        assert serial["conv2d.backward"] > 0
        assert calls(2) == serial


class TestTracedFederatedRun:
    def test_traced_run_is_numerically_identical(self):
        """Tracing, and so op timing, moves no number: serially and on a
        process pool the traced run ends in the untraced run's state, and
        the pool's workers report the serial run's ops."""
        def run(traced, **kwargs):
            model_fn, clients = _tiny_setting()
            algo = FedAvg(model_fn, clients, lr=0.05, local_epochs=1, seed=0,
                          **kwargs)
            out = {}
            try:
                if traced:
                    out["snap"] = _traced(lambda: out.update(log=algo.run(2)))
                else:
                    out["log"] = algo.run(2)
            finally:
                algo.close()
            return algo, out

        plain, plain_out = run(False)
        traced, out = run(True)
        pooled, pool_out = run(True, executor=make_executor(2))
        for other, other_out in ((traced, out), (pooled, pool_out)):
            for key in ("val_acc", "train_loss"):
                assert other_out["log"][key] == plain_out["log"][key]
            assert state_fingerprint(other.worker_sync_state()) \
                == state_fingerprint(plain.worker_sync_state())
        snap, pool_snap = out["snap"], pool_out["snap"]
        assert _op_calls(snap, "conv2d.backward") > 0
        for op in ("conv2d.forward", "conv2d.backward", "relu.backward"):
            assert _op_calls(pool_snap, op) == _op_calls(snap, op), op

    @pytest.mark.parametrize("cell", matrix.params("ledger"))
    def test_codec_span_bytes_match_ledger(self, cell):
        """ledger == Σ download+upload bytes, whichever driver sends and
        whatever storage framing (spill, store, checkpoint, pool
        plumbing) runs beside it; under faults, where the checksummed
        codec runs, Σ serialize == Σ deserialize == ledger too, and a
        fault-free run enters no codec (DESIGN.md §17).  Each reference
        of the matrix runs traced."""
        ref = matrix.reference(cell)
        if cell.faults:     # retransmissions were charged
            assert ref.fault_stats["n_corrupt"] > 0
        if cell.faults and isinstance(cell.driver, matrix.Scale):
            # a discarded cohort's transfers stay charged, traced
            assert ref.fault_stats["n_resamples"] > 0
        trace = ref.extra["trace"]
        # no driver swaps the process-global tracer behind the run's back
        assert trace["kept"]
        total = ref.ledger_bytes
        assert total > 0
        codec = total if cell.faults else 0
        assert trace["codec"] == {"serialize": codec, "deserialize": codec}
        # transfer spans carry the same per-transfer byte attributes
        assert trace["transfer"] == total

    def test_delta_downlink_is_counted_and_tracing_does_not_move_it(self):
        """Traced == untraced bytes and fingerprint with deltas on the
        wire, and the build site's counters say what travelled — the same
        on a process pool, whose workers count in their own registries."""
        def run(traced=False, **kwargs):
            algo = matrix.algorithm("spatl", matrix.model_fn("obs"),
                                    matrix.clients("obs"), sparsity=0.5,
                                    **kwargs)
            registry = MetricsRegistry()
            previous = set_registry(registry)
            try:
                with tracing() if traced else contextlib.nullcontext():
                    algo.run(3)
            finally:
                set_registry(previous)
                algo.close()
            return algo, {k: v for k, v in
                          registry.snapshot()["counters"].items()
                          if k.startswith("downlink.")}

        plain, counters = run()
        for other, other_counters in (run(traced=True),
                                      run(executor=make_executor(2))):
            assert other.ledger.downlink == plain.ledger.downlink
            assert other.ledger.uplink == plain.ledger.uplink
            assert state_fingerprint(other.worker_sync_state()) \
                == state_fingerprint(plain.worker_sync_state())
            assert other_counters == counters
        assert counters["downlink.cold_sends"] == 4      # round 0
        assert counters["downlink.delta_sends"] == 8     # rounds 1 and 2
        assert 0 < counters["downlink.rows_sent"] \
            < counters["downlink.rows_total"]
        share = round(100 * counters["downlink.rows_sent"]
                      / counters["downlink.rows_total"])
        # round 0's four first contacts are not sent c (c⁰ = 0, which a
        # joining client holds already): rows_known is c's row count x 4
        c_rows = sum(v.shape[0] for v in plain.c_global.values.values())
        assert counters["downlink.rows_known"] == 4 * c_rows
        held = round(100 * 4 * c_rows / (counters["downlink.rows_total"] / 3))
        assert downlink_line(counters) == (
            f"downlink: {share} % of rows, 4 cold ({held} % of their rows "
            "already held) / 8 delta")
        down = plain.ledger.downlink
        state = plain.downlink_state()
        encoder = payload_nbytes({k: v for k, v in state.items()
                                  if not k.startswith("c.")})
        assert set(down[0].values()) == {encoder}, (
            "round 0 is the encoder alone: every c.* entry is all zero and "
            "a first contact holds those zeros (DESIGN.md §5.1)")
        assert all(n < payload_nbytes(state) for r in (1, 2)
                   for n in down[r].values()), (
            "rounds 1 and 2 are row deltas: the encoder rows Eq. 12 rewrote "
            "plus the c rows Eq. 11 moved, less than enc + c")

    def test_round_timeline_covers_phases(self):
        model_fn, clients = _tiny_setting()
        algo = FedAvg(model_fn, clients, lr=0.05, local_epochs=1, seed=0)
        with tracing() as tracer:
            algo.run(1)
        table = round_timeline_table(tracer)
        for phase in ("sample", "download", "local_update", "upload",
                      "aggregate", "evaluate"):
            assert phase in table

    def test_serialize_span_bytes_equal_wire_length(self):
        """The span lives where bytes cross the network: a transport
        transfer reports the exact wire length, the bare codec nothing."""
        state = {"w": np.arange(12, dtype=np.float32).reshape(3, 4),
                 "b": np.zeros(3, dtype=np.float32)}
        with tracing() as tracer:
            blob = serialize_state(state)
            deserialize_state(blob)
        assert tracer.spans == []
        assert len(blob) == payload_nbytes(state)
        with tracing() as tracer:
            Transport().download(0, 0, state)
        assert [(s.name, s.attrs) for s in tracer.spans] == [
            ("download", {"round": 0, "client": 0, "bytes": len(blob)})]
