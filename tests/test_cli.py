"""Unit tests: the CLI parses and dispatches (tiny footprints)."""

import contextlib
import io
import json

import pytest

from repro.cli import COMMANDS, _fields, build_parser, main, render
from repro.experiments.registry import ARTIFACTS, Base, serve

#: every artifact's runs at two clients, one round, 200 samples
SHRINK = (("local_epochs", 1), ("n_clients", 2), ("n_samples", 200),
          ("rounds", 1), ("sample_ratio", 1.0))


@pytest.fixture(scope="session")
def femnist(tmp_path_factory):
    """One ``femnist`` command its smokes share: ``(exit code, stdout,
    JSONL trace)``.  It runs traced, which is numerically identical to
    untraced by design (tests/test_obs.py)."""
    trace = tmp_path_factory.mktemp("femnist") / "trace.jsonl"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(["femnist", "--clients", "2", "--rounds", "1",
                   "--sample-ratio", "1.0", "--trace-out", str(trace)])
    return rc, out.getvalue(), trace.read_text()


@pytest.fixture(scope="session")
def served():
    """Every artifact at :data:`SHRINK`, runs shared as ``repro all``
    shares them."""
    return serve(Base(shrink=SHRINK))[0]


class TestParser:
    def test_all_commands_parse(self):
        parser = build_parser()
        for cmd in [*ARTIFACTS, *COMMANDS]:
            args = parser.parse_args([cmd])
            assert args.command == cmd

    def test_overrides(self):
        args = build_parser().parse_args(
            ["table1", "--scale", "small", "--clients", "12"])
        assert args.scale == "small"
        assert args.clients == 12

    def test_flags_set_over_the_artifact_s_config(self):
        args = build_parser().parse_args(
            ["table2", "--clients", "3", "--rounds", "2", "--min-clients",
             "1", "--no-quant-ef"])
        fields = _fields(args)
        # a flag at its default leaves the artifact's own value
        assert fields == {"n_clients": 3, "rounds": 2, "quant_ef": False}
        reads, _ = ARTIFACTS["table2"][1](Base(shrink=tuple(fields.items())))
        for read in reads.values():
            assert read.rounds == 2          # the cap: table2 reads 12
            assert (read.key.cfg.n_clients, read.key.cfg.beta) == (3, 0.3)

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["make-coffee"])

    def test_fault_knobs_parse(self):
        args = build_parser().parse_args(
            ["fault_degradation", "--fault-drop", "0.3", "--fault-corrupt",
             "0.05", "--fault-timeout", "6", "--min-clients", "3"])
        assert args.fault_drop == pytest.approx(0.3)
        assert args.fault_corrupt == pytest.approx(0.05)
        assert args.fault_timeout == pytest.approx(6.0)
        assert args.min_clients == 3

    def test_fault_knobs_default_off(self):
        args = build_parser().parse_args(["table1"])
        assert args.fault_drop == 0.0
        assert args.fault_corrupt == 0.0
        assert args.fault_timeout is None


class TestDispatch:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        names = [line.split()[0]
                 for line in capsys.readouterr().out.splitlines()]
        assert names == [*ARTIFACTS, *COMMANDS]

    def test_artifact_command_smoke(self, femnist):
        rc, out, _ = femnist
        assert rc == 0
        assert set(json.loads(out)) == {"fedavg", "fedprox", "spatl"}

    @pytest.mark.parametrize("name", list(ARTIFACTS))
    def test_artifact_renders(self, served, name):
        out = render(name, served[name])
        assert out.strip()
        if name in ("fault_degradation", "arch_sweep"):
            # tuple keys print joined: "fedavg/0.3", "vgg11/spatl"
            assert all("/" in key for key in json.loads(out))
        if name == "fault_degradation":
            clean = served[name][("fedavg", 0.0)]
            assert clean["n_dropped"] == clean["n_corrupt"] == 0

    def test_scale_composes_with_faults(self, capsys, tmp_path):
        rc = main(["scale", "--scale", "tiny", "--population", "32",
                   "--rounds", "2", "--fault-drop", "0.3", "--min-clients",
                   "2", "--store-dir", str(tmp_path / "store")])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("retries=") == 2 and "committed=True" in out
        totals = json.loads(out[out.index("{"):])["fault_totals"]
        assert totals["n_retries"] > 0


class TestObservability:
    def test_obs_flags_parse(self):
        args = build_parser().parse_args(
            ["profile", "--trace-out", "t.json", "--metrics-out", "m.json",
             "--algorithm", "spatl"])
        assert args.command == "profile"
        assert args.trace_out == "t.json"
        assert args.metrics_out == "m.json"
        assert args.algorithm == "spatl"

    def test_obs_flags_default_off(self):
        args = build_parser().parse_args(["table1"])
        assert args.trace_out is None
        assert args.metrics_out is None

    def test_profile_smoke_emits_chrome_trace(self, tmp_path, capsys):
        import json
        import re

        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        for driver_flags, driver_spans in (
                ([], {"round"}),
                (["--async", "--async-steps", "4", "--buffer-k", "2"],
                 {"dispatch", "buffer", "commit"})):
            rc = main(["profile", "--clients", "2", "--rounds", "1",
                       "--sample-ratio", "1.0", "--trace-out", str(trace),
                       "--metrics-out", str(metrics), *driver_flags])
            assert rc == 0
            out = capsys.readouterr().out
            # hotspot table names the conv ops; the transfer spans'
            # bytes reconcile with the ledger, direction by direction
            assert "conv2d.forward" in out
            line = re.search(r"transfer bytes: download=(\d+) \(ledger "
                             r"(\d+)\) upload=(\d+) \(ledger (\d+)\)", out)
            assert line, out
            down, down_ledger, up, up_ledger = map(int, line.groups())
            assert down == down_ledger > 0 and up == up_ledger > 0, out
            assert "step compiler:" not in out      # no --compile, no line
            doc = json.loads(trace.read_text())
            events = doc["traceEvents"]
            assert events and all(e["ph"] == "X" for e in events)
            names = {e["name"] for e in events}
            assert driver_spans | {"download", "upload"} <= names
            assert not names & {"serialize", "deserialize"}  # no faults
            snap = json.loads(metrics.read_text())
            assert snap["counters"]  # fl.* counters were recorded

    def test_profile_compile_accounts_for_replayed_steps(self, capsys):
        import re

        from repro.obs import MetricsRegistry, get_registry, set_registry
        prev = get_registry()
        set_registry(MetricsRegistry())
        try:
            rc = main(["profile", "--clients", "2", "--rounds", "1",
                       "--sample-ratio", "1.0", "--compile"])
        finally:
            set_registry(prev)
        assert rc == 0
        line = re.search(r"step compiler: (\d+) captures, (\d+) replays "
                         r"\((\d+\.\d) s\), 0 fallbacks — replayed steps "
                         r"are not in the op table", capsys.readouterr().out)
        assert line, "profile --compile must say what bypassed the op table"
        assert int(line.group(1)) >= 1 and int(line.group(2)) > 0

    def test_trace_out_on_regular_command(self, femnist):
        rc, _, trace = femnist
        assert rc == 0
        records = [json.loads(line) for line in trace.splitlines()]
        assert any(r["name"] == "algorithm" for r in records)
