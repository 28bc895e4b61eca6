"""The one bench harness (``benchmarks/_harness.py``) and the tables on it.

Pure: nothing here measures.  The harness's rules are exercised on
synthetic records and throw-away benches; the nine ``bench_<name>.py``
tables are imported, never run, and their floors are fed synthetic rows
— every floor a bench alone enforces must still fail the run when it is
violated — and the committed ``BENCH_*.json`` histories are read as data.
``bench_e2e.py``'s pairs are driven through a stub runner, so no e2e run
happens here either.
"""

from __future__ import annotations

import copy
import dataclasses
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

_REPO = Path(__file__).resolve().parent.parent
_BENCHES = ["async", "claims", "comm", "compile", "e2e", "kernels",
            "parallel", "quant", "scale"]


@pytest.fixture(scope="module")
def harness():
    """``benchmarks/_harness.py`` as the scripts see it (a sibling)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(_REPO / "benchmarks"))
        import _harness
        yield _harness
    sys.modules.pop("_harness", None)


def _bench_module(name):
    """``benchmarks/bench_<name>.py``, imported (needs ``harness``)."""
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", _REPO / "benchmarks" / f"bench_{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench(harness):
    """``bench(name)``: the :class:`Bench` ``bench_<name>.py`` declares."""
    return lambda name: _bench_module(name).BENCH


def _record(smoke=False, rows=(), bench="demo"):
    return {"bench": bench, "commit": "abc1234", "smoke": smoke,
            "timestamp": "2026-01-01T00:00:00+00:00", "env": {},
            "peak_rss_bytes": 1, "size": {}, "rows": list(rows)}


def _row(case="micro", name="op", **fields):
    return {"case": case, "name": name, **fields}


# ------------------------------------------------------------- histories
@pytest.mark.parametrize("filename",
                         [f"BENCH_{name}.json" for name in _BENCHES])
def test_committed_history_is_one_schema(harness, bench, filename):
    history = json.loads((_REPO / filename).read_text())
    assert isinstance(history, list) and history
    name = filename[len("BENCH_"):-len(".json")]
    for i, record in enumerate(history):
        assert harness.validate(record) == [], f"{filename}[{i}]"
        assert record["bench"] == name
    last = history[-1]
    assert last["smoke"] is False and isinstance(last["commit"], str)
    # the baseline every --check reads: it holds its own bench's floors
    assert bench(name).floors(last) == []
    stamps = [record["timestamp"] for record in history]
    assert stamps == sorted(stamps), "histories are appended in time order"


@pytest.mark.parametrize("name", _BENCHES)
def test_bench_declares_a_table(harness, bench, name):
    declared = bench(name)
    assert declared.name == name
    cases = [case for case, _fn in declared.cases]
    assert cases and len(cases) == len(set(cases))
    assert all(callable(fn) for _case, fn in declared.cases)
    assert set(declared.full) == set(declared.smoke)
    assert {gate.case for gate in declared.gates} <= set(cases)


def test_validate_names_what_is_wrong(harness):
    good = _record(rows=[_row()])
    assert harness.validate(good) == []
    assert harness.validate({**good, "extra": 1}) != []
    assert harness.validate({k: v for k, v in good.items()
                             if k != "commit"}) != []
    assert harness.validate({**good, "smoke": "no"}) != []
    assert harness.validate({**good, "rows": [{"name": "x"}]}) != []
    assert harness.validate({**good, "rows": [_row(), _row()]}) != []
    assert harness.validate([good]) != []


def test_append_keeps_earlier_entries_byte_for_byte(harness, tmp_path):
    path = tmp_path / "BENCH_demo.json"
    first = _record(rows=[_row(opt_ms=0.1234, nested={"a": [1, 2]})])
    harness.append_record(path, first)
    before = path.read_text()
    harness.append_record(path, _record(rows=[_row(opt_ms=9.0)]))
    after = path.read_text()
    assert after.startswith(before.rstrip("\n").removesuffix("]")
                            .rstrip("\n"))
    assert json.loads(after)[0] == first and len(json.loads(after)) == 2


def test_malformed_record_is_not_appended(harness, tmp_path):
    path = tmp_path / "BENCH_demo.json"
    harness.append_record(path, _record())
    before = path.read_text()
    with pytest.raises(SystemExit, match="malformed"):
        harness.append_record(path, {"rows": []})
    assert path.read_text() == before


@pytest.mark.parametrize("content", [
    "{not json", '{"smoke": true}', "3",
    # a list, but of another layout: this schema is not put beside it
    '[{"micro": [], "e2e": [], "timestamp": "2026-01-01"}]'])
def test_unreadable_history_stops_the_run(harness, tmp_path, content):
    """Never ``history = []``: that overwrites the trajectory."""
    path = tmp_path / "BENCH_demo.json"
    path.write_text(content)
    with pytest.raises(SystemExit, match="BENCH_demo.json"):
        harness.load_history(path)
    with pytest.raises(SystemExit, match="BENCH_demo.json"):
        harness.append_record(path, _record())
    assert path.read_text() == content
    assert harness.load_history(tmp_path / "absent.json") == []

    def never(size):
        raise AssertionError("measured before the history was read")

    demo = harness.Bench(name="demo", doc="demo", cases=(("c", never),),
                         full={}, smoke={})
    with pytest.raises(SystemExit, match="BENCH_demo.json"):
        demo.main(["--out", str(path)])
    assert path.read_text() == content


def test_smoke_is_refused_beside_any_full_record(harness, tmp_path):
    committed = tmp_path / "BENCH_demo.json"
    mixed = tmp_path / "mixed.json"
    mixed.write_text(json.dumps([_record(smoke=True),
                                 _record(smoke=False),
                                 _record(smoke=True)]))
    with pytest.raises(SystemExit, match="full-run record"):
        harness.resolve_out(str(mixed), committed, True)
    assert harness.resolve_out(str(mixed), committed, False) == mixed
    smokes = tmp_path / "smokes.json"
    smokes.write_text(json.dumps([_record(smoke=True)]))
    assert harness.resolve_out(str(smokes), committed, True) == smokes
    assert harness.last_full(json.loads(smokes.read_text())) is None
    assert harness.last_full(json.loads(mixed.read_text()))["smoke"] is False


# ----------------------------------------------------------- baseline rule
def test_baseline_rule_boundary(harness):
    gate = harness.Gate("micro", "opt_ms", slack=0.15)       # factor 1.5
    baseline = _record(rows=[_row(opt_ms=2.0)])
    limit = 1.5 * 2.0 + 0.15
    eps = 1e-6
    assert harness.check_baseline([_row(opt_ms=limit - eps)], baseline,
                                  [gate]) == []
    failures = harness.check_baseline([_row(opt_ms=limit + eps)], baseline,
                                      [gate])
    assert len(failures) == 1 and "micro/op" in failures[0]
    tight = harness.Gate("micro", "mb", factor=1.10)
    assert harness.check_baseline([_row(mb=11.1)],
                                  _record(rows=[_row(mb=10.0)]),
                                  [tight]) != []


def test_baseline_rule_skips_what_the_baseline_lacks(harness):
    gate = harness.Gate("micro", "opt_ms")
    baseline = _record(rows=[_row(name="old", opt_ms=1.0),
                             _row(name="bare")])
    rows = [_row(name="new", opt_ms=1e9),            # no such baseline row
            _row(name="bare", opt_ms=1e9),           # baseline lacks the field
            _row(case="other", name="old", opt_ms=1e9),   # not the gated case
            _row(name="old", other_ms=1e9)]          # row lacks the field
    assert harness.check_baseline(rows, baseline, [gate]) == []
    assert harness.check_baseline(rows, None, []) == []
    assert harness.check_baseline(rows, None, [gate]) != []   # nothing to read


@pytest.fixture
def demo(harness, tmp_path, monkeypatch):
    """A throw-away bench in ``tmp_path`` (its repo and its cwd):
    ``demo.now["ms"]`` is what its one row measures next, and a negative
    measurement breaks its floor."""
    monkeypatch.setattr(harness, "REPO", tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(harness, "stamp", lambda bench, smoke, size, rows:
                        {**_record(smoke, rows, bench), "size": size})
    now = {"ms": 1.0}
    bench = harness.Bench(
        name="demo", doc="demo", full={"n": 2}, smoke={"n": 1},
        cases=(("micro", lambda size: [{"name": "op",
                                        "opt_ms": now["ms"]}]),),
        gates=(harness.Gate("micro", "opt_ms"),),
        floors=lambda record: ["floor"] * (record["rows"][0]["opt_ms"] < 0))
    object.__setattr__(bench, "now", now)
    return bench


def test_checks_judge_the_run_not_the_baseline(demo):
    """``Bench.checks`` reads the run's own record only: a record that
    fails them, appended without ``--check`` (a deliberate re-pin), does
    not fail later runs, as a broken floor in the baseline does."""
    paired = dataclasses.replace(
        demo, gates=(), floors=lambda record: [],
        checks=lambda record: ["pairs"] * (record["rows"][0]["opt_ms"] < 0))
    demo.now["ms"] = -1.0
    assert paired.main([]) == 0                  # recorded unjudged
    assert paired.main(["--check"]) == 1
    demo.now["ms"] = 1.0
    assert paired.main(["--check"]) == 0         # the re-pin is not re-judged


def _measured(path):
    return [r["rows"][0]["opt_ms"] for r in json.loads(path.read_text())]


def test_check_reads_its_baseline_before_appending(demo, tmp_path, capsys):
    history = tmp_path / "BENCH_demo.json"
    assert demo.main(["--check"]) == 1            # nothing to check against
    assert not history.exists()
    assert demo.main([]) == 0
    demo.now["ms"] = 10.0
    # against itself (read after the append) this would pass
    assert demo.main(["--check"]) == 1
    assert "baseline 1.0" in capsys.readouterr().out
    assert demo.main([]) == 0                     # no --check: only measures
    demo.now["ms"] = 14.0
    assert demo.main(["--check"]) == 0            # vs the 10.0 record
    assert demo.main(["--smoke", "--check"]) == 0
    demo.now["ms"] = -1.0
    assert demo.main(["--smoke", "--check"]) == 1          # the floor
    assert _measured(history) == [1.0, 10.0, 14.0]
    smokes = json.loads((tmp_path / "bench_demo_smoke.json").read_text())
    assert [r["smoke"] for r in smokes] == [True, True]
    assert json.loads(history.read_text())[0]["size"] == {"n": 2}
    assert smokes[0]["size"] == {"n": 1}
    with pytest.raises(SystemExit, match="full-run record"):
        demo.main(["--smoke", "--out", str(history)])


def test_failed_check_is_not_the_next_baseline(demo, tmp_path):
    """A regression fails on the rerun too: the failed record is kept,
    but beside the history, not at its end."""
    history = tmp_path / "BENCH_demo.json"
    assert demo.main([]) == 0
    demo.now["ms"] = 2.0
    assert demo.main(["--check"]) == 1
    assert demo.main(["--check"]) == 1
    assert demo.main(["--check", "--out", "BENCH_demo.json"]) == 1
    assert _measured(history) == [1.0]
    assert _measured(tmp_path / "bench_demo_failed.json") == [2.0, 2.0, 2.0]
    assert demo.main(["--check", "--out", "mine.json"]) == 1
    assert _measured(tmp_path / "mine.json") == [2.0]     # --out is obeyed


def test_baseline_answers_to_the_floors(demo, tmp_path, capsys):
    """A record appended unjudged below a floor fails every later check."""
    demo.now["ms"] = -1.0
    assert demo.main([]) == 0
    demo.now["ms"] = -2.0                  # within the gate of the baseline
    assert demo.main(["--smoke", "--check"]) == 1
    out = capsys.readouterr().out
    assert "CHECK FAILED: floor" in out
    assert "CHECK FAILED: baseline abc1234: floor" in out
    demo.now["ms"] = 0.0
    assert demo.main(["--smoke", "--check"]) == 1
    out = capsys.readouterr().out
    assert "CHECK FAILED: floor" not in out
    assert "CHECK FAILED: baseline abc1234: floor" in out


def test_pool_floor_reads_the_cores_of_the_box_that_measured(bench):
    rows = [_row("sweep", "process:2", executor="process:2",
                 speedup_vs_serial=0.9, byte_identical_to_serial=True)]
    floors = bench("parallel").floors
    assert floors({**_record(rows=rows), "env": {"cpus_usable": 1}}) == []
    assert floors({**_record(rows=rows), "env": {"cpus_usable": 2}}) != []


def test_interleaved_alternates_and_takes_the_minimum(harness):
    calls = []
    own = iter([0.004, 0.002, 0.003])
    timing = harness.interleaved(lambda: calls.append("opt") or next(own),
                                 lambda: calls.append("ref") or 0.001, 3,
                                 self_timed=True)
    assert calls == ["opt", "ref"] * 3
    assert timing == {"opt_ms": 2.0, "ref_ms": 1.0, "speedup": 0.5}
    # timed whole unless asked: a callable that happens to return a float
    # (a loss, a ratio) is not mistaken for one that timed itself
    whole = harness.interleaved(lambda: 5.0, lambda: 7.0, 2)
    assert whole["opt_ms"] < 1.0 and whole["ref_ms"] < 1.0
    with pytest.raises(SystemExit, match="IDENTITY BROKEN: a != b"):
        harness.require(False, "a != b")
    harness.require(True, "fine")


# ------------------------------------------------------------------ floors
def _good_rows():
    """Per bench: rows shaped like a passing run's."""
    def sweep(mode, population, rss, crc):
        return _row("sweep", f"{mode}/{population}", mode=mode,
                    population=population, peak_rss_bytes=rss, state_crc=crc)

    return {
        "async": [_row("straggler_speedup", "fedavg", speedup=3.6,
                       target_reached=True),
                  _row("loop_overhead", "stub16", us_per_event=100.0),
                  _row("warmup", "stub16", dispatched=20, crashed=1,
                       trained=11, accepted=11, delivered=11)],
        "comm": [_row("codec", "serialize.vgg11", opt_ms=1.0),
                 _row("downlink", "fedavg.vgg11",
                      full_bytes=[100, 100], delta_bytes=[100, 100],
                      joiner_bytes=50, joiner_full_bytes=50),
                 _row("downlink", "scaffold.vgg11",
                      full_bytes=[100, 100], delta_bytes=[60, 100],
                      joiner_bytes=50, joiner_full_bytes=50),
                 _row("downlink", "spatl_rl.vgg11",
                      full_bytes=[100, 100], delta_bytes=[60, 80],
                      joiner_bytes=45, joiner_full_bytes=50)],
        "compile": [_row("micro", "resnet20.bs4", opt_ms=4.0, speedup=1.3,
                         arena_misses_steady=0),
                    _row("e2e", "resnet20", speedup=1.25),
                    _row("e2e", "vgg11", speedup=1.04)],
        "e2e": [_row("e2e", "fedavg_vgg11_dense/seed0", correct=True,
                     probes_missing=[])],
        "kernels": [_row("micro", "conv2d.forward", opt_ms=0.8, speedup=2.0),
                    _row("e2e", "resnet20", speedup=1.5,
                         arena_resident_mb=20.0, gather_idx_mb=0.2)],
        "quant": [_row("micro", "pack.int4", speedup=150.0),
                  _row("micro", "unpack.int4", speedup=300.0),
                  _row("micro", "quantize.int8.per_tensor", speedup=1.0),
                  _row("ratios", "bits32", bits=32, ledger_equals_codec=True,
                       reduction_vs_fp32=1.0, uplink_bytes=8, codec_bytes=8),
                  _row("ratios", "bits8", bits=8, ledger_equals_codec=True,
                       reduction_vs_fp32=3.92, uplink_bytes=2, codec_bytes=2),
                  _row("ratios", "bits4", bits=4, ledger_equals_codec=True,
                       reduction_vs_fp32=7.7, uplink_bytes=1, codec_bytes=1),
                  _row("accuracy", "int8_ef", gap_vs_fp32=0.003)],
        "scale": [sweep("materialized", 1000, 50, 7),
                  sweep("streaming", 1000, 50, 7),
                  sweep("materialized", 100000, 170, 9),
                  sweep("streaming", 100000, 75, 9)],
    }


# (bench, (case, name) of the row to break, fields to overwrite, smoke,
#  a fragment of the failure message)
_VIOLATIONS = [
    ("async", ("straggler_speedup", "fedavg"), {"speedup": 1.04}, True,
     "< 1.05x"),
    ("async", ("straggler_speedup", "fedavg"), {"target_reached": False},
     True, "never reached"),
    ("async", ("warmup", "stub16"), {"trained": 19}, True,
     "trained 19 jobs, delivered 11"),
    ("comm", ("downlink", "fedavg.vgg11"), {"delta_bytes": [90, 100]}, True,
     "round 0"),
    ("comm", ("downlink", "fedavg.vgg11"), {"delta_bytes": [100, 101]}, True,
     "exceeds the full state"),
    ("comm", ("downlink", "spatl_rl.vgg11"), {"delta_bytes": [60, 100]},
     True, "not smaller"),
    ("comm", ("downlink", "scaffold.vgg11"), {"delta_bytes": [100, 100]},
     True, "born zero"),
    ("comm", ("downlink", "scaffold.vgg11"), {"joiner_bytes": 51}, True,
     "at most that"),
    ("comm", ("downlink", "fedavg.vgg11"), {"joiner_bytes": 49}, True,
     "must be equal"),
    ("comm", ("downlink", "spatl_rl.vgg11"), {"joiner_bytes": 50}, True,
     "zeros it holds"),
    ("compile", ("micro", "resnet20.bs4"), {"arena_misses_steady": 2}, True,
     "arena misses"),
    ("compile", ("e2e", "resnet20"), {"speedup": 1.19}, False, "1.2x floor"),
    ("e2e", ("e2e", "fedavg_vgg11_dense/seed0"), {"correct": False}, True,
     "output check"),
    ("e2e", ("e2e", "fedavg_vgg11_dense/seed0"),
     {"probes_missing": ["a -> b"]}, True, "probes missing"),
    ("kernels", ("micro", "conv2d.forward"), {"speedup": 0.96}, False,
     "0.97x floor"),
    ("quant", ("micro", "pack.int4"), {"speedup": 9.9}, True, "< 10.0x"),
    ("quant", ("micro", "unpack.int4"), {"speedup": 9.9}, True, "< 10.0x"),
    ("quant", ("ratios", "bits8"), {"reduction_vs_fp32": 3.89}, True,
     "< 3.9x"),
    ("quant", ("ratios", "bits4"), {"reduction_vs_fp32": 7.49}, True,
     "< 7.5x"),
    ("quant", ("ratios", "bits8"), {"ledger_equals_codec": False}, True,
     "ledger"),
    ("quant", ("accuracy", "int8_ef"), {"gap_vs_fp32": -0.011}, False,
     "1 point"),
    ("scale", ("sweep", "streaming/100000"), {"state_crc": 8}, True,
     "CRCs diverge"),
    ("scale", ("sweep", "streaming/100000"), {"peak_rss_bytes": 101}, True,
     "budget 2.0x"),
]


@pytest.mark.parametrize("name", sorted(_good_rows()))
def test_floors_pass_a_good_run(bench, name):
    rows = _good_rows()[name]
    assert bench(name).floors(_record(True, rows)) == []
    assert bench(name).floors(_record(False, rows)) == []


@pytest.mark.parametrize(
    "name,key,broken,smoke,message", _VIOLATIONS,
    ids=[f"{v[0]}-{v[1][1]}-{'-'.join(v[2])}" for v in _VIOLATIONS])
def test_floor_fails_when_violated(bench, name, key, broken, smoke, message):
    rows = copy.deepcopy(_good_rows()[name])
    next(r for r in rows if (r["case"], r["name"]) == key).update(broken)
    failures = bench(name).floors(_record(smoke, rows))
    assert len(failures) == 1 and message in failures[0], failures


def _claims_record():
    return json.loads((_REPO / "BENCH_claims.json").read_text())[-1]


def _claim_row(record, claim_id):
    return next(row for row in record["rows"]
                if row["case"] == "claims" and row["name"] == claim_id)


def test_claims_floors_judge_the_table_s_bounds_on_recorded_operands(bench):
    claims = bench("claims")
    record = _claims_record()
    assert claims.floors(record) == []
    ids = [row["name"] for row in record["rows"] if row["case"] == "claims"]
    assert ids == [claim.id for claim in _bench_module("claims").CLAIMS]
    # a broken operand fails its claim, whatever bound the record wrote
    broken = copy.deepcopy(record)
    row = _claim_row(broken, "table1.scaffold_2x")
    row["measured"]["scaffold_mb"] = row["measured"]["fedavg_mb"]
    row["bound"], row["holds"] = "True", True
    failures = claims.floors(broken)
    assert len(failures) == 1 and failures[0].startswith(
        "table1.scaffold_2x (table1): 1.6 < scaffold_mb / fedavg_mb < 2.4")
    # a guard the assert had still guards: an unreached target is vacuous
    guarded = copy.deepcopy(record)
    _claim_row(guarded, "table1.spatl_cheapest_to_target")["measured"].update(
        spatl_reached=False, spatl_gb=9.0, cheapest_gb=1.0)
    assert claims.floors(guarded) == []
    # a claim the record lacks fails
    dropped = copy.deepcopy(record)
    dropped["rows"].remove(_claim_row(dropped, "fig6.tiny_agent"))
    assert claims.floors(dropped) == ["fig6.tiny_agent: no row in the record"]


def test_full_run_floors_are_skipped_on_smoke(bench):
    """One timed round on a shared CI core cannot carry a speedup floor."""
    for name, key, broken in (
            ("kernels", ("micro", "conv2d.forward"), {"speedup": 0.5}),
            ("compile", ("e2e", "resnet20"), {"speedup": 0.9}),
            ("quant", ("accuracy", "int8_ef"), {"gap_vs_fp32": 0.05})):
        rows = copy.deepcopy(_good_rows()[name])
        next(r for r in rows if (r["case"], r["name"]) == key).update(broken)
        assert bench(name).floors(_record(True, rows)) == []
        assert bench(name).floors(_record(False, rows)) != []


def test_timed_rows_are_gated(bench):
    """What the baseline rule watches: per-row times, the loop overhead,
    the kernel bench's step peak and two byte counts and the pool's
    worker peak RSS (``bench_e2e`` gates its own pairs instead: see
    below)."""
    watched = {name: {(g.case, g.field, g.factor, g.slack)
                      for g in bench(name).gates} for name in _BENCHES}
    assert watched["kernels"] == {("micro", "opt_ms", 1.5, 0.15),
                                  ("e2e", "step_peak_mb", 1.10, 0.0),
                                  ("e2e", "arena_resident_mb", 1.10, 0.0),
                                  ("e2e", "gather_idx_mb", 1.10, 0.0)}
    assert watched["comm"] == {("codec", "opt_ms", 1.5, 0.15),
                               ("aggregate", "opt_ms", 1.5, 0.15)}
    assert watched["compile"] == {("micro", "opt_ms", 1.5, 0.15)}
    assert watched["quant"] == {("micro", "opt_ms", 1.5, 0.15)}
    assert watched["async"] == {("loop_overhead", "us_per_event", 1.5, 3.0)}
    assert watched["parallel"] == {("sweep", "worker_peak_rss_mb", 1.10, 0.0)}
    assert watched["claims"] == set()          # claims have bounds, not gates


# ------------------------------------------------------- bench_e2e pairs
@pytest.fixture(scope="module")
def e2e(harness):
    """``benchmarks/bench_e2e.py`` itself: its pairs, verdicts and gate."""
    return _bench_module("e2e")


_E2E_METRICS = ("setup_s", "cpu_cores_busy", "peak_rss_mb",
                "uplink_mb_per_round", "downlink_mb_per_round", "round_s",
                "final_val_acc", "cpu_s_total", "failed_ops_ratio")


def _run(metrics, fingerprint=7):
    """What ``run_once`` returns for one run."""
    return {"metrics": dict(metrics), "fingerprint": fingerprint,
            "units": 4, "correct": True, "probes_missing": [],
            "top_layers_s": {}}


def test_lower_is_better_counts_ties_apart(e2e):
    row = e2e.compare([10.0, 10.0, 10.0, 12.0],
                      [9.0, 10.0, 11.0, 12.0], "lower")
    assert (row["wins"], row["ties"], row["losses"]) == (1, 2, 1)
    assert row["parent"] == (10.0, 1.5)
    assert row["change"] == (10.5, 2.5)   # exclusive quartiles 9.25, 11.75


def test_higher_is_better_flips_the_direction(e2e):
    parent, change = [0.5, 0.5, 0.6], [0.7, 0.4, 0.6]
    higher = e2e.compare(parent, change, "higher")
    lower = e2e.compare(parent, change, "lower")
    assert (higher["wins"], higher["ties"], higher["losses"]) == (1, 1, 1)
    assert (lower["wins"], lower["ties"], lower["losses"]) == (1, 1, 1)
    higher = e2e.compare([1.0, 1.0], [2.0, 3.0], "higher")
    assert (higher["wins"], higher["ties"], higher["losses"]) == (2, 0, 0)
    lower = e2e.compare([1.0, 1.0], [2.0, 3.0], "lower")
    assert (lower["wins"], lower["ties"], lower["losses"]) == (0, 0, 2)


def test_all_ties_and_one_pair(e2e):
    row = e2e.compare([3.0], [3.0], "higher")
    assert (row["wins"], row["ties"], row["losses"]) == (0, 1, 0)
    assert row["parent"] == row["change"] == (3.0, 0.0)
    assert row["ratio"] == 1.0 and row["verdict"] == "same"
    assert e2e.compare([0.0], [0.0], "lower", 0.0)["ratio"] is None


def test_bad_input_is_refused(e2e):
    with pytest.raises(ValueError, match="better"):
        e2e.compare([1.0], [1.0], "smaller")
    with pytest.raises(ValueError):
        e2e.compare([1.0, 2.0], [1.0], "lower")


def test_verdict_is_the_paired_claim_rule(e2e):
    parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    faster = [p - 1.0 for p in parent]
    assert e2e.compare(parent, faster, "lower", 0.25)["verdict"] == "gain"
    assert e2e.compare(parent, faster, "higher", 0.05)["verdict"] == "worse"
    # 9/10 wins, but the gap is inside the parent's own spread
    near = [p - 0.01 for p in parent[:9]] + [parent[9] + 0.01]
    assert e2e.compare(parent, near, "lower", 0.25)["verdict"] == "same"
    assert e2e.compare(parent, faster, "higher")["verdict"] == "same"
    # a gain rests on ten pairs at least: nine or one (a smoke run) is not
    assert e2e.compare(parent[:9], faster[:9], "lower",
                       0.25)["verdict"] == "same"
    assert e2e.compare([10.0], [9.0], "lower", 0.25)["verdict"] == "same"
    noisy = [5.0, 15.0, 5.0, 15.0]
    assert e2e.compare(noisy, noisy, "lower", 0.1)["verdict"] == "unresolved"
    # ... unless every change run beats every parent run
    assert e2e.compare(noisy, [4.0] * 4, "lower", 0.1)["verdict"] == "same"
    # failed_ops_ratio: bound 0, so any rise of the median is worse
    assert e2e.compare([0.0] * 3, [0.0, 0.1, 0.1], "lower",
                       0.0)["verdict"] == "worse"


def test_layer_adds_one_traced_run_per_side(e2e, monkeypatch, capsys,
                                            tmp_path):
    """``--layer`` reads the one ``--trace 1`` run per side that follows
    the pairs, and prints and records the named per-layer metrics of
    both; the export and the runner are stubs."""
    calls = []

    def fake_run(root, workload, seed, out, trace, smoke, what):
        side = "change" if root == e2e.REPO else "parent"
        calls.append((side, workload, trace))
        metrics = dict.fromkeys(_E2E_METRICS, 1.0)
        if trace:
            metrics["nn.pooling.forward_s"] = 2.0 if side == "parent" else 0.5
        return _run(metrics)

    monkeypatch.setattr(e2e, "export", lambda sha, dest: None)
    monkeypatch.setattr(e2e, "run_once", fake_run)
    w, history = "fedavg_vgg11_dense", tmp_path / "h.json"
    assert e2e.main(["--workload", w, "--pairs", "2", "--out", str(history),
                     "--layer", "nn.pooling.forward_s",
                     "--layer", "nn.conv.forward_s"]) == 0
    assert calls == [("parent", w, 0), ("change", w, 0),
                     ("change", w, 0), ("parent", w, 0),
                     ("parent", w, 1), ("change", w, 1)]
    out = capsys.readouterr().out
    pool = next(line for line in out.splitlines()
                if line.startswith("nn.pooling.forward_s"))
    assert pool.split() == ["nn.pooling.forward_s", "2", "0.5", "0.25"]
    conv = next(line for line in out.splitlines()
                if line.startswith("nn.conv.forward_s"))
    assert conv.split() == ["nn.conv.forward_s", "-", "-", "-"]
    record = json.loads(history.read_text())[0]
    assert record["size"]["ref"] == subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=_REPO, capture_output=True,
        text=True).stdout.strip()
    row = record["rows"][0]
    assert row["layers"] == {"nn.pooling.forward_s": [2.0, 0.5],
                             "nn.conv.forward_s": [None, None]}
    assert (row["pairs"], row["fingerprints_equal"]) == (2, 2)


def test_layer_must_be_a_per_layer_metric(e2e, monkeypatch):
    monkeypatch.setattr(e2e, "export", lambda sha, dest: None)
    with pytest.raises(SystemExit) as exc:
        e2e.main(["--workload", "fedavg_vgg11_dense", "--layer", "setup_s"])
    assert exc.value.code == 2


def test_bad_ref_exits_naming_it_before_any_export(e2e, monkeypatch,
                                                   tmp_path):
    calls, real = [], subprocess.run
    monkeypatch.setattr(subprocess, "run",
                        lambda cmd, **kw: calls.append(cmd) or real(cmd, **kw))
    with pytest.raises(SystemExit, match="--ref no-such-ref: not a commit"):
        e2e.main(["--ref", "no-such-ref", "--out", str(tmp_path / "h.json")])
    assert [cmd[:2] for cmd in calls] == [["git", "rev-parse"]]   # no tar
    assert not (tmp_path / "h.json").exists()


def test_crashed_run_names_its_pair_after_printing_the_finished_ones(
        e2e, monkeypatch, capsys, tmp_path):
    """A run.py that exits 1 stops the bench with the workload, the side,
    the pair and its stderr tail; each finished pair is already printed."""
    record = {"metrics": {k: {"value": 1.0} for k in _E2E_METRICS},
              "state_fingerprint": 7, "units": 1, "correct": True}
    calls = []

    def fake_subprocess_run(cmd, **kwargs):
        calls.append(cmd)
        if len(calls) == 3:                   # pair 2's first run
            return subprocess.CompletedProcess(
                cmd, 1, "", "Traceback (most recent call last):\n"
                "ValueError: boom")
        out = Path(cmd[cmd.index("--out") + 1])
        out.write_text(json.dumps({"records": [record]}))
        return subprocess.CompletedProcess(cmd, 0, "", "")

    monkeypatch.setattr(e2e, "export", lambda sha, dest: None)
    monkeypatch.setattr(subprocess, "run", fake_subprocess_run)
    size = {"smoke": False, "seed": 0, "pairs": 2, "ref": "abc",
            "workload": ["spatl_async_int4"], "layer": []}
    with pytest.raises(RuntimeError) as exc:
        list(e2e.e2e_rows(size))
    message = str(exc.value)
    assert message.startswith("spatl_async_int4 change pair 2/2: run.py "
                              "exited 1")
    assert message.endswith("ValueError: boom")
    err = capsys.readouterr().err
    for side in ("parent", "change"):
        assert f"spatl_async_int4 {side} pair 1/2: setup_s=1 " in err


# Traced ``fl.local_update_s`` over ``cpu_s_total`` on seed 0 (one run of
# each pass on a 2-core box): 10 % of this share is what a 10 % slower
# local update adds to a run's CPU-seconds.  On fedavg_resnet20_fastpath
# training runs in pool workers (the parent's probe reads 0 s) and on
# spatl_scale_int8 the share, 4.9 %, is below DELTA.
_LOCAL_UPDATE_SHARE = {"spatl_rl_resnet20": 10.5 / 15.1,
                       "fedavg_vgg11_dense": 7.9 / 11.0,
                       "spatl_async_int4": 8.1 / 11.8}
# The parent's ``cpu_s_total`` relative IQR in this bench's A/A record in
# BENCH_e2e.json (5 pairs per workload, seed 0, a shared 2-core box): the
# spread the stub draws CPU-seconds at.  Every other metric is held still;
# the mutant moves CPU-seconds only.
_MEASURED_RIQR = {"spatl_rl_resnet20": 0.162, "fedavg_vgg11_dense": 0.114,
                  "fedavg_resnet20_fastpath": 0.163,
                  "spatl_async_int4": 0.311, "spatl_scale_int8": 0.232}
# A spread quiet enough for five pairs to resolve DELTA: the median of five
# per-pair ratios then sits within ~0.6 % of the mutant's +6.9 %.
_RESOLVING_RIQR = 0.01


def _stub_runs(e2e, rng, riqr, mutant):
    """A ``run_once`` stub: CPU-seconds drawn around 1 at relative IQR
    ``riqr[workload]`` and, on a ``mutant``'s change side, 10 % of the
    workload's local-update share on top."""
    def run(root, workload, seed, out, trace, smoke, what):
        metrics = dict.fromkeys(_E2E_METRICS, 1.0)
        metrics["failed_ops_ratio"] = 0.0
        metrics["cpu_s_total"] *= 1 + rng.normal(0, riqr[workload] / 1.349)
        if mutant and root == e2e.REPO:
            metrics["cpu_s_total"] += \
                0.1 * _LOCAL_UPDATE_SHARE.get(workload, 0.0)
        return _run(metrics)
    return run


def _stub_record(e2e, run, pairs=5):
    """A full record of ``pairs`` stub pairs per workload, its rows built
    by ``pair_row`` as ``e2e_rows`` builds them."""
    roots = {"parent": Path("parent"), "change": e2e.REPO}
    rows = []
    for workload in _MEASURED_RIQR:
        runs = {side: [run(root, workload, 0, None, 0, False, "")
                       for _ in range(pairs)] for side, root in roots.items()}
        traced = dict.fromkeys(e2e.SIDES, _run({}))
        rows.append(e2e.pair_row(workload, 0, runs, traced, []))
    return {"smoke": False, "rows": rows}


def test_pair_gate_at_the_measured_spread(e2e):
    """At the spread the A/A record measured, the gate passes A/A runs —
    and cannot catch a change whose local update costs 10 % more CPU: the
    parent's IQR is wider than DELTA, so that ratio reads ``unresolved``
    (or an unjudged ``worse``), not ``same``.  Over 300 stub records
    each, at most 5 % fail the gate (A/A ~1 %, mutant ~2 % read)."""
    import numpy as np

    rng = np.random.default_rng(0)
    for mutant in (False, True):
        run = _stub_runs(e2e, rng, _MEASURED_RIQR, mutant)
        records = [_stub_record(e2e, run) for _ in range(300)]
        assert sum(bool(e2e.pair_checks(r)) for r in records) <= 15
        if mutant:
            verdicts = [row["metrics"]["cpu_s_total"]["verdict"]
                        for r in records for row in r["rows"]
                        if row["name"].split("/")[0] in _LOCAL_UPDATE_SHARE]
            assert verdicts.count("same") <= 0.02 * len(verdicts)


def _gate(e2e, monkeypatch, capsys, history, run):
    """``--check --pairs 5`` over the stub ``run``: the exit code and the
    workloads that failed, each on its CPU-second ratio."""
    monkeypatch.setattr(e2e, "export", lambda sha, dest: None)
    monkeypatch.setattr(e2e, "run_once", run)
    code = e2e.main(["--check", "--pairs", "5", "--out", str(history)])
    failed = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("CHECK FAILED")]
    assert all("CPU-second ratio" in line for line in failed)
    return code, {line.split("/")[1] for line in failed}


@pytest.mark.parametrize("noise_seed", range(10))
def test_pair_gate_fails_a_10pc_slower_local_update_where_it_resolves(
        e2e, monkeypatch, capsys, tmp_path, noise_seed):
    """On a box whose CPU-seconds spread resolves DELTA, A/A passes
    ``--check`` and a 10 % slower local update fails it on the three
    workloads where that update is more than DELTA of a run's
    CPU-seconds.  No e2e run happens here."""
    import numpy as np

    rng = np.random.default_rng(noise_seed)
    riqr = dict.fromkeys(_MEASURED_RIQR, _RESOLVING_RIQR)
    for mutant, expected in ((False, 0), (True, 1)):
        code, failed = _gate(e2e, monkeypatch, capsys, tmp_path / "h.json",
                             _stub_runs(e2e, rng, riqr, mutant))
        assert code == expected
        assert failed >= set(_LOCAL_UPDATE_SHARE) if mutant else not failed
