"""Self-test of the end-to-end benchmark (run explicitly: ``pytest benchmarks/e2e``).

Tier-1's ``testpaths = ["tests"]`` does not collect this file.  It runs
the whole suite once in ``--smoke`` size (one timed unit per workload,
both passes), a second untraced smoke pass for same-seed determinism,
and checks the result schema against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = [sys.executable, str(HERE / "run.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
EXACT = ("uplink_mb_per_round", "downlink_mb_per_round", "final_val_acc")

sys.path.insert(0, str(HERE))
import probes      # noqa: E402
import report      # noqa: E402
import workloads   # noqa: E402


def _suite(out: Path, *flags: str) -> list[dict]:
    proc = subprocess.run([*RUN, "--smoke", "--seed", "0", "--out", str(out),
                           *flags], capture_output=True, text=True, cwd=ROOT)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(out.read_text())["records"]


@pytest.fixture(scope="module")
def records(tmp_path_factory) -> list[dict]:
    return _suite(tmp_path_factory.mktemp("e2e") / "both.json")


@pytest.fixture(scope="module")
def untraced(records) -> dict[str, dict]:
    return {r["workload"]: r for r in records if not r["traced"]}


@pytest.fixture(scope="module")
def traced(records) -> dict[str, dict]:
    return {r["workload"]: r for r in records if r["traced"]}


def test_every_workload_ran_both_passes_and_is_correct(records, untraced, traced):
    names = [w.name for w in workloads.WORKLOADS]
    assert sorted(untraced) == sorted(traced) == sorted(names)
    for record in records:
        assert record["correct"], record["checks"]
        assert record["metrics"]["failed_ops_ratio"]["value"] == 0


def test_end_to_end_metrics_present_with_units(untraced):
    for record in untraced.values():
        for name in report.END_TO_END:
            metric = record["metrics"][name]
            assert metric["unit"] and isinstance(metric["value"], (int, float))


def test_names_and_counts_fit_the_contract(traced):
    bench = report.load_benchmark()
    e2e = [m["name"] for m in bench["end_to_end"]]
    layers = [m["name"] for m in bench["per_layer"]]
    assert len(report.END_TO_END) <= 16 and len(e2e) <= 16
    assert len(layers) <= 128
    for name in [*e2e, *layers, *report.END_TO_END,
                 *(w["name"] for w in bench["workloads"])]:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in bench["workloads"]] == \
        [w.name for w in workloads.WORKLOADS]
    assert bench["paths"] == ["benchmarks/e2e"]
    assert any(m["name"] == "setup_s" for m in bench["end_to_end"])
    for record in traced.values():
        printed = {**record["metrics"], **record["layers"]}
        assert set(e2e) <= set(record["metrics"])
        assert set(layers) <= set(printed), set(layers) - set(printed)
        # every layer metric the harness emits is declared
        assert set(record["layers"]) <= set(layers)


def test_traced_equals_untraced(untraced, traced):
    for name, plain in untraced.items():
        assert plain["state_fingerprint"] == traced[name]["state_fingerprint"]
        for key in EXACT:
            assert plain["metrics"][key] == traced[name]["metrics"][key]


def test_same_seed_twice_is_identical(untraced, tmp_path):
    again = {r["workload"]: r
             for r in _suite(tmp_path / "again.json", "--trace", "0")}
    for name, first in untraced.items():
        assert first["state_fingerprint"] == again[name]["state_fingerprint"]
        for key in EXACT:
            assert first["metrics"][key] == again[name]["metrics"][key]


def test_probe_table_resolves_and_attributes_the_round(traced):
    for record in traced.values():
        assert record["probes_missing"] == []
        assert record["layers"]["unattributed_share"]["value"] <= 0.10


def test_fast_paths_engage_only_where_configured(traced):
    for name, record in traced.items():
        layers = record["layers"]
        fast = name == "fedavg_resnet20_fastpath"
        assert (layers["tensor.compile.replays"]["value"] > 0) == fast
        assert (layers["fl.parallel.collect_s"]["value"] > 0) == fast


def test_missing_probe_target_is_listed_not_raised(monkeypatch):
    monkeypatch.setattr(probes, "PROBES", [
        ("repro.no_such_module.Thing.method", "gone.module", None),
        ("json.JSONDecoder.no_such_method", "gone.attr", None)])
    recorder = probes.Recorder()
    probes.install(recorder)
    assert recorder.missing == [
        "repro.no_such_module.Thing.method -> gone.module",
        "json.JSONDecoder.no_such_method -> gone.attr"]


def test_compare_flags_worse_and_accepts_itself(records, tmp_path):
    base = tmp_path / "a.json"
    base.write_text(json.dumps({"commit": "x", "records": records}))
    same = subprocess.run([*RUN, "compare", str(base), str(base)],
                          capture_output=True, text=True)
    assert same.returncode == 0 and "0 worse" in same.stdout
    slower = json.loads(base.read_text())
    for record in slower["records"]:
        record["metrics"]["round_s"]["value"] *= 2
        record["metrics"]["uplink_mb_per_round"]["value"] += 1e-6
    other = tmp_path / "b.json"
    other.write_text(json.dumps(slower))
    worse = subprocess.run([*RUN, "compare", str(base), str(other)],
                           capture_output=True, text=True)
    assert worse.returncode == 1
    assert worse.stdout.count("worse") >= 2 * len(workloads.WORKLOADS)


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "fedavg_vgg11_dense", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
