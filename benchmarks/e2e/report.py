"""Printing result records and comparing two result files.

The end-to-end metric names, their direction and the bound by which a
same-seed rerun may differ live here.
"""

from __future__ import annotations

import json
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

# name -> (better, "rel" | "abs", bound) for two runs of one (workload, seed);
# a relative bound is a share of A's value.  These are not the bounds in
# ``BENCHMARK.json``, which have to cover ten *different* seeds: at one seed
# counts and accuracy are functions of (workload, seed, units) and peak RSS
# repeats to 0.1 %, so only the wall-clock metrics keep the box's 25 %.
END_TO_END = {
    "setup_s": ("lower", "rel", 0.25),
    "round_s": ("lower", "rel", 0.25),
    "samples_per_s": ("higher", "rel", 0.25),
    "cpu_s_total": ("lower", "rel", 0.25),
    "cpu_cores_busy": ("lower", "rel", 0.10),
    "peak_rss_mb": ("lower", "rel", 0.10),
    "uplink_mb_per_round": ("lower", "abs", 0.0),
    "downlink_mb_per_round": ("lower", "abs", 0.0),
    "final_val_acc": ("higher", "abs", 0.01),
    "failed_ops_ratio": ("lower", "abs", 0.0),
    "trace_overhead_ratio": ("lower", "abs", 0.05),
}


def load_benchmark() -> dict:
    return json.loads(BENCHMARK_JSON.read_text())


def print_record(record: dict) -> None:
    """Every metric of one run by name, with its unit, then the checks."""
    mode = "traced" if record["traced"] else "untraced"
    print(f"== {record['workload']} seed={record['seed']} "
          f"units={record['units']} {mode}")
    for name, m in record["metrics"].items():
        extra = ""
        if name == "round_s":
            extra = (f"   (n={record['round_s_n']} min={record['round_s_min']:.4f}"
                     f" max={record['round_s_max']:.4f})")
        print(f"  {name:<28} {m['value']:>14.6g} {m['unit']}{extra}")
    print(f"  {'state_fingerprint':<28} {record['state_fingerprint']:>#14x} "
          "crc32 (same-machine comparisons only)")
    for name, m in record.get("layers", {}).items():
        print(f"    {name:<34} {m['value']:>14.6g} {m['unit']}")
    for missing in record.get("probes_missing", []):
        print(f"  PROBE MISSING: {missing}")
    for check in record["checks"]:
        status = "ok" if check["ok"] else "FAILED"
        detail = "" if check["ok"] or not check["detail"] \
            else f" — {check['detail']}"
        print(f"  check {status:<6} {check['name']}{detail}")
    print(f"  attempted={record['attempted']} failed={record['failed']} "
          f"correct={record['correct']}")


def _verdict(name: str, a: float, b: float) -> str:
    better, kind, bound = END_TO_END[name]
    worsening = (b - a) if better == "lower" else (a - b)
    slack = bound * abs(a) if kind == "rel" else bound
    if worsening > slack:
        # One traced/untraced pair per file: on unchanged code the ratio
        # itself moves by more than its bound (README), so a single
        # difference cannot be called a regression.
        return "unresolved" if name == "trace_overhead_ratio" else "worse"
    if -worsening > slack:
        return "better"
    return "within-bound"


def compare(path_a: str, path_b: str) -> int:
    """Per workload x end-to-end metric: A, B, (B-A)/A, verdict. 1 on any worse."""
    file_a = json.loads(Path(path_a).read_text())
    file_b = json.loads(Path(path_b).read_text())

    def untraced(doc):
        return {(r["workload"], r["seed"]): r for r in doc["records"]
                if not r["traced"] and not r.get("reference")}

    runs_a, runs_b = untraced(file_a), untraced(file_b)
    same_commit = file_a.get("commit") is not None \
        and file_a.get("commit") == file_b.get("commit")
    worse = 0
    print(f"A = {path_a} (commit {file_a.get('commit')})")
    print(f"B = {path_b} (commit {file_b.get('commit')})")
    print("relative difference is (B - A) / A, base A")
    for key in sorted(runs_a.keys() & runs_b.keys()):
        a, b = runs_a[key], runs_b[key]
        print(f"== {key[0]} seed={key[1]}")
        if a["units"] != b["units"]:
            print(f"  units differ ({a['units']} vs {b['units']}): not comparable")
            worse += 1
            continue
        for name in END_TO_END:
            if name not in a["metrics"] or name not in b["metrics"]:
                continue
            va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
            verdict = _verdict(name, va, vb)
            worse += verdict == "worse"
            diff = f"{(vb - va) / va:+8.2%}" if va else f"{vb - va:+8.4g}"
            print(f"  {name:<24} {va:>12.6g} {vb:>12.6g} {diff:>10}  {verdict}")
        equal = a["state_fingerprint"] == b["state_fingerprint"]
        # Between commits a changed fingerprint may be a deliberate change of
        # arithmetic; within one commit it is lost determinism.
        fp_verdict = "equal" if equal else \
            ("worse" if same_commit else "differs")
        worse += fp_verdict == "worse"
        print(f"  {'state_fingerprint':<24} {a['state_fingerprint']:>#12x} "
              f"{b['state_fingerprint']:>#12x} {'':>10}  {fp_verdict}")
    missing = sorted(runs_a.keys() ^ runs_b.keys())
    for key in missing:
        print(f"only in one file: {key[0]} seed={key[1]}")
    print(f"{worse} worse")
    return 1 if worse else 0
