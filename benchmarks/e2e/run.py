#!/usr/bin/env python3
"""End-to-end benchmark of the FL stack: five workloads, one schema.

    python3 benchmarks/e2e/run.py                      # all workloads, both passes
    python3 benchmarks/e2e/run.py --workload NAME --seed S [--traced] [--smoke]
    python3 benchmarks/e2e/run.py --workload NAME --seed S --seconds N --trace 0|1
    python3 benchmarks/e2e/run.py --calibrate
    python3 benchmarks/e2e/run.py compare A.json B.json

Every measured run happens in a fresh subprocess of this file (see
``child.py``) with BLAS pinned to one thread.  Without ``--trace`` both
passes run — untraced for the end-to-end metrics, traced for the
per-layer ones — and the pair yields ``trace_overhead_ratio`` and the
traced == untraced checks.  With ``--workload`` and ``--trace`` given, the
last line printed is the one-object result the benchmark driver reads.
See README.md in this directory.
"""

from __future__ import annotations

import os

# Before NumPy is imported anywhere (this process never imports it; every
# child inherits the environment): one BLAS thread.  On the 2-core box the
# 2-worker pool ran 9-45 s rounds with default threads against 1.2 s pinned.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import report       # noqa: E402
import workloads    # noqa: E402

CALIBRATION = HERE / "calibration.json"
TMP_ROOT = ROOT / ".bench_e2e_tmp"
DEFAULT_OUT = HERE / "results" / "latest.json"
CALIBRATION_SEEDS = (0, 1, 2)
SETUP_RUNS = 3            # set-ups per untraced run; setup_s is their median
CHILD_TIMEOUT_S = 170


def _commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _child(spec: dict) -> dict:
    """Run one child to completion and return the record it printed."""
    spec = dict(spec, tmp_root=str(TMP_ROOT), t0=time.time())
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--child", json.dumps(spec)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child {spec['workload']} seed {spec['seed']} "
                           f"exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_calibration() -> dict | None:
    return json.loads(CALIBRATION.read_text()) if CALIBRATION.exists() else None


def measure(workload: workloads.Workload, seed: int, seconds: float,
            traced: bool, smoke: bool = False, spans_out: str | None = None,
            calibration: dict | None = None) -> dict:
    """One complete run: set-ups, timed region, output checks."""
    units = 1 if smoke else workloads.units_for(workload, seconds)
    spec = dict(workload=workload.name, seed=seed, units=units, traced=traced,
                spans_out=spans_out)
    setups = []
    if not traced and not smoke:
        setups = [_child(dict(spec, setup_only=True))["setup_s"]
                  for _ in range(SETUP_RUNS - 1)]
    record = _child(spec)
    setups.append(record["metrics"]["setup_s"]["value"])
    record["setup_s_runs"] = setups
    record["metrics"]["setup_s"]["value"] = statistics.median(setups)
    _check_against_calibration(record, calibration)
    record["correct"] = record["failed"] == 0
    return record


def _add_check(record: dict, name: str, ok: bool, detail: str) -> None:
    record["checks"].append({"name": name, "ok": bool(ok), "detail": detail})
    record["attempted"] += 1
    record["failed"] += not ok
    record["metrics"]["failed_ops_ratio"]["value"] = \
        record["failed"] / record["attempted"]


def _check_against_calibration(record: dict, calibration: dict | None) -> None:
    """Accuracy floor and fast-path reference, where calibration covers the run.

    Floors and references are recorded for the calibration seeds at the
    calibrated run length only: accuracy after a fixed number of rounds
    ranges over 0.4 across seeds, so no floor holds for an arbitrary seed.
    """
    name, metrics = record["workload"], record["metrics"]
    if calibration is None or record["seed"] not in calibration["seeds"] \
            or record["units"] != workloads.units_for(
                workloads.BY_NAME[name], calibration["seconds"]):
        return
    acc = metrics["final_val_acc"]["value"]
    floor = calibration["floors"][name]
    _add_check(record, "final_val_acc >= calibrated floor", acc >= floor,
               f"{acc:.4f} < {floor:.4f}")
    ref = calibration["references"].get(name, {}).get(str(record["seed"]))
    if ref is None:
        return
    _add_check(record, "bytes equal the serial-eager reference",
               metrics["uplink_mb_per_round"]["value"] == ref["uplink_mb_per_round"]
               and metrics["downlink_mb_per_round"]["value"]
               == ref["downlink_mb_per_round"], "ledger differs from reference")
    if record["env"] == calibration["env"]:
        _add_check(record, "state fingerprint equals the serial-eager reference",
                   record["state_fingerprint"] == ref["state_fingerprint"],
                   f"{record['state_fingerprint']:#x} vs "
                   f"{ref['state_fingerprint']:#x}")
    else:
        # Bitwise state is only comparable on the calibrating machine/BLAS.
        _add_check(record, "final_val_acc within 0.02 of the serial-eager "
                   "reference (other machine: fingerprint not compared)",
                   abs(acc - ref["final_val_acc"]) <= 0.02,
                   f"{acc:.4f} vs {ref['final_val_acc']:.4f}")


def _spans_path(spans_dir: str | None, workload, seed: int) -> str | None:
    if not spans_dir:
        return None
    os.makedirs(spans_dir, exist_ok=True)
    return os.path.join(spans_dir, f"{workload.name}-seed{seed}.jsonl")


def measure_pair(workload, seed, seconds, smoke, calibration,
                 spans_dir: str | None = None) -> list[dict]:
    """Untraced then traced run of one (workload, seed), cross-checked."""
    plain = measure(workload, seed, seconds, False, smoke,
                    calibration=calibration)
    traced = measure(workload, seed, seconds, True, smoke,
                     _spans_path(spans_dir, workload, seed), calibration)
    plain["metrics"]["trace_overhead_ratio"] = {
        "value": traced["timed_wall_s"] / plain["timed_wall_s"] - 1.0,
        "unit": "fraction"}
    same = all(
        plain["metrics"][k]["value"] == traced["metrics"][k]["value"]
        for k in ("uplink_mb_per_round", "downlink_mb_per_round",
                  "final_val_acc")) \
        and plain["state_fingerprint"] == traced["state_fingerprint"]
    for record in (plain, traced):
        _add_check(record, "traced run equals untraced run "
                   "(fingerprint, bytes, accuracy)", same,
                   f"{plain['state_fingerprint']:#x} vs "
                   f"{traced['state_fingerprint']:#x}")
        record["correct"] = record["failed"] == 0
    return [plain, traced]


def contract_line(record: dict, traced: bool) -> str:
    """The result object the benchmark driver reads from the last line."""
    bench = report.load_benchmark()
    source = dict(record["metrics"])
    source.update(record.get("layers", {}))
    wanted = bench["per_layer" if traced else "end_to_end"]
    return json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: source[m["name"]] for m in wanted}})


def write_results(path: Path, records: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"commit": _commit(), "records": records},
                               indent=1) + "\n")
    print(f"wrote {path}")


def calibrate(seconds: float) -> int:
    """Seeds 0, 1, 2 once: accuracy floors and the fast path's reference."""
    accs: dict[str, dict] = {}
    references: dict[str, dict] = {}
    env = None
    for workload in workloads.WORKLOADS:
        units = workloads.units_for(workload, seconds)
        for seed in CALIBRATION_SEEDS:
            record = measure(workload, seed, seconds, traced=False)
            report.print_record(record)
            env = record["env"]
            accs.setdefault(workload.name, {})[str(seed)] = \
                record["metrics"]["final_val_acc"]["value"]
            if workload.config.get("workers", 1) == 1 \
                    and not workload.config.get("compile"):
                continue
            ref = _child(dict(workload=workload.name, seed=seed, units=units,
                              traced=False, reference=True))
            references.setdefault(workload.name, {})[str(seed)] = {
                "state_fingerprint": ref["state_fingerprint"],
                **{k: ref["metrics"][k]["value"]
                   for k in ("final_val_acc", "uplink_mb_per_round",
                             "downlink_mb_per_round")}}
    CALIBRATION.write_text(json.dumps({
        "seconds": seconds, "seeds": list(CALIBRATION_SEEDS), "env": env,
        "floors": {name: min(by_seed.values()) - 0.03
                   for name, by_seed in accs.items()},
        "final_val_acc": accs, "references": references}, indent=1) + "\n")
    print(f"wrote {CALIBRATION}")
    return 0


def main(argv: list[str]) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: {ROOT / 'src' / 'repro'} not found — the benchmark "
              "measures the repro package of the checkout it sits in",
              file=sys.stderr)
        return 2
    if argv[:1] == ["--child"]:
        sys.path.insert(0, str(ROOT / "src"))
        import child
        return child.main(argv[1])
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return report.compare(argv[1], argv[2])

    run_seconds = report.load_benchmark()["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.BY_NAME))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=run_seconds,
                        help="timed seconds per run on the sizing box "
                             f"(default {run_seconds}, from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="run one pass only: 0 untraced, 1 traced")
    parser.add_argument("--traced", action="store_const", const=1,
                        dest="trace", help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="one timed unit per workload, one set-up")
    parser.add_argument("--calibrate", action="store_true",
                        help="rewrite calibration.json from seeds 0, 1, 2")
    parser.add_argument("--out", help="result file (default: "
                        f"{DEFAULT_OUT.relative_to(ROOT)} for full runs)")
    parser.add_argument("--spans-dir", help="write each traced run's spans "
                        "here as JSON lines")
    args = parser.parse_args(argv)

    if args.calibrate:
        return calibrate(args.seconds)
    calibration = load_calibration()
    chosen = [workloads.BY_NAME[args.workload]] if args.workload \
        else workloads.WORKLOADS
    records = []
    for workload in chosen:
        if args.trace is None:
            new = measure_pair(workload, args.seed, args.seconds, args.smoke,
                               calibration, args.spans_dir)
        else:
            spans_out = _spans_path(args.spans_dir if args.trace else None,
                                    workload, args.seed)
            new = [measure(workload, args.seed, args.seconds, bool(args.trace),
                           args.smoke, spans_out, calibration)]
        for record in new:
            report.print_record(record)
        records.extend(new)
    if args.out or (not args.workload and not args.smoke):
        write_results(Path(args.out) if args.out else DEFAULT_OUT, records)
    try:
        TMP_ROOT.rmdir()          # each child removed its own directory
    except OSError:
        pass
    if args.workload and args.trace is not None:
        # The driver's invocation: the verdict is in the printed object.
        print(contract_line(records[0], bool(args.trace)))
        return 0
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
