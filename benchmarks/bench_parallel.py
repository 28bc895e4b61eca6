"""Round wall-time benchmark across execution engines (DESIGN.md §9/§14).

Runs the same FedAvg workload under every requested executor — the
in-process serial loop and process pools of increasing width — verifies
every run is byte-identical to serial, and appends one record per
invocation to ``BENCH_parallel.json`` at the repo root::

    python benchmarks/bench_parallel.py                    # default sweep
    python benchmarks/bench_parallel.py --executors serial process:4 \
        --clients 8 --rounds 3 --scale tiny
    python benchmarks/bench_parallel.py --smoke --check    # CI gate

Executor specs: ``serial``, ``process:N`` (pool of N workers).  Speedup
is reported relative to the serial run.  With fewer usable cores than
workers expect ``process`` speedup < 1 — the measurement quantifies the
fan-out overhead DESIGN.md §9's guidance is based on; with a core per
worker the pool must win (DESIGN.md §14).

``--check`` turns measured floors into an exit code (see
:func:`check_rows`); ``--smoke`` shrinks the workload for CI.  This
script is deliberately *not* a pytest-benchmark test: one invocation
produces the whole curve, and the tier-1 suite already asserts the
byte-identity the curve depends on.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import time
from pathlib import Path

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"


def process_floor(workers: int, cpus_usable: int) -> float:
    """``--check`` floor on a ``process:N`` row's ``speedup_vs_serial``.

    A pool with a core per worker must beat serial (that is its reason
    to exist).  With fewer usable cores than workers it loses to fan-out
    overhead by design, so the floor only catches pathological
    regressions (~0.88x measured on one CPU).
    """
    return 1.0 if cpus_usable >= workers else 0.70


def parse_spec(spec: str) -> dict:
    """``serial`` | ``process:N``."""
    kind, _, n = spec.partition(":")
    if kind not in ("serial", "process"):
        raise ValueError(f"unknown executor spec {spec!r}")
    if kind == "process" and not n:
        raise ValueError(f"process spec needs a width, e.g. process:2 "
                         f"(got {spec!r})")
    return {"spec": spec, "kind": kind, "workers": int(n) if n else 1}


def run_once(cfg, spec: dict) -> tuple[float, bytes, list]:
    """One full run under one executor; returns (wall_s, state, accs)."""
    from repro.experiments.configs import make_algorithm, make_setting
    from repro.fl.comm import serialize_state
    from repro.fl.parallel import make_executor

    model_fn, clients = make_setting(cfg)
    algo = make_algorithm("fedavg", cfg, model_fn, clients,
                          executor=make_executor(spec["workers"]))
    try:
        t0 = time.perf_counter()
        results = [algo.run_round(r) for r in range(cfg.rounds)]
        wall = time.perf_counter() - t0
        state = serialize_state(algo.global_model.state_dict())
    finally:
        algo.close()
    return wall, state, [r.avg_val_acc for r in results]


def check_rows(rows: list[dict], cpus_usable: int,
               floors: dict | None = None) -> list[str]:
    """Regression gate over one sweep's rows; returns human-readable errors.

    Every row must be byte-identical to serial, and every ``process:N``
    row must reach :func:`process_floor` for ``cpus_usable`` (``floors``
    maps an engine kind to a floor that replaces the computed one).
    Pure function so tests can feed it synthetic rows.
    """
    floors = floors or {}
    errors = []
    for row in rows:
        spec = row["executor"]
        if not row.get("byte_identical_to_serial", False):
            errors.append(f"{spec}: final state diverged from serial")
            continue
        parsed = parse_spec(spec)
        floor = floors.get(parsed["kind"])
        if floor is None and parsed["kind"] == "process":
            floor = process_floor(parsed["workers"], cpus_usable)
        if floor is not None and row["speedup_vs_serial"] < floor:
            errors.append(f"{spec}: speedup {row['speedup_vs_serial']:.3f}x "
                          f"below the {floor:.2f}x floor")
    return errors


def main(argv=None) -> int:
    """Run the sweep, verify byte-identity, append to BENCH_parallel.json."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--scale", default=os.environ.get(
        "REPRO_BENCH_SCALE", "tiny"), choices=["tiny", "small", "paper"])
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--local-epochs", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--executors", nargs="+",
                        default=["serial", "process:2"],
                        help="executor specs to sweep (serial is always "
                             "run first as the baseline)")
    parser.add_argument("--smoke", action="store_true",
                        help="small fast workload for CI (overrides "
                             "--clients/--rounds/--local-epochs)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero unless every row passes "
                             "check_rows() (byte-identity + speedup floors)")
    parser.add_argument("--out", default=None,
                        help="JSON history file to append to (default: "
                             "BENCH_parallel.json; with --smoke, "
                             "bench_parallel_smoke.json in the cwd)")
    args = parser.parse_args(argv)
    from _harness import resolve_out
    out = resolve_out(args.out, OUT_PATH, args.smoke)

    if args.smoke:
        args.clients, args.rounds, args.local_epochs = 8, 3, 1

    from repro.experiments.configs import config_for
    cfg = config_for(args.scale, n_clients=args.clients, sample_ratio=1.0,
                     rounds=args.rounds, local_epochs=args.local_epochs,
                     seed=args.seed)

    specs = [parse_spec(s) for s in args.executors]
    if not any(s["kind"] == "serial" for s in specs):
        specs.insert(0, parse_spec("serial"))
    specs.sort(key=lambda s: s["kind"] != "serial")   # baseline first

    rows, baseline_wall, baseline_state = [], None, None
    for spec in specs:
        wall, state, accs = run_once(cfg, spec)
        if baseline_state is None:
            baseline_wall, baseline_state = wall, state
        identical = state == baseline_state
        rows.append({
            "executor": spec["spec"],
            "workers": spec["workers"],
            "wall_s": round(wall, 4),
            "wall_s_per_round": round(wall / cfg.rounds, 4),
            "speedup_vs_serial": round(baseline_wall / wall, 4),
            "byte_identical_to_serial": identical,
            "final_acc": round(accs[-1], 4),
        })
        status = "OK" if identical else "STATE MISMATCH"
        print(f"{spec['spec']:16s}  wall={wall:8.2f}s  "
              f"speedup={baseline_wall / wall:5.2f}x  [{status}]")

    from repro.obs.metrics import blas_env, observe_peak_rss
    cpus_usable = len(os.sched_getaffinity(0))
    record = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "scale": args.scale,
        "config": {"clients": args.clients, "rounds": args.rounds,
                   "local_epochs": args.local_epochs, "seed": args.seed,
                   "model": cfg.model},
        "cpu_count": os.cpu_count(),
        "cpus_usable": cpus_usable,
        "python": platform.python_version(),
        "peak_rss_bytes": observe_peak_rss(),
        "env": blas_env(),
        "results": rows,
    }
    history = []
    if out.exists():
        try:
            history = json.loads(out.read_text())
        except (json.JSONDecodeError, OSError):
            history = []                        # corrupt file: restart history
    history.append(record)
    out.write_text(json.dumps(history, indent=2) + "\n")
    print(f"appended to {out}")

    if args.check:
        errors = check_rows(rows, cpus_usable)
        for err in errors:
            print(f"CHECK FAILED: {err}")
        return 1 if errors else 0
    return 0 if all(r["byte_identical_to_serial"] for r in rows) else 1


if __name__ == "__main__":
    raise SystemExit(main())
