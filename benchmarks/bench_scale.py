"""Population-scale benchmark: peak RSS + round wall time (DESIGN.md §13).

Two families of cases, written to ``BENCH_scale.json`` at the repo root:

* **identity** — the tiny real setting (resnet20 on synthetic CIFAR)
  run through ``ScaleRunner`` with a virtual-client pool, for FedAvg and
  SPATL; each case records whether the final global state and comm
  ledger are byte-identical to the materialized ``run_round`` baseline.
* **sweep** — stub populations of 1k/10k/100k clients (smoke: 300/1.5k)
  in ``materialized`` / ``streaming`` modes.  Each case runs in a *fresh
  subprocess* because peak RSS (``VmHWM``, see
  ``repro.obs.metrics.peak_rss_bytes``) is a process-lifetime high-water
  mark: measuring both modes in one process would report the max of the
  two.  ``VmHWM`` does reset on ``exec``, so each spawned child reports
  its own peak rather than the parent's.  The gate checks that the modes
  agree on the final-state CRC at every population and that streaming
  peak RSS stays flat (within 2x) from the smallest to the largest
  population — the materialized cohort is the thing that grows.

Usage::

    python benchmarks/bench_scale.py                 # full sweep
    python benchmarks/bench_scale.py --smoke --check # CI gate
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
# Self-contained path guard: --child subprocesses re-exec this file and
# must find repro without relying on the caller's PYTHONPATH.
if str(REPO / "src") not in sys.path:
    sys.path.insert(0, str(REPO / "src"))

import numpy as np  # noqa: E402

OUT_PATH = REPO / "BENCH_scale.json"


# ------------------------------------------------------------- identity

def _tiny_setting(n_clients: int, n_samples: int):
    from repro.data import SyntheticCIFAR10, dirichlet_partition
    from repro.models import build_model
    ds = SyntheticCIFAR10(n_samples=n_samples, size=12, seed=99)
    parts = dirichlet_partition(ds.y, n_clients, beta=0.5, seed=3)

    def model_fn():
        return build_model("resnet20", width_mult=0.2, input_size=12,
                           seed=11)

    return ds, parts, model_fn


def identity_case(algo_name: str, smoke: bool) -> dict:
    """Streaming virtual-pool run vs materialized baseline."""
    from repro.core import SPATL, StaticSaliencyPolicy
    from repro.fl import (ClientStateStore, FedAvg, ScaleRunner,
                          ShardedClientFactory, VirtualClientPool,
                          make_federated_clients, serialize_state)

    rounds = 1 if smoke else 2
    ds, parts, model_fn = _tiny_setting(4, 400 if smoke else 800)

    def build(clients):
        kw = dict(lr=0.05, local_epochs=1, seed=0, sample_ratio=0.7)
        if algo_name == "spatl":
            return SPATL(model_fn, clients,
                         selection_policy=StaticSaliencyPolicy(0.3), **kw)
        return FedAvg(model_fn, clients, **kw)

    base = build(make_federated_clients(ds, parts, batch_size=32, seed=5))
    for r in range(rounds):
        base.run_round(r)
    base_state = serialize_state(base.global_model.state_dict())

    with tempfile.TemporaryDirectory(prefix="repro-bench-scale-") as tmp:
        store = ClientStateStore(Path(tmp) / "store")
        factory = ShardedClientFactory(dataset=ds, parts=parts,
                                       batch_size=32, seed=5)
        pool = VirtualClientPool(factory, len(parts), store)
        algo = build(pool.clients())
        runner = ScaleRunner(algo, pool=pool,
                             spill_dir=Path(tmp) / "spills")
        t0 = time.perf_counter()
        for r in range(rounds):
            runner.run_round(r)
        wall = time.perf_counter() - t0
        state = serialize_state(algo.global_model.state_dict())

    return {"kind": "identity",
            "name": f"identity/{algo_name}",
            "algorithm": algo_name, "rounds": rounds,
            "byte_identical": state == base_state,
            "ledger_equal":
                algo.ledger.total_bytes() == base.ledger.total_bytes(),
            "wall_s": round(wall, 4)}


# ---------------------------------------------------------------- sweep

def run_child(spec: dict) -> int:
    """One sweep case, isolated in its own process for a clean peak RSS."""
    from repro.fl import (ClientStateStore, ScaleRunner, StubClientFactory,
                          VirtualClientPool, state_fingerprint)
    from repro.fl.stub import DictModel, StubAvg, StubClient
    from repro.obs.metrics import peak_rss_bytes

    mode, population = spec["mode"], spec["population"]
    rounds, seed, dim = spec["rounds"], spec["seed"], spec["dim"]

    def model_fn():
        return DictModel(dim=dim, seed=seed)

    with tempfile.TemporaryDirectory(prefix="repro-bench-scale-") as tmp:
        if mode == "materialized":
            clients = [StubClient(cid) for cid in range(population)]
            algo = StubAvg(model_fn, clients, seed=seed, local_epochs=1,
                           sample_ratio=spec["sample_ratio"])
            t0 = time.perf_counter()
            for r in range(rounds):
                algo.run_round(r)
            wall = time.perf_counter() - t0
        else:
            store = ClientStateStore(Path(tmp) / "store")
            pool = VirtualClientPool(StubClientFactory(), population, store,
                                     resident_limit=64)
            algo = StubAvg(model_fn, pool.clients(), seed=seed,
                           local_epochs=1,
                           sample_ratio=spec["sample_ratio"])
            runner = ScaleRunner(algo, pool=pool,
                                 eval_mode="none", wave=256,
                                 spill_dir=Path(tmp) / "spills")
            t0 = time.perf_counter()
            for r in range(rounds):
                runner.run_round(r)
            wall = time.perf_counter() - t0
        crc = state_fingerprint(algo.global_model.state_dict())

    print(json.dumps({"peak_rss_bytes": peak_rss_bytes(),
                      "round_seconds": round(wall / rounds, 4),
                      "state_crc": crc}))
    return 0


def sweep_case(mode: str, population: int, args) -> dict:
    spec = {"mode": mode, "population": population, "dim": args.dim,
            "sample_ratio": args.sample_ratio, "rounds": args.rounds,
            "seed": args.seed}
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--child", json.dumps(spec)],
        capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"sweep child {mode}/{population} failed:\n"
                           f"{proc.stdout}\n{proc.stderr}")
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"kind": "sweep", "name": f"sweep/{mode}/{population}",
            "mode": mode, "population": population, **child}


# ----------------------------------------------------------------- gate

def check_gate(record: dict) -> list[str]:
    """Failures of the current record (self-contained, no baseline file)."""
    failures = []
    for c in record["cases"]:
        if c["kind"] == "identity" and not (c["byte_identical"]
                                            and c["ledger_equal"]):
            failures.append(f"{c['name']}: streaming != materialized")
    sweep = [c for c in record["cases"] if c["kind"] == "sweep"]
    by_pop: dict[int, dict] = {}
    for c in sweep:
        by_pop.setdefault(c["population"], {})[c["mode"]] = c["state_crc"]
    for pop, crcs in sorted(by_pop.items()):
        if len(set(crcs.values())) > 1:
            failures.append(f"population {pop}: state CRCs diverge {crcs}")
    rss = {c["population"]: c["peak_rss_bytes"] for c in sweep
           if c["mode"] == "streaming"}
    if rss:
        lo, hi = min(rss), max(rss)
        if rss[hi] > 2.0 * rss[lo]:
            failures.append(
                f"streaming peak RSS grew {rss[hi] / rss[lo]:.2f}x from "
                f"population {lo} to {hi} (budget 2.0x)")
    return failures


# ----------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run: 300/1500 populations, 1 round")
    parser.add_argument("--check", action="store_true",
                        help="fail on identity/CRC/RSS-growth violations")
    parser.add_argument("--populations", type=int, nargs="+", default=None,
                        help="override the population sweep")
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--dim", type=int, default=2048,
                        help="stub model dimension for the sweep")
    parser.add_argument("--sample-ratio", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None,
                        help="record to write (default: BENCH_scale.json; "
                             "with --smoke, bench_scale_smoke.json in the "
                             "cwd)")
    parser.add_argument("--child", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child is not None:
        return run_child(json.loads(args.child))
    from _harness import resolve_out
    out = resolve_out(args.out, OUT_PATH, args.smoke)

    populations = args.populations or (
        [300, 1500] if args.smoke else [1000, 10000, 100000])

    cases = []
    for algo_name in ("fedavg", "spatl"):
        case = identity_case(algo_name, args.smoke)
        cases.append(case)
        status = "OK" if case["byte_identical"] else "STATE MISMATCH"
        print(f"{case['name']:<28} wall={case['wall_s']:7.2f}s "
              f"[{status}]")

    for population in populations:
        for mode in ("materialized", "streaming"):
            case = sweep_case(mode, population, args)
            cases.append(case)
            print(f"{case['name']:<28} "
                  f"rss={case['peak_rss_bytes'] / 2**20:8.1f}MiB  "
                  f"round={case['round_seconds']:7.2f}s  "
                  f"crc={case['state_crc']:#010x}")

    from repro.obs.metrics import blas_env, observe_peak_rss
    record = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "smoke": bool(args.smoke),
        "config": {"populations": populations, "rounds": args.rounds,
                   "dim": args.dim, "sample_ratio": args.sample_ratio,
                   "seed": args.seed},
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "peak_rss_bytes": observe_peak_rss(),
        "env": blas_env(),
        "cases": cases,
    }
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out}")

    if args.check:
        failures = check_gate(record)
        if failures:
            for failure in failures:
                print(f"CHECK FAILED: {failure}")
            return 1
        print("all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
