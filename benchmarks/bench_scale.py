"""Population-scale benchmark: peak RSS + round wall time (DESIGN.md §13).

One family of cases, **sweep**: stub populations of 1k/10k/100k clients
(smoke: 300/1.5k) in ``materialized`` / ``streaming`` modes.  Each row
runs in a *fresh subprocess* because peak RSS (``VmHWM``, see
``repro.obs.metrics.peak_rss_bytes``) is a process-lifetime high-water
mark: measuring both modes in one process would report the max of the
two.  ``VmHWM`` does reset on ``exec``, so each spawned child reports
its own peak rather than the parent's.

That the streaming virtual-pool run is byte-identical (state and ledger)
to the materialized round loop on the real FedAvg / SPATL stack is
tier-1's: ``tests/test_fl_scale.py::TestGoldenIdentity``.

    python benchmarks/bench_scale.py --smoke --check    # the CI gate

Gated (``--check``): the two modes agree on the final-state CRC at every
population, and streaming peak RSS stays flat (within 2x) from the
smallest to the largest population — the materialized cohort is the
thing that grows.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from _harness import SEED, Bench

MAX_RSS_GROWTH = 2.0
DIM = 2048                  # stub model dimension
SAMPLE_RATIO = 0.1
ROUNDS = 2


def run_child(spec: dict) -> int:
    """One sweep row, isolated in its own process for a clean peak RSS."""
    from repro.fl import (ClientStateStore, ScaleRunner, StubClientFactory,
                          VirtualClientPool, state_fingerprint)
    from repro.fl.stub import DictModel, StubAvg, StubClient
    from repro.obs.metrics import peak_rss_bytes

    mode, population = spec["mode"], spec["population"]

    def model_fn():
        return DictModel(dim=DIM, seed=SEED)

    with tempfile.TemporaryDirectory(prefix="repro-bench-scale-") as tmp:
        if mode == "materialized":
            clients = [StubClient(cid) for cid in range(population)]
            algo = runner = StubAvg(model_fn, clients, seed=SEED,
                                    local_epochs=1, sample_ratio=SAMPLE_RATIO)
        else:
            store = ClientStateStore(Path(tmp) / "store")
            pool = VirtualClientPool(StubClientFactory(), population, store,
                                     resident_limit=64)
            algo = StubAvg(model_fn, pool.clients(), seed=SEED,
                           local_epochs=1, sample_ratio=SAMPLE_RATIO)
            runner = ScaleRunner(algo, pool=pool, eval_mode="none", wave=256,
                                 spill_dir=Path(tmp) / "spills")
        t0 = time.perf_counter()
        for r in range(ROUNDS):
            runner.run_round(r)
        wall = time.perf_counter() - t0
        crc = state_fingerprint(algo.global_model.state_dict())

    print(json.dumps({"peak_rss_bytes": peak_rss_bytes(),
                      "round_seconds": round(wall / ROUNDS, 4),
                      "state_crc": crc}))
    return 0


def sweep_rows(size: dict):
    for population in size["populations"]:
        for mode in ("materialized", "streaming"):
            spec = {"mode": mode, "population": population}
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--child", json.dumps(spec)],
                capture_output=True, text=True)
            if proc.returncode != 0:
                raise RuntimeError(f"sweep child {mode}/{population} "
                                   f"failed:\n{proc.stdout}\n{proc.stderr}")
            yield {"name": f"{mode}/{population}", **spec,
                   **json.loads(proc.stdout.strip().splitlines()[-1])}


def floors(record: dict) -> list[str]:
    failures = []
    by_pop: dict[int, dict] = {}
    for row in record["rows"]:
        by_pop.setdefault(row["population"], {})[row["mode"]] = row
    for pop, modes in sorted(by_pop.items()):
        crcs = {mode: row["state_crc"] for mode, row in modes.items()}
        if len(set(crcs.values())) > 1:
            failures.append(f"population {pop}: state CRCs diverge {crcs}")
    rss = {pop: modes["streaming"]["peak_rss_bytes"]
           for pop, modes in by_pop.items() if "streaming" in modes}
    if rss:
        lo, hi = min(rss), max(rss)
        if rss[hi] > MAX_RSS_GROWTH * rss[lo]:
            failures.append(
                f"streaming peak RSS grew {rss[hi] / rss[lo]:.2f}x from "
                f"population {lo} to {hi} (budget {MAX_RSS_GROWTH}x)")
    return failures


BENCH = Bench(
    name="scale", doc=__doc__, cases=(("sweep", sweep_rows),),
    full=dict(populations=[1000, 10000, 100000]),
    smoke=dict(populations=[300, 1500]),
    floors=floors)


def main(argv=None) -> int:
    return BENCH.main(argv)


if __name__ == "__main__":
    # ``--child SPEC`` is sweep_rows talking to itself, not a user flag.
    if sys.argv[1:2] == ["--child"]:
        raise SystemExit(run_child(json.loads(sys.argv[2])))
    raise SystemExit(main())
