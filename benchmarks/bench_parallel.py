"""Round wall-time benchmark across execution engines (DESIGN.md §9/§14).

Runs the same FedAvg workload (resnet20 at the tiny scale, 8 clients x
3 rounds, full participation) under every requested executor — the
in-process serial loop and process pools of increasing width — and
records each run's wall time, its speedup over serial, whether its
final global state is byte-identical to serial's and, for a pool, its
workers' largest peak RSS (``worker_peak_rss_mb``)::

    python benchmarks/bench_parallel.py --executors serial process:4
    python benchmarks/bench_parallel.py --smoke --check    # the CI gate

Executor specs: ``serial``, ``process:N`` (pool of N workers); serial
always runs, first, as the baseline.  With fewer usable cores than
workers expect ``process`` speedup < 1 — the measurement quantifies the
fan-out overhead DESIGN.md §9's guidance is based on; with a core per
worker the pool must win (DESIGN.md §14).  The workload is the same in
smoke and full runs: a shorter one would mostly time pool start-up.

``--check`` turns measured floors into an exit code (see
:func:`check_rows`), and holds ``worker_peak_rss_mb`` to 1.1x the last
full record's.  One invocation produces the whole curve, and the
tier-1 suite already asserts the byte-identity the curve depends on.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

# tests/test_bench_parallel_check.py loads this file by path, without
# benchmarks/ (where _harness lives) on sys.path as a script run has it.
if str(Path(__file__).resolve().parent) not in sys.path:
    sys.path.append(str(Path(__file__).resolve().parent))

from _harness import SEED, Bench, Gate  # noqa: E402

WORKLOAD = dict(clients=8, rounds=3)


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


def run_once(cfg, spec: dict) -> tuple[float, bytes, list, float | None]:
    """One full run under one executor; returns (wall_s, state, accs,
    worker_peak_rss_mb).  The last is the largest ``VmHWM`` over the
    pool's workers, read before shutdown (``None`` for serial)."""
    from repro.experiments import build
    from repro.fl.comm import serialize_state
    from repro.fl.parallel import make_executor
    from repro.obs.metrics import peak_rss_bytes

    algo = build(cfg, "fedavg", executor=make_executor(spec["workers"]))
    worker_peak = None
    try:
        t0 = time.perf_counter()
        results = [algo.run_round(r) for r in range(cfg.rounds)]
        wall = time.perf_counter() - t0
        state = serialize_state(algo.global_model.state_dict())
        pool = getattr(algo.executor, "_pool", None)
        if pool is not None:     # the ProcessPoolExecutor's pid -> Process
            peaks = [peak_rss_bytes(pid) for pid in pool._processes]
            if peaks and 0 not in peaks:
                worker_peak = round(max(peaks) / 2 ** 20, 2)
    finally:
        algo.close()
    return wall, state, [r.avg_val_acc for r in results], worker_peak


def sweep_rows(size: dict):
    from repro.experiments.configs import config_for
    cfg = config_for("tiny", n_clients=size["clients"], sample_ratio=1.0,
                     rounds=size["rounds"], local_epochs=1, seed=SEED)
    specs = [parse_spec(s) for s in size["executors"]]
    if not any(s["kind"] == "serial" for s in specs):
        specs.insert(0, parse_spec("serial"))
    specs.sort(key=lambda s: s["kind"] != "serial")   # baseline first

    serial_wall = serial_state = None
    for spec in specs:
        wall, state, accs, worker_peak = run_once(cfg, spec)
        if serial_state is None:
            serial_wall, serial_state = wall, state
        row = {"name": spec["spec"], "executor": spec["spec"],
               "workers": spec["workers"], "wall_s": round(wall, 4),
               "wall_s_per_round": round(wall / cfg.rounds, 4),
               "speedup_vs_serial": round(serial_wall / wall, 4),
               "byte_identical_to_serial": state == serial_state,
               "final_acc": round(accs[-1], 4)}
        if worker_peak is not None:
            row["worker_peak_rss_mb"] = worker_peak
        yield row


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


BENCH = Bench(
    name="parallel", doc=__doc__, cases=(("sweep", sweep_rows),),
    full=WORKLOAD, smoke=WORKLOAD,
    # A worker's replica is views of the memory the fork shares: a second
    # copy of its arrays puts the worker peak ~16 % over the baseline.
    gates=(Gate("sweep", "worker_peak_rss_mb", factor=1.1),),
    # judged by the cores of the box that measured the record
    floors=lambda record: check_rows(record["rows"],
                                     record["env"]["cpus_usable"]),
    # passed by README and scraped by tools/docs_check.py
    flags=lambda parser: parser.add_argument(
        "--executors", nargs="+", default=["serial", "process:2"],
        help="executor specs to sweep"))


def main(argv=None) -> int:
    return BENCH.main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
