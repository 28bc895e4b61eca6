"""Async runtime benchmark: determinism, sync equivalence, speedup, parity.

Exercises the event-driven asynchronous runtime (DESIGN.md §12) along the
four axes its acceptance rests on:

- **determinism** — the same seed twice, under a hostile profile
  (stragglers + churn + crashes + duplicate deliveries), must produce the
  byte-identical final global state, identical counters, and identical
  virtual end time;
- **sync_equiv** — with ``buffer_k == cohort``, ``max_inflight >=
  cohort``, uniform durations, and no churn, the async runtime must
  reproduce the synchronous round loop **bitwise** (state and ledger) for
  both FedAvg and SPATL;
- **speedup** — under a straggler-heavy profile, async must reach the
  sync run's final training loss in less *virtual* wall-time
  (``repro.experiments.async_convergence``, deterministic — the gate is
  stable across machines);
- **ledger_exact** — a traced async run's serialize/deserialize span
  byte totals must equal each other and the ledger's total exactly;
- **loop** — pure event-loop overhead (stub algorithm, no neural net):
  wall time per processed event, the only *timed* metric and the only
  one compared against the committed baseline with slack.

Writes the record to ``BENCH_async.json`` at the repo root (the
committed copy is the regression baseline)::

    python benchmarks/bench_async.py               # full run
    python benchmarks/bench_async.py --smoke       # CI-sized
    python benchmarks/bench_async.py --smoke --check  # + regression gate

``--check`` fails on any broken invariant (those never depend on the
baseline), on counter drift vs the committed baseline (event counts are
seed-deterministic and machine-independent), and on event-loop overhead
beyond ``--check-factor`` of the baseline plus an absolute noise floor.
Model-state fingerprints are recorded for *same-machine* comparison (the
``determinism`` case runs the same seed twice in-process and ``--check``
fails unless the two runs are identical) but are never checked against
the committed baseline — BLAS differences make training floats
machine-specific.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import platform
import time
from pathlib import Path

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_async.json"

HOSTILE = dict(jitter=0.3, straggler_prob=0.4, slowdown=6.0,
               arrival_spread=1.0, churn_prob=0.15, crash_prob=0.05,
               duplicate_prob=0.2)


def _final_crc(algo) -> int:
    from repro.fl import state_fingerprint
    return state_fingerprint(dict(algo.global_model.state_dict()))


def determinism_case(steps: int, clients: int, samples: int,
                     seed: int) -> dict:
    """Same seed twice under the hostile profile: everything must match."""
    from repro.experiments.configs import config_for, make_algorithm, \
        make_setting
    from repro.fl import AsyncConfig, AsyncFederatedRunner, AsyncProfile

    cfg = config_for("tiny", n_clients=clients, n_samples=samples,
                     local_epochs=1, sample_ratio=1.0, seed=seed)
    profile = AsyncProfile(seed=seed, **HOSTILE)
    acfg = AsyncConfig(buffer_k=2, staleness_alpha=0.5,
                       max_inflight=max(2, clients // 2),
                       max_queue=clients, commit_deadline=8.0)

    def one_run():
        model_fn, cl = make_setting(cfg)
        algo = make_algorithm("fedavg", cfg, model_fn, cl)
        runner = AsyncFederatedRunner(algo, profile, acfg)
        runner.run(steps=steps)
        return (_final_crc(algo), dict(runner.counters),
                runner.clock.now, algo.ledger.total_bytes())

    crc_a, counters_a, t_a, bytes_a = one_run()
    crc_b, counters_b, t_b, bytes_b = one_run()
    return {
        "name": "determinism",
        "steps": steps,
        "identical": (crc_a == crc_b and counters_a == counters_b
                      and t_a == t_b and bytes_a == bytes_b),
        "state_crc": crc_a,            # same-machine comparison only
        "counters": counters_a,
        "virtual_time": t_a,
        "ledger_bytes": bytes_a,
    }


def sync_equiv_case(algo_name: str, rounds: int, clients: int,
                    samples: int, seed: int) -> dict:
    """buffer_k == cohort + uniform durations must reproduce sync bitwise."""
    from repro.experiments.configs import config_for, make_algorithm, \
        make_setting
    from repro.fl import AsyncConfig, AsyncFederatedRunner, AsyncProfile
    from repro.fl.comm import serialize_state

    cfg = config_for("tiny", n_clients=clients, n_samples=samples,
                     local_epochs=1, sample_ratio=1.0, seed=seed)
    model_fn, cl = make_setting(cfg)
    sync_algo = make_algorithm(algo_name, cfg, model_fn, cl)
    sync_algo.run(rounds)
    model_fn, cl = make_setting(cfg)
    async_algo = make_algorithm(algo_name, cfg, model_fn, cl)
    runner = AsyncFederatedRunner(
        async_algo, AsyncProfile(seed=seed),
        AsyncConfig(buffer_k=clients, max_inflight=clients))
    results = runner.run(steps=rounds)
    return {
        "name": f"sync_equiv.{algo_name}",
        "rounds": rounds,
        "byte_identical": (
            serialize_state(dict(sync_algo.global_model.state_dict()))
            == serialize_state(dict(async_algo.global_model.state_dict()))),
        "ledger_equal": (sync_algo.ledger.total_bytes()
                         == async_algo.ledger.total_bytes()),
        "zero_staleness": all(r.max_staleness == 0 for r in results),
    }


def speedup_case(rounds: int, clients: int, samples: int, seed: int) -> dict:
    """Straggler-heavy profile: async time-to-target < sync (virtual)."""
    from repro.experiments.async_convergence import async_convergence
    from repro.experiments.configs import config_for

    cfg = config_for("tiny", n_clients=clients, n_samples=samples,
                     local_epochs=1, sample_ratio=1.0, seed=seed,
                     rounds=rounds)
    result = async_convergence(cfg, "fedavg")
    return {
        "name": "straggler_speedup",
        "rounds": rounds,
        "speedup": round(result["speedup"], 4),
        "sync_time_to_target": round(result["sync"]["time_to_target"], 4),
        "async_time_to_target": round(result["async"]["time_to_target"], 4),
        "target_reached": math.isfinite(result["async"]["time_to_target"]),
    }


def ledger_exact_case(steps: int, clients: int, samples: int,
                      seed: int) -> dict:
    """Traced run: codec span byte totals == ledger total, exactly."""
    from repro.experiments.configs import config_for, make_algorithm, \
        make_setting
    from repro.fl import AsyncConfig, AsyncFederatedRunner, AsyncProfile
    from repro.obs import Tracer, codec_byte_totals, set_tracer

    cfg = config_for("tiny", n_clients=clients, n_samples=samples,
                     local_epochs=1, sample_ratio=1.0, seed=seed)
    model_fn, cl = make_setting(cfg)
    algo = make_algorithm("fedavg", cfg, model_fn, cl)
    runner = AsyncFederatedRunner(
        algo, AsyncProfile(seed=seed, **HOSTILE),
        AsyncConfig(buffer_k=2, max_inflight=clients))
    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        runner.run(steps=steps)
    finally:
        set_tracer(previous)
    codec = codec_byte_totals(tracer)
    ledger = algo.ledger.total_bytes()
    return {
        "name": "ledger_exact",
        "steps": steps,
        "serialize_bytes": int(codec["serialize"]),
        "deserialize_bytes": int(codec["deserialize"]),
        "ledger_bytes": ledger,
        "exact": (int(codec["serialize"]) == ledger
                  and int(codec["deserialize"]) == ledger),
    }


def loop_overhead_case(steps: int, repeats: int, seed: int) -> dict:
    """Event-loop overhead with the stub algorithm (no neural net)."""
    from repro.fl import AsyncConfig, AsyncFederatedRunner, AsyncProfile
    from repro.fl.stub import make_stub

    profile = AsyncProfile(seed=seed, **HOSTILE)
    acfg = AsyncConfig(buffer_k=4, max_inflight=8, max_queue=8)
    best, events = float("inf"), 0
    for _ in range(repeats):
        runner = AsyncFederatedRunner(make_stub(n_clients=16, seed=seed),
                                      profile, acfg)
        t0 = time.perf_counter()
        runner.run(steps=steps)
        dt = time.perf_counter() - t0
        events = sum(runner.counters[k] for k in
                     ("dispatched", "accepted", "crashed", "deduped",
                      "rejected"))
        best = min(best, dt)
    return {
        "name": "loop_overhead",
        "steps": steps,
        "events": events,
        "us_per_event": round(best / events * 1e6, 3),
        "total_s": round(best, 4),
    }


def check_regressions(record: dict, baseline_doc: str | None,
                      factor: float) -> list[str]:
    """Failures of the current record (baseline passed as pre-run text)."""
    failures = []
    cases = {c["name"]: c for c in record["cases"]}
    if not cases["determinism"]["identical"]:
        failures.append("determinism: same seed produced different runs")
    for name, case in cases.items():
        if name.startswith("sync_equiv."):
            if not case["byte_identical"]:
                failures.append(f"{name}: final state not byte-identical "
                                "to the synchronous loop")
            if not case["ledger_equal"]:
                failures.append(f"{name}: ledger totals differ from sync")
            if not case["zero_staleness"]:
                failures.append(f"{name}: staleness observed in the "
                                "equivalence regime")
    if not cases["ledger_exact"]["exact"]:
        failures.append("ledger_exact: traced codec bytes != ledger total")
    spd = cases["straggler_speedup"]
    if not spd["target_reached"]:
        failures.append("straggler_speedup: async never reached the "
                        "sync target loss")
    elif spd["speedup"] < 1.05:
        failures.append(f"straggler_speedup: {spd['speedup']}x < 1.05x")
    if baseline_doc is None:
        return failures + ["no committed baseline to check against"]
    try:
        baseline = json.loads(baseline_doc)
    except json.JSONDecodeError as exc:
        return failures + [f"unreadable baseline: {exc}"]
    base_cases = {c["name"]: c for c in baseline.get("cases", [])}
    base_det = base_cases.get("determinism")
    # Event counts are pure functions of the seeds (no training floats in
    # the schedule), so they must match the committed baseline everywhere.
    if base_det and base_det.get("steps") == cases["determinism"]["steps"] \
            and base_det["counters"] != cases["determinism"]["counters"]:
        failures.append(
            f"determinism: counters drifted from baseline "
            f"({cases['determinism']['counters']} != {base_det['counters']})")
    base_loop = base_cases.get("loop_overhead")
    if base_loop and base_loop.get("steps") == cases["loop_overhead"]["steps"]:
        cur = cases["loop_overhead"]["us_per_event"]
        # 3us absolute slack: sub-10us medians jitter hard on shared CI.
        if cur > factor * base_loop["us_per_event"] + 3.0:
            failures.append(
                f"loop_overhead: {cur}us/event vs baseline "
                f"{base_loop['us_per_event']}us (> {factor}x)")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run: fewer steps/rounds/clients")
    parser.add_argument("--check", action="store_true",
                        help="fail on regression vs the committed baseline")
    parser.add_argument("--check-factor", type=float, default=1.5,
                        help="allowed slowdown factor for --check")
    parser.add_argument("--repeats", type=int, default=None,
                        help="loop-overhead repeats (default 5, smoke 3)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None,
                        help="record to write (default: BENCH_async.json; "
                             "with --smoke, bench_async_smoke.json in the "
                             "cwd)")
    parser.add_argument("--baseline", default=str(OUT_PATH),
                        help="baseline JSON for --check (default: the "
                             "committed record)")
    args = parser.parse_args(argv)
    from _harness import resolve_out
    out = resolve_out(args.out, OUT_PATH, args.smoke)

    repeats = args.repeats or (3 if args.smoke else 5)
    clients = 4 if args.smoke else 8
    samples = 64 if args.smoke else 160
    steps = 4 if args.smoke else 10
    rounds = 2 if args.smoke else 4
    loop_steps = 200 if args.smoke else 1000

    baseline_path = Path(args.baseline)
    baseline_doc = baseline_path.read_text() if baseline_path.exists() \
        else None

    cases = [determinism_case(steps, clients, samples, args.seed)]
    print(f"determinism        identical={cases[-1]['identical']} "
          f"counters={cases[-1]['counters']}")
    for algo_name in ("fedavg", "spatl"):
        cases.append(sync_equiv_case(algo_name, rounds, clients, samples,
                                     args.seed))
        c = cases[-1]
        print(f"sync_equiv {algo_name:7s} byte_identical="
              f"{c['byte_identical']} ledger_equal={c['ledger_equal']} "
              f"zero_staleness={c['zero_staleness']}")
    cases.append(speedup_case(rounds, clients, samples, args.seed))
    print(f"straggler_speedup  {cases[-1]['speedup']}x "
          f"(sync {cases[-1]['sync_time_to_target']} -> async "
          f"{cases[-1]['async_time_to_target']} virtual)")
    cases.append(ledger_exact_case(steps, clients, samples, args.seed))
    c = cases[-1]
    print(f"ledger_exact       serialize={c['serialize_bytes']} "
          f"deserialize={c['deserialize_bytes']} ledger={c['ledger_bytes']} "
          f"exact={c['exact']}")
    cases.append(loop_overhead_case(loop_steps, repeats, args.seed))
    print(f"loop_overhead      {cases[-1]['us_per_event']}us/event "
          f"({cases[-1]['events']} events in {cases[-1]['total_s']}s)")

    from repro.obs.metrics import blas_env, observe_peak_rss
    record = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "smoke": args.smoke,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": __import__("numpy").__version__,
        "peak_rss_bytes": observe_peak_rss(),
        "env": blas_env(),
        "cases": cases,
    }
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"written to {out}")

    if args.check:
        failures = check_regressions(record, baseline_doc, args.check_factor)
        for f in failures:
            print(f"REGRESSION: {f}")
        return 1 if failures else 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
