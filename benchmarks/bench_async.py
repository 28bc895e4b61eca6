"""Async runtime benchmark: straggler speedup and event-loop overhead.

Measures the event-driven asynchronous runtime (DESIGN.md §12) on the
two axes that are measurements:

- **straggler_speedup** — under a straggler-heavy profile, async must
  reach the sync run's final training loss in less *virtual* wall-time
  (``repro.experiments.async_convergence``, deterministic — the floor is
  stable across machines);
- **loop_overhead** — pure event-loop cost (stub algorithm, no neural
  net) under a hostile profile (stragglers + churn + crashes + duplicate
  deliveries), per event, timed against a bare ``VirtualClock`` popping
  as many: the runner's bookkeeping in units of its own heap;
- **warmup** — the same stub run's first ``run(steps=4)``: jobs
  dispatched / crashed / trained / accepted.  A job trains at its first
  delivery, so ``trained`` equals the jobs delivered (accepted, or
  deduped by content) — a count, the same on every machine.

The runtime's identities are tier-1's, not this bench's: same-seed
determinism is ``tests/test_fl_async.py::TestDeterminism``, bitwise
sync equivalence at ``buffer_k == cohort`` is ``::TestSyncEquivalence``,
and traced transfer bytes == ledger total is
``tests/test_obs.py::test_codec_span_bytes_match_ledger[async*]``.

    python benchmarks/bench_async.py --smoke --check    # the CI gate

Checked (``--check``): the async run reaches the sync target at >=
1.05x, the warm-up trains no job it did not deliver, and the loop row
holds the ``min_speedup`` it carries (its first full run's / 1.5).
"""

from __future__ import annotations

import math
import time

from _harness import SEED, Bench, interleaved

MIN_STRAGGLER_SPEEDUP = 1.05
HOSTILE = dict(jitter=0.3, straggler_prob=0.4, slowdown=6.0,
               arrival_spread=1.0, churn_prob=0.15, crash_prob=0.05,
               duplicate_prob=0.2)


def speedup_rows(size: dict):
    """Straggler-heavy profile: async time-to-target vs sync (virtual)."""
    from repro.experiments.async_convergence import async_convergence
    from repro.experiments.configs import config_for

    cfg = config_for("tiny", n_clients=size["clients"],
                     n_samples=size["samples"], local_epochs=1,
                     sample_ratio=1.0, seed=SEED, rounds=size["rounds"])
    result = async_convergence(cfg, "fedavg")
    yield {
        "name": "fedavg",
        "speedup": round(result["speedup"], 4),
        "sync_time_to_target": round(result["sync"]["time_to_target"], 4),
        "async_time_to_target": round(result["async"]["time_to_target"], 4),
        "target_reached": math.isfinite(result["async"]["time_to_target"]),
    }


def _stub_runner():
    """The stub algorithm's 16 clients under the hostile profile."""
    from repro.fl import AsyncConfig, AsyncFederatedRunner, AsyncProfile
    from repro.fl.stub import make_stub

    return AsyncFederatedRunner(
        make_stub(n_clients=16, seed=SEED), AsyncProfile(seed=SEED, **HOSTILE),
        AsyncConfig(buffer_k=4, max_inflight=8, max_queue=8))


def loop_rows(size: dict):
    """Event-loop overhead against a bare clock's, event for event."""
    from repro.fl.async_runtime import VirtualClock

    steps = size["loop_steps"]
    counted = _stub_runner()
    counted.run(steps=steps)
    events = sum(counted.counters[k] for k in
                 ("dispatched", "accepted", "crashed", "deduped", "rejected"))

    def loop():
        runner = _stub_runner()
        t0 = time.perf_counter()
        runner.run(steps=steps)
        return time.perf_counter() - t0

    def clock():
        heap = VirtualClock()
        for cid in range(16):
            heap.schedule(cid / 16, "arrive", {"cid": cid})
        t0 = time.perf_counter()
        for i in range(events):
            kind, data = heap.pop()
            heap.schedule(heap.now + 1.0 + i % 7 / 7, kind, data)
        return time.perf_counter() - t0

    timing = interleaved(loop, clock, size["repeats"], self_timed=True,
                         min_speedup=0.0023)
    yield {"name": "stub16", "events": events,
           "us_per_event": round(timing["opt_ms"] / events * 1e3, 3),
           **timing}


def warmup_rows(size: dict):
    """What the first ``run(steps=4)`` trains, against what it delivers."""
    runner = _stub_runner()
    runner.run(steps=4)
    c = runner.counters
    yield {"name": "stub16", "dispatched": c["dispatched"],
           "crashed": c["crashed"], "trained": c["trained"],
           "accepted": c["accepted"],
           "delivered": sum(job.fingerprint is not None
                            for job in runner.jobs.values())}


def floors(record: dict) -> list[str]:
    failures = []
    for row in (r for r in record["rows"] if r["case"] == "warmup"):
        if row["trained"] != row["delivered"]:
            failures.append(f"warmup/{row['name']}: trained "
                            f"{row['trained']} jobs, delivered "
                            f"{row['delivered']}")
    for row in (r for r in record["rows"]
                if r["case"] == "straggler_speedup"):
        if not row["target_reached"]:
            failures.append(f"straggler_speedup/{row['name']}: async never "
                            "reached the sync target loss")
        elif row["speedup"] < MIN_STRAGGLER_SPEEDUP:
            failures.append(f"straggler_speedup/{row['name']}: "
                            f"{row['speedup']}x < {MIN_STRAGGLER_SPEEDUP}x")
    return failures


BENCH = Bench(
    name="async", doc=__doc__,
    cases=(("straggler_speedup", speedup_rows), ("loop_overhead", loop_rows),
           ("warmup", warmup_rows)),
    full=dict(clients=8, samples=160, rounds=4, repeats=5, loop_steps=1000),
    smoke=dict(clients=4, samples=64, rounds=2, repeats=3, loop_steps=200),
    floors=floors)


def main(argv=None) -> int:
    return BENCH.main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
