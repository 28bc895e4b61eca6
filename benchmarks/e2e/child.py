"""One measured run of one workload, in this (fresh) process.

``run.py`` re-executes itself with ``--child`` so that every run starts
with a clean ``VmHWM``, cold arenas and caches, and its own pool
children; this module is what the child executes.  The untraced pass
imports only the repo's public entry points; the traced pass
additionally installs the probe table before anything is built.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import tempfile
import time

import workloads

MB = 2 ** 20


def machine_record() -> dict:
    """Where and under what thread budget the numbers were taken."""
    import numpy as np
    from repro.obs.metrics import blas_env
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"blas_env": blas_env(), "nproc": os.cpu_count(), "cpu": cpu,
            "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__}


def _uplinks(ledger) -> dict:
    return {(r, c): b for r, per in ledger.uplink.items()
            for c, b in per.items()}


def _total(direction: dict) -> int:
    return sum(sum(per.values()) for per in direction.values())


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run(spec: dict) -> dict:
    """Set up, warm up, time ``spec['units']`` units, check, and report."""
    traced = bool(spec["traced"])
    workload = workloads.BY_NAME[spec["workload"]]
    if spec.get("reference"):
        workload = workloads.serial_eager_reference(workload)
    seed, units = int(spec["seed"]), int(spec["units"])

    recorder = None
    if traced:
        import probes
        recorder = probes.Recorder()
        probes.install(recorder)

    os.makedirs(spec["tmp_root"], exist_ok=True)
    with tempfile.TemporaryDirectory(dir=spec["tmp_root"],
                                     prefix="e2e-") as tmpdir:
        run_ = workloads.build(workload, seed, tmpdir)
        try:
            record = _measure(run_, spec, units, recorder)
        finally:
            run_.algo.close()
        # Pool children are reaped by close(): only now is their CPU and
        # peak RSS visible through RUSAGE_CHILDREN.
        from repro.obs.metrics import peak_rss_bytes
        kids_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024
        if "metrics" in record:
            cpu_s = _cpu_seconds()
            record["metrics"]["cpu_s_total"] = {"value": cpu_s, "unit": "s"}
            # CPU seconds per wall second of the whole run: a slow phase of
            # the box stretches both, so this stays put where cpu_s_total
            # does not, and still rises when work moves to another core.
            record["metrics"]["cpu_cores_busy"] = {
                "value": cpu_s / (time.time() - spec["t0"]), "unit": "cores"}
            record["metrics"]["peak_rss_mb"] = {
                "value": (peak_rss_bytes() + kids_rss) / MB, "unit": "MB"}
    record.update(workload=spec["workload"], seed=seed, units=units,
                  traced=traced, reference=bool(spec.get("reference")),
                  env=machine_record())
    if recorder is not None and spec.get("spans_out"):
        recorder.dump(spec["spans_out"])
    return record


def _measure(run_, spec: dict, units: int, recorder) -> dict:
    import numpy as np
    from repro.fl import state_fingerprint

    algo = run_.algo
    run_.step(0)                                    # warm-up, charged to set-up
    setup_s = time.time() - spec["t0"]
    if spec.get("setup_only"):
        return {"setup_s": setup_s}

    up_before = _uplinks(algo.ledger)
    up0, down0 = _total(algo.ledger.uplink), _total(algo.ledger.downlink)
    counters_before = None
    if recorder is not None:
        import probes
        counters_before = probes.registry_counters()
        recorder.timed_from = time.perf_counter()
    walls = []
    for unit in range(1, units + 1):
        t = time.perf_counter()
        if recorder is not None:
            with recorder.span(probes.DRIVER_SPAN):
                run_.step(unit)
        else:
            run_.step(unit)
        walls.append(time.perf_counter() - t)
    timed_wall = sum(walls)

    epochs = algo.local_epochs
    samples = sum(run_.n_train[c] * epochs
                  for (r, c), b in _uplinks(algo.ledger).items()
                  if b > up_before.get((r, c), 0))
    up_mb = (_total(algo.ledger.uplink) - up0) / units / MB
    down_mb = (_total(algo.ledger.downlink) - down0) / units / MB
    layers = None
    if recorder is not None:
        # Taken before the final evaluation so every time and count
        # covers exactly the timed region.
        layers = probes.layer_metrics(recorder, timed_wall, run_,
                                      counters_before)
    acc = run_.evaluate()
    state = dict(algo.global_model.state_dict())
    fingerprint = state_fingerprint(state)

    checks = [
        ("every timed unit committed", run_.uncommitted == 0,
         f"{run_.uncommitted} uncommitted"),
        ("final state finite",
         all(np.isfinite(v).all() for v in state.values()
             if np.issubdtype(np.asarray(v).dtype, np.floating)), ""),
        ("final_val_acc is a probability",
         math.isfinite(acc) and 0.0 <= acc <= 1.0, f"{acc!r}"),
    ]
    ex = run_.exchange_counts()
    lost = ex["dispatched"] - ex["delivered"] - ex["injected"] - ex["open"]
    checks.append(("no client exchange lost", lost == 0, f"{ex}"))
    if recorder is not None and run_.workload.config.get("workers", 1) == 1:
        seen_up = recorder.counts["audit.up_bytes"]
        seen_down = recorder.counts["audit.down_bytes"]
        checks.append((
            "ledger bytes equal the harness's payload count",
            seen_up == _total(algo.ledger.uplink)
            and seen_down == _total(algo.ledger.downlink),
            f"up {seen_up} vs {_total(algo.ledger.uplink)}, "
            f"down {seen_down} vs {_total(algo.ledger.downlink)}"))

    failed_checks = sum(1 for _n, ok, _d in checks if not ok)
    attempted = ex["dispatched"] + units + len(checks)
    failed = max(lost, 0) + run_.uncommitted + failed_checks
    metrics = {
        "setup_s": (setup_s, "s"),
        "round_s": (statistics.median(walls), "s"),
        "samples_per_s": (samples / timed_wall, "samples/s"),
        "uplink_mb_per_round": (up_mb, "MB"),
        "downlink_mb_per_round": (down_mb, "MB"),
        "final_val_acc": (acc, "fraction"),
        "failed_ops_ratio": (failed / attempted, "fraction"),
    }
    record = {
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "round_s_n": len(walls), "round_s_min": min(walls),
        "round_s_max": max(walls), "timed_wall_s": timed_wall,
        "samples": samples, "attempted": attempted, "failed": failed,
        "state_fingerprint": fingerprint,
        "checks": [{"name": n, "ok": bool(ok), "detail": d}
                   for n, ok, d in checks],
    }
    if layers is not None:
        record["layers"] = {k: {"value": v, "unit": u}
                            for k, (v, u) in layers.items()}
        record["probes_missing"] = recorder.missing
    return record


def main(spec_json: str) -> int:
    print(json.dumps(run(json.loads(spec_json))))
    return 0
