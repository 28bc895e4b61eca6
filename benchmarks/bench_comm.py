"""Comm benchmark: fast transport layer vs the pre-PR pipeline.

Times the zero-copy wire codec, the per-round broadcast cache, and the
vectorized salient aggregation (DESIGN.md §11) against the verbatim
pre-optimization implementations: codec passes over a full VGG-11 state
dict (the paper's largest model) — single-buffer serialize vs the
original join-based encoder, zero-copy vs copying deserialize, the
serialize→deserialize round trip, broadcast-cache hits — and Eq. 12
aggregation vs :mod:`repro.fl.reference_agg` (bitwise-checked every
repeat), interleaved optimized/reference min-of-N so machine noise hits
both sides equally.

The ``downlink`` section runs {fedavg, scaffold, spatl static, spatl RL}
x {resnet20, vgg11} for four full-participation rounds and records, per
round, the bytes a full-state downlink would have cost against what the
versioned row delta (DESIGN.md §5.1) charged, plus what one payload
costs to build (state comparison + delta, once per round) and to serve
again from the per-base memo.  Byte counts are exact and repeat.

The ``--workers 2`` preload-on/off end-to-end comparison this script
used to carry passed its verdict (preload 1.10x / 1.19x, byte-identical;
CHANGES.md PR 19) and went with the ``broadcast=`` option it compared;
pool end-to-end time is ``benchmarks/e2e``'s ``fedavg_resnet20_fastpath``.

Writes the whole record to ``BENCH_comm.json`` at the repo root (single
document, overwritten — the committed copy is the regression
baseline)::

    python benchmarks/bench_comm.py                # full run
    python benchmarks/bench_comm.py --smoke        # CI-sized
    python benchmarks/bench_comm.py --smoke --check  # + regression gate

``--check`` compares each microbench's optimized time against the
committed baseline *before* overwriting it and exits non-zero if any
case regressed more than ``--check-factor`` (default 1.5x) beyond a
0.15ms absolute noise floor — or if a delta downlink exceeds its full
state, SPATL's round >= 1 delta is not smaller than it, or round 0
differs from it.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import struct
import time
import zlib
from pathlib import Path

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_comm.json"


# --------------------------------------------------------------------- #
# the pre-PR encoder, verbatim (the codec reference side)                #
# --------------------------------------------------------------------- #
def legacy_serialize(state, checksums=False):
    """The original join-based encoder the wire format is defined by."""
    import numpy as np
    from repro.fl import wire

    parts = [struct.pack("<I", len(state))]
    for name, value in state.items():
        arr = np.ascontiguousarray(value)
        if np.ndim(value) == 0:
            arr = arr.reshape(())
        raw_name = name.encode("utf-8")
        record = [struct.pack("<H", len(raw_name)), raw_name,
                  struct.pack("<BB", wire._DTYPE_CODE[arr.dtype], arr.ndim),
                  struct.pack(f"<{arr.ndim}I", *arr.shape), arr.tobytes()]
        if checksums:
            record.append(struct.pack("<I", zlib.crc32(b"".join(record))))
        parts.extend(record)
    return b"".join(parts)


def interleaved(fn_opt, fn_ref, repeats: int) -> tuple[float, float]:
    """Min-of-``repeats`` seconds per side, alternating opt/ref each
    iteration so drift and frequency noise land on both."""
    t_opt = t_ref = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn_opt()
        t_opt = min(t_opt, time.perf_counter() - t0)
        t0 = time.perf_counter()
        fn_ref()
        t_ref = min(t_ref, time.perf_counter() - t0)
    return t_opt, t_ref


# --------------------------------------------------------------------- #
# micro cases                                                            #
# --------------------------------------------------------------------- #
def codec_cases(repeats: int):
    """Yield ``(name, opt_ms, ref_ms)`` for codec passes over a full
    VGG-11 state dict."""
    from repro.fl import wire
    from repro.models import build_model

    state = dict(build_model("vgg11", num_classes=10, input_size=32,
                             seed=0).state_dict())
    blob = wire.serialize(state)
    assert blob == legacy_serialize(state), "wire format drifted"

    # serialize to immutable bytes: single-buffer writer vs joins
    yield ("serialize.vgg11",
           *interleaved(lambda: wire.serialize(state),
                        lambda: legacy_serialize(state), repeats))
    yield ("serialize.vgg11.checksums",
           *interleaved(lambda: wire.serialize(state, checksums=True),
                        lambda: legacy_serialize(state, checksums=True),
                        repeats))
    # serialize into reusable arena scratch (the traced-path encode)
    yield ("serialize.vgg11.scratch",
           *interleaved(lambda: wire.serialize_scratch(state),
                        lambda: legacy_serialize(state), repeats))
    # deserialize: read-only views vs per-entry copies
    yield ("deserialize.vgg11.zero_copy",
           *interleaved(lambda: wire.deserialize(blob, copy=False),
                        lambda: wire.deserialize(blob, copy=True), repeats))

    # the acceptance case: one full serialize+deserialize round trip,
    # fast path (scratch encode + zero-copy decode) vs pre-PR path
    # (join encode + copying decode)
    def rt_opt():
        wire.deserialize(wire.serialize_scratch(state), copy=False)

    def rt_ref():
        wire.deserialize(legacy_serialize(state), copy=True)

    yield ("roundtrip.vgg11", *interleaved(rt_opt, rt_ref, repeats))

    # broadcast cache: a token hit vs re-encoding for every client
    cache = wire.BroadcastCache()
    cache.encode(state, token=1)
    yield ("broadcast.hit.vgg11",
           *interleaved(lambda: cache.encode(state, token=1),
                        lambda: wire.serialize(state), repeats))


def aggregation_cases(repeats: int):
    """Eq. 12 vectorized vs reference scatter, bitwise-checked."""
    import numpy as np
    from repro.core.aggregation import salient_aggregate
    from repro.fl.reference_agg import reference_salient_aggregate

    rng = np.random.default_rng(0)
    for label, shape in (("conv", (256, 256, 3, 3)), ("fc", (512, 512)),
                         ("bias", (512,))):
        g = rng.normal(size=shape).astype(np.float32)
        uploads = []
        for _ in range(5):                       # 5 clients, ~50% selection
            k = shape[0] // 2
            idx = np.sort(rng.choice(shape[0], size=k, replace=False))
            uploads.append((idx, rng.normal(
                size=(k,) + shape[1:]).astype(np.float32)))

        def opt():
            return salient_aggregate(g, uploads)

        def ref():
            return reference_salient_aggregate(g, uploads)

        assert opt().tobytes() == ref().tobytes(), \
            f"aggregation drifted from the oracle ({label})"
        yield f"aggregate.{label}", *interleaved(opt, ref, repeats)


# --------------------------------------------------------------------- #
# delta downlink                                                         #
# --------------------------------------------------------------------- #
DOWNLINK_ALGOS = (("fedavg", "fedavg", {}), ("scaffold", "scaffold", {}),
                  ("spatl_static", "spatl", {}),
                  ("spatl_rl", "spatl", {"use_rl_policy": True}))
DOWNLINK_MODELS = (("resnet20", {}), ("vgg11", {"input_size": 32}))
DOWNLINK_ROUNDS = 4


def downlink_cases(smoke: bool):
    """Yield one record per algorithm x model: full vs delta downlink
    bytes per round, and the payload build / memo-hit time."""
    import statistics

    from repro.experiments.configs import (config_for, make_algorithm,
                                           make_setting)
    from repro.fl import payload_nbytes

    n_clients = 2 if smoke else 4
    for label, algorithm, algo_cfg in DOWNLINK_ALGOS:
        for model, model_cfg in DOWNLINK_MODELS:
            cfg = config_for("tiny", seed=0, model=model, n_clients=n_clients,
                             n_samples=80 * n_clients, sample_ratio=1.0,
                             local_epochs=1, **model_cfg, **algo_cfg)
            model_fn, clients = make_setting(cfg)
            algo = make_algorithm(algorithm, cfg, model_fn, clients)
            full, delta, build_ms, hit_ms = [], [], [], []
            for r in range(DOWNLINK_ROUNDS):
                algo.transport.new_round()
                t0 = time.perf_counter()
                algo.download_payload(clients[0])
                t1 = time.perf_counter()
                algo.download_payload(clients[1])
                t2 = time.perf_counter()
                build_ms.append((t1 - t0) * 1e3)
                hit_ms.append((t2 - t1) * 1e3)
                full.append(n_clients * payload_nbytes(algo.downlink_state()))
                algo.run_round(r)
                delta.append(sum(algo.ledger.downlink[r].values()))
            algo.close()
            yield {"name": f"{label}.{model}", "clients": n_clients,
                   "full_bytes": full, "delta_bytes": delta,
                   "steady_ratio": round(delta[-1] / full[-1], 4),
                   "build_ms": round(statistics.median(build_ms), 3),
                   "memo_hit_ms": round(statistics.median(hit_ms), 4)}


def check_downlink(rows: list[dict]) -> list[str]:
    """Failures of the delta downlink's three byte invariants."""
    failures = []
    for row in rows:
        full, delta = row["full_bytes"], row["delta_bytes"]
        if delta[0] != full[0]:
            failures.append(f"downlink {row['name']}: round 0 sent "
                            f"{delta[0]} B, the full state is {full[0]} B")
        for r, (d, f) in enumerate(zip(delta, full)):
            if d > f:
                failures.append(f"downlink {row['name']}: round {r} delta "
                                f"{d} B exceeds the full state {f} B")
            elif r and row["name"].startswith("spatl") and d == f:
                failures.append(f"downlink {row['name']}: round {r} delta "
                                f"is not smaller than the full state {f} B")
    return failures


# --------------------------------------------------------------------- #
# regression gate                                                        #
# --------------------------------------------------------------------- #
def check_regressions(record: dict, baseline_doc: str | None,
                      factor: float) -> list[str]:
    """Failures of the current record against the committed baseline
    (passed as the baseline file's *pre-run* text, since the run may
    have overwritten it)."""
    if baseline_doc is None:
        return ["no committed baseline to check against"]
    try:
        baseline = json.loads(baseline_doc)
    except json.JSONDecodeError as exc:
        return [f"unreadable baseline: {exc}"]
    failures = []
    base_micro = {m["name"]: m for m in baseline.get("micro", [])}
    for m in record["micro"]:
        base = base_micro.get(m["name"])
        if base is None:
            continue
        # 0.15ms absolute slack: the committed baseline is a min-of-N on
        # a quiet box; smoke runs jitter well past any ratio threshold
        # for sub-ms cases on shared CI cores.
        if m["opt_ms"] > factor * base["opt_ms"] + 0.15:
            failures.append(
                f"micro {m['name']}: {m['opt_ms']:.3f}ms vs baseline "
                f"{base['opt_ms']:.3f}ms (> {factor}x)")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run: few repeats")
    parser.add_argument("--check", action="store_true",
                        help="fail on regression vs the committed baseline")
    parser.add_argument("--check-factor", type=float, default=1.5,
                        help="allowed slowdown factor for --check")
    parser.add_argument("--repeats", type=int, default=None,
                        help="micro repeats (default 30, smoke 8)")
    parser.add_argument("--out", default=None,
                        help="record to write (default: BENCH_comm.json; "
                             "with --smoke, bench_comm_smoke.json in the "
                             "cwd)")
    parser.add_argument("--baseline", default=str(OUT_PATH),
                        help="baseline JSON for --check (default: the "
                             "committed record)")
    args = parser.parse_args(argv)
    from _harness import resolve_out
    out = resolve_out(args.out, OUT_PATH, args.smoke)

    repeats = args.repeats or (8 if args.smoke else 30)

    baseline_path = Path(args.baseline)
    baseline_doc = baseline_path.read_text() if baseline_path.exists() \
        else None

    micro = []
    for case in (codec_cases(repeats), aggregation_cases(repeats)):
        for name, t_opt, t_ref in case:
            opt_ms, ref_ms = t_opt * 1e3, t_ref * 1e3
            micro.append({"name": name, "opt_ms": round(opt_ms, 4),
                          "ref_ms": round(ref_ms, 4),
                          "speedup": round(ref_ms / opt_ms, 4)})
            print(f"{name:28s} opt={opt_ms:9.3f}ms ref={ref_ms:9.3f}ms "
                  f"speedup={ref_ms / opt_ms:6.2f}x")

    downlink = []
    for row in downlink_cases(args.smoke):
        downlink.append(row)
        mb = 2 ** 20 * row["clients"]
        print(f"downlink {row['name']:22s} full={row['full_bytes'][-1] / mb:7.3f}"
              f" delta={row['delta_bytes'][-1] / mb:7.3f} MB/client/round "
              f"({row['steady_ratio']:.3f}x) build={row['build_ms']:.2f}ms "
              f"hit={row['memo_hit_ms']:.3f}ms")

    from repro.obs.metrics import blas_env, observe_peak_rss
    record = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "smoke": args.smoke,
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": __import__("numpy").__version__,
        "peak_rss_bytes": observe_peak_rss(),
        "env": blas_env(),
        "micro": micro,
        "downlink": downlink,
    }
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"written to {out}")

    if args.check:
        failures = check_regressions(record, baseline_doc, args.check_factor)
        failures += check_downlink(downlink)
        for f in failures:
            print(f"REGRESSION: {f}")
        return 1 if failures else 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
