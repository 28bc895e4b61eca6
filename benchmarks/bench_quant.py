"""Quantized-transport benchmark: codec throughput and wire-byte ratios.

Measures the low-bit uplink codec (DESIGN.md §16) at three levels:

- **micro** — vectorized int4 nibble pack/unpack vs a per-element
  reference (bitwise-checked each repeat), and stochastic int8/int4
  quantize/encode/decode passes over a resnet20-sized tensor set;
- **ratios** — real FedAvg rounds on a full-width resnet20 with
  ``--quant-bits 32/8/4``: uplink bytes as charged by the
  :class:`~repro.fl.comm.CommLedger`, checked exactly against the
  codec's own :func:`~repro.fl.quant.quant_payload_nbytes` sizing, plus
  the int8/int4 byte-reduction factors vs fp32;
- **accuracy** — the smoke experiment (tiny-scale FedAvg) at fp32 vs
  int8+error-feedback vs int4, recording final accuracies and the
  fp32-vs-int8 gap;
- **golden** — a ``quant_bits=32`` run must be byte-identical to the
  unquantized wire path (same final model bytes, same ledger totals).

Writes the whole record to ``BENCH_quant.json`` at the repo root
(single document, overwritten — the committed copy is the regression
baseline)::

    python benchmarks/bench_quant.py                 # full run
    python benchmarks/bench_quant.py --smoke         # CI-sized
    python benchmarks/bench_quant.py --smoke --check   # + regression gate

``--check`` fails (non-zero exit) when a micro case regressed more than
``--check-factor`` vs the committed baseline beyond a 0.15ms noise
floor, when pack/unpack fall under 10x vs the per-element reference,
when the int8/int4 ratios fall under 3.9x/7.5x, when ledger and codec
byte counts disagree, or when the bits=32 golden breaks byte identity.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import time
from pathlib import Path

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_quant.json"


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
def codec_cases(repeats: int, n: int):
    """Yield ``(name, opt_ms, ref_ms)`` codec micro cases over ``n``
    values (a full-width resnet20 carries ~271k parameters)."""
    import numpy as np
    from repro.fl.quant import (QuantConfig, encode_record, decode_record,
                                naive_pack_nibbles, naive_unpack_nibbles,
                                pack_nibbles, stochastic_quantize,
                                unpack_nibbles)
    from repro.utils.rng import spawn_rng

    rng = np.random.default_rng(0)
    codes = rng.integers(0, 16, size=n).astype(np.uint8)
    packed = pack_nibbles(codes)
    assert np.array_equal(packed, naive_pack_nibbles(codes)), \
        "nibble packer drifted from the per-element reference"
    assert np.array_equal(unpack_nibbles(packed, n),
                          naive_unpack_nibbles(packed, n)), \
        "nibble unpacker drifted from the per-element reference"

    # the acceptance cases: vectorized nibble kernels vs Python loops
    yield ("pack.int4",
           *interleaved(lambda: pack_nibbles(codes),
                        lambda: naive_pack_nibbles(codes), repeats))
    yield ("unpack.int4",
           *interleaved(lambda: unpack_nibbles(packed, n),
                        lambda: naive_unpack_nibbles(packed, n), repeats))

    # stochastic quantize + full record encode/decode throughput (both
    # sides optimized — the ref side is the int8 path, so the per-case
    # ratio reads as "int4 cost relative to int8", and --check tracks
    # opt_ms regressions against the committed baseline)
    values = rng.normal(size=n).astype(np.float32)
    yield ("quantize.int8.per_tensor",
           *interleaved(
               lambda: stochastic_quantize(values, 8, 0, spawn_rng(0, "b8")),
               lambda: stochastic_quantize(values, 8, 0, spawn_rng(0, "b8")),
               repeats))
    yield ("quantize.int4.block256",
           *interleaved(
               lambda: stochastic_quantize(values, 4, 256,
                                           spawn_rng(0, "b4")),
               lambda: stochastic_quantize(values, 4, 256,
                                           spawn_rng(0, "b4")), repeats))
    rec8, _ = encode_record(values, QuantConfig(bits=8), spawn_rng(0, "r8"))
    rec4, _ = encode_record(values, QuantConfig(bits=4), spawn_rng(0, "r4"))
    yield ("encode_record.int4_vs_int8",
           *interleaved(
               lambda: encode_record(values, QuantConfig(bits=4),
                                     spawn_rng(0, "r4")),
               lambda: encode_record(values, QuantConfig(bits=8),
                                     spawn_rng(0, "r8")), repeats))
    yield ("decode_record.int4_vs_int8",
           *interleaved(lambda: decode_record(rec4),
                        lambda: decode_record(rec8), repeats))


# --------------------------------------------------------------------- #
# wire-byte ratios on real rounds                                        #
# --------------------------------------------------------------------- #
def ratio_cases(clients: int, samples: int, width: float, input_size: int,
                seed: int) -> list[dict]:
    """FedAvg rounds on resnet20 at each bit width; ledger-charged uplink
    bytes, checked exactly against the codec's sizing."""
    from repro.experiments.configs import (config_for, make_algorithm,
                                           make_setting)
    from repro.fl.quant import QuantConfig, quant_payload_nbytes
    from repro.fl.wire import payload_nbytes

    rows = []
    fp32_up = None
    for bits in (32, 8, 4):
        cfg = config_for("tiny", model="resnet20", width_mult=width,
                         input_size=input_size, n_clients=clients,
                         n_samples=samples, local_epochs=1, sample_ratio=1.0,
                         seed=seed, quant_bits=bits)
        model_fn, cl = make_setting(cfg)
        algo = make_algorithm("fedavg", cfg, model_fn, cl)
        t0 = time.perf_counter()
        algo.run_round(0)
        round_s = time.perf_counter() - t0
        up = sum(algo.ledger.uplink[0].values())
        # FedAvg uplinks the full state dict, whose entry dtypes/shapes
        # are client-invariant — so the codec's exact sizing of one
        # template state, times the cohort, must equal the ledger to the
        # byte.
        template = algo.global_model.state_dict()
        if bits == 32:
            per_client = payload_nbytes(template)
        else:
            per_client = quant_payload_nbytes(template, QuantConfig(bits=bits))
        expected = per_client * clients
        if fp32_up is None:
            fp32_up = up
        rows.append({
            "bits": bits,
            "model": "resnet20",
            "width_mult": width,
            "clients": clients,
            "uplink_bytes": up,
            "codec_bytes": expected,
            "ledger_equals_codec": up == expected,
            "reduction_vs_fp32": round(fp32_up / up, 4),
            "round_s": round(round_s, 3),
        })
        algo.close()
    return rows


# --------------------------------------------------------------------- #
# smoke-experiment accuracy + bits=32 golden                             #
# --------------------------------------------------------------------- #
def accuracy_case(rounds: int, clients: int, samples: int,
                  seed: int) -> dict:
    """Tiny-scale FedAvg at fp32 / int8+EF / int8 no-EF / int4+EF."""
    from repro.experiments.configs import (config_for, make_algorithm,
                                           make_setting)

    def final_acc(bits: int, ef: bool = True) -> tuple[float, int]:
        cfg = config_for("tiny", n_clients=clients, n_samples=samples,
                         rounds=rounds, seed=seed, quant_bits=bits,
                         quant_ef=ef)
        model_fn, cl = make_setting(cfg)
        algo = make_algorithm("fedavg", cfg, model_fn, cl)
        acc = 0.0
        for r in range(rounds):
            acc = algo.run_round(r).avg_val_acc
        total_up = sum(sum(per.values())
                       for per in algo.ledger.uplink.values())
        algo.close()
        return acc, total_up

    acc32, up32 = final_acc(32)
    acc8, up8 = final_acc(8)
    acc8_noef, _ = final_acc(8, ef=False)
    acc4, up4 = final_acc(4)
    return {
        "rounds": rounds,
        "acc_fp32": round(acc32, 4),
        "acc_int8_ef": round(acc8, 4),
        "acc_int8_noef": round(acc8_noef, 4),
        "acc_int4_ef": round(acc4, 4),
        "int8_within_1pt": abs(acc32 - acc8) <= 0.01 + 1e-9,
        "uplink_bytes_fp32": up32,
        "uplink_bytes_int8": up8,
        "uplink_bytes_int4": up4,
    }


def golden_case(clients: int, samples: int, seed: int) -> dict:
    """``quant_bits=32`` must be byte-identical to the unquantized path."""
    from repro.experiments.configs import (config_for, make_algorithm,
                                           make_setting)
    from repro.fl.comm import serialize_state

    def run(**overrides):
        cfg = config_for("tiny", n_clients=clients, n_samples=samples,
                         rounds=2, seed=seed, **overrides)
        model_fn, cl = make_setting(cfg)
        algo = make_algorithm("fedavg", cfg, model_fn, cl)
        for r in range(2):
            algo.run_round(r)
        state = serialize_state(dict(algo.global_model.state_dict()))
        total = algo.ledger.total_bytes()
        algo.close()
        return state, total

    state_plain, bytes_plain = run()
    state_q32, bytes_q32 = run(quant_bits=32)
    return {
        "bits32_state_identical": state_plain == state_q32,
        "bits32_ledger_equal": bytes_plain == bytes_q32,
        "total_bytes": bytes_plain,
    }


# --------------------------------------------------------------------- #
# regression gate                                                        #
# --------------------------------------------------------------------- #
def check_regressions(record: dict, baseline_doc: str | None,
                      factor: float) -> list[str]:
    """Failures of the current record against the acceptance floors and
    the committed baseline (passed as the baseline file's *pre-run*
    text, since the run may have overwritten it)."""
    failures = []
    micro = {m["name"]: m for m in record["micro"]}
    for name in ("pack.int4", "unpack.int4"):
        if micro[name]["speedup"] < 10.0:
            failures.append(f"micro {name}: {micro[name]['speedup']:.1f}x "
                            "< 10x vs per-element reference")
    for row in record["ratios"]:
        if not row["ledger_equals_codec"]:
            failures.append(f"ratios bits={row['bits']}: ledger "
                            f"{row['uplink_bytes']} != codec "
                            f"{row['codec_bytes']}")
        floor = {8: 3.9, 4: 7.5}.get(row["bits"])
        if floor and row["reduction_vs_fp32"] < floor:
            failures.append(f"ratios bits={row['bits']}: "
                            f"{row['reduction_vs_fp32']}x < {floor}x")
    if not record["accuracy"]["int8_within_1pt"] and not record["smoke"]:
        # Enforced on the full (converged, 10-round) run only: a smoke
        # run's 3 rounds sit on the steep early part of the curve, where
        # seeded training noise alone moves accuracy several points.
        failures.append("accuracy: int8+EF more than 1 point from fp32")
    if not record["golden"]["bits32_state_identical"]:
        failures.append("golden: bits=32 final state not byte-identical")
    if not record["golden"]["bits32_ledger_equal"]:
        failures.append("golden: bits=32 ledger totals differ")
    if baseline_doc is None:
        return failures + ["no committed baseline to check against"]
    try:
        baseline = json.loads(baseline_doc)
    except json.JSONDecodeError as exc:
        return failures + [f"unreadable baseline: {exc}"]
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
                        help="CI-sized run: few repeats, short experiments")
    parser.add_argument("--check", action="store_true",
                        help="fail on regression vs floors and the "
                             "committed baseline")
    parser.add_argument("--check-factor", type=float, default=1.5,
                        help="allowed slowdown factor for --check")
    parser.add_argument("--repeats", type=int, default=None,
                        help="micro repeats (default 30, smoke 8)")
    parser.add_argument("--acc-rounds", type=int, default=None,
                        help="accuracy-experiment rounds (default 10, "
                             "smoke 3)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None,
                        help="record to write (default: BENCH_quant.json; "
                             "with --smoke, bench_quant_smoke.json in the "
                             "cwd)")
    parser.add_argument("--baseline", default=str(OUT_PATH),
                        help="baseline JSON for --check (default: the "
                             "committed record)")
    args = parser.parse_args(argv)
    from _harness import resolve_out
    out = resolve_out(args.out, OUT_PATH, args.smoke)

    repeats = args.repeats or (8 if args.smoke else 30)
    acc_rounds = args.acc_rounds or (3 if args.smoke else 10)
    micro_n = 60_000 if args.smoke else 271_117
    ratio_clients = 2 if args.smoke else 4
    ratio_samples = 48 if args.smoke else 96

    baseline_path = Path(args.baseline)
    baseline_doc = baseline_path.read_text() if baseline_path.exists() \
        else None

    micro = []
    for name, t_opt, t_ref in codec_cases(repeats, micro_n):
        opt_ms, ref_ms = t_opt * 1e3, t_ref * 1e3
        micro.append({"name": name, "opt_ms": round(opt_ms, 4),
                      "ref_ms": round(ref_ms, 4),
                      "speedup": round(ref_ms / opt_ms, 4)})
        print(f"{name:28s} opt={opt_ms:9.3f}ms ref={ref_ms:9.3f}ms "
              f"speedup={ref_ms / opt_ms:6.2f}x")

    ratios = ratio_cases(ratio_clients, ratio_samples, width=1.0,
                         input_size=32, seed=args.seed)
    for row in ratios:
        status = "OK" if row["ledger_equals_codec"] else "MISMATCH"
        print(f"ratio bits={row['bits']:2d} uplink={row['uplink_bytes']:9d}B "
              f"reduction={row['reduction_vs_fp32']:6.2f}x "
              f"ledger==codec [{status}]")

    accuracy = accuracy_case(acc_rounds, clients=4,
                             samples=600 if args.smoke else 1500,
                             seed=args.seed)
    print(f"accuracy fp32={accuracy['acc_fp32']:.3f} "
          f"int8+ef={accuracy['acc_int8_ef']:.3f} "
          f"int8-ef={accuracy['acc_int8_noef']:.3f} "
          f"int4+ef={accuracy['acc_int4_ef']:.3f}")

    golden = golden_case(clients=3, samples=300, seed=args.seed)
    print(f"golden bits=32 identical={golden['bits32_state_identical']} "
          f"ledger_equal={golden['bits32_ledger_equal']}")

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
        "ratios": ratios,
        "accuracy": accuracy,
        "golden": golden,
    }
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"written to {out}")

    if args.check:
        failures = check_regressions(record, baseline_doc, args.check_factor)
        for f in failures:
            print(f"REGRESSION: {f}")
        return 1 if failures else 0
    return 0 if (golden["bits32_state_identical"]
                 and all(r["ledger_equals_codec"] for r in ratios)) else 1


if __name__ == "__main__":
    raise SystemExit(main())
