"""Quantized-transport benchmark: codec throughput and wire-byte ratios.

Measures the low-bit uplink codec (DESIGN.md §16) at three levels:

- **micro** — vectorized int4 nibble pack/unpack vs a per-element
  reference (required bitwise-equal before it is timed), stochastic
  quantize vs the per-block float64 oracle (bitwise-equal in tier-1) and
  int4 vs int8 record encode/decode, over a resnet20-sized tensor (a
  full-width resnet20 carries ~271k parameters);
- **ratios** — real FedAvg rounds on a full-width resnet20 with
  ``--quant-bits 32/8/4``: uplink bytes as charged by the
  :class:`~repro.fl.comm.CommLedger`, beside the codec's own
  :func:`~repro.fl.quant.quant_payload_nbytes` sizing, plus the
  int8/int4 byte-reduction factors vs fp32;
- **accuracy** — the smoke experiment (tiny-scale FedAvg) at fp32 vs
  int8+error-feedback vs int8 without vs int4, recording final
  accuracies and the uplink bytes each cost.

That ``quant_bits=32`` is byte-identical to the unquantized wire path is
tier-1's: ``tests/test_fl_quant.py::
test_bits32_config_is_byte_identical_to_unquantized``.

    python benchmarks/bench_quant.py --smoke --check    # the CI gate

Checked (``--check``): a micro row below the ``min_speedup`` declared
beside it (the committed full-run speedup / 1.5 when it was set),
pack/unpack under 10x, int8/int4 ratios under 3.9x/7.5x, ledger and
codec byte counts that disagree, and — on full runs — int8+EF more than
one point from fp32.
"""

from __future__ import annotations

import time

from _harness import SEED, Bench, interleaved, require

MICRO_N = 271_117            # values per micro case: one full-width resnet20
MIN_NIBBLE_SPEEDUP = 10.0
MIN_REDUCTION = {8: 3.9, 4: 7.5}
ACCURACY_CLIENTS = 4


def micro_rows(size: dict):
    import numpy as np
    from repro.fl.quant import (QuantConfig, encode_record, decode_record,
                                pack_nibbles, stochastic_quantize,
                                unpack_nibbles)
    from repro.utils.rng import spawn_rng
    from tests.reference import (naive_pack_nibbles,
                                 naive_stochastic_quantize,
                                 naive_unpack_nibbles)

    n = MICRO_N
    rng = np.random.default_rng(0)
    codes = rng.integers(0, 16, size=n).astype(np.uint8)
    packed = pack_nibbles(codes)
    require(np.array_equal(packed, naive_pack_nibbles(codes)),
            "nibble packer drifted from the per-element reference")
    require(np.array_equal(unpack_nibbles(packed, n),
                           naive_unpack_nibbles(packed, n)),
            "nibble unpacker drifted from the per-element reference")
    values = rng.normal(size=n).astype(np.float32)
    rec8, _ = encode_record(values, QuantConfig(bits=8), spawn_rng(0, "r8"))
    rec4, _ = encode_record(values, QuantConfig(bits=4), spawn_rng(0, "r4"))

    def quantize(quantizer, bits, block):
        return lambda: quantizer(values, bits, block, spawn_rng(0, "q"))

    def encode(bits, key):
        return lambda: encode_record(values, QuantConfig(bits=bits),
                                     spawn_rng(0, key))

    pairs = {      # name: (optimized, reference, min_speedup)
        "pack.int4": (lambda: pack_nibbles(codes),
                      lambda: naive_pack_nibbles(codes), 101.93),
        "unpack.int4": (lambda: unpack_nibbles(packed, n),
                        lambda: naive_unpack_nibbles(packed, n), 195.25),
        "quantize.int8.per_tensor": (
            quantize(stochastic_quantize, 8, 0),
            quantize(naive_stochastic_quantize, 8, 0), 0.63),
        "quantize.int4.block256": (
            quantize(stochastic_quantize, 4, 256),
            quantize(naive_stochastic_quantize, 4, 256), 0.97),
        # int4 vs int8 through the shared codec: held to the ratio the
        # rows exist to show (int4's nibbles over int8's bytes); time in
        # the codec is judged end to end (bench_e2e's cpu_s_total)
        "encode_record.int4_vs_int8": (encode(4, "r4"), encode(8, "r8"),
                                       0.64),
        "decode_record.int4_vs_int8": (lambda: decode_record(rec4),
                                       lambda: decode_record(rec8), 0.46),
    }
    for name, (opt, ref, floor) in pairs.items():
        yield {"name": name,
               **interleaved(opt, ref, size["repeats"], min_speedup=floor)}


def ratio_rows(size: dict):
    """One FedAvg round on a full-width resnet20 at each bit width:
    ledger-charged uplink bytes beside the codec's sizing."""
    from repro.experiments import build, config_for
    from repro.fl.quant import QuantConfig, quant_payload_nbytes
    from repro.fl.wire import payload_nbytes

    clients = size["ratio_clients"]
    fp32_up = None
    for bits in (32, 8, 4):
        cfg = config_for("tiny", model="resnet20", width_mult=1.0,
                         input_size=32, n_clients=clients,
                         n_samples=size["ratio_samples"], local_epochs=1,
                         sample_ratio=1.0, seed=SEED, quant_bits=bits)
        algo = build(cfg, "fedavg")
        t0 = time.perf_counter()
        algo.run_round(0)
        round_s = time.perf_counter() - t0
        up = sum(algo.ledger.uplink[0].values())
        # FedAvg uplinks the full state dict, whose entry dtypes/shapes
        # are client-invariant — so the codec's exact sizing of one
        # template state, times the cohort, must equal the ledger to the
        # byte.
        template = algo.global_model.state_dict()
        per_client = payload_nbytes(template) if bits == 32 else \
            quant_payload_nbytes(template, QuantConfig(bits=bits))
        fp32_up = fp32_up or up
        yield {"name": f"bits{bits}", "bits": bits, "clients": clients,
               "uplink_bytes": up, "codec_bytes": per_client * clients,
               "ledger_equals_codec": up == per_client * clients,
               "reduction_vs_fp32": round(fp32_up / up, 4),
               "round_s": round(round_s, 3)}
        algo.close()


def accuracy_rows(size: dict):
    """Tiny-scale FedAvg at fp32 / int8+EF / int8 no-EF / int4+EF."""
    from repro.experiments import build, config_for

    rounds = size["acc_rounds"]
    fp32_acc = None
    for name, bits, ef in (("fp32", 32, True), ("int8_ef", 8, True),
                           ("int8_noef", 8, False), ("int4_ef", 4, True)):
        cfg = config_for("tiny", n_clients=ACCURACY_CLIENTS,
                         n_samples=size["acc_samples"], rounds=rounds,
                         seed=SEED, quant_bits=bits, quant_ef=ef)
        algo = build(cfg, "fedavg")
        acc = [algo.run_round(r).avg_val_acc for r in range(rounds)][-1]
        uplink = sum(sum(per.values()) for per in algo.ledger.uplink.values())
        algo.close()
        fp32_acc = acc if fp32_acc is None else fp32_acc
        yield {"name": name, "rounds": rounds, "acc": round(acc, 4),
               "gap_vs_fp32": round(fp32_acc - acc, 4),
               "uplink_bytes": uplink}


def floors(record: dict) -> list[str]:
    failures = []
    for row in record["rows"]:
        where = f"{row['case']}/{row['name']}"
        if where in ("micro/pack.int4", "micro/unpack.int4") \
                and row["speedup"] < MIN_NIBBLE_SPEEDUP:
            failures.append(f"{where}: {row['speedup']:.1f}x < "
                            f"{MIN_NIBBLE_SPEEDUP}x vs per-element reference")
        if row["case"] == "ratios":
            if not row["ledger_equals_codec"]:
                failures.append(f"{where}: ledger {row['uplink_bytes']} != "
                                f"codec {row['codec_bytes']}")
            floor = MIN_REDUCTION.get(row["bits"])
            if floor and row["reduction_vs_fp32"] < floor:
                failures.append(f"{where}: {row['reduction_vs_fp32']}x < "
                                f"{floor}x")
        # Enforced on the full (converged, 10-round) run only: a smoke
        # run's 3 rounds sit on the steep early part of the curve, where
        # seeded training noise alone moves accuracy several points.
        if where == "accuracy/int8_ef" and not record["smoke"] \
                and abs(row["gap_vs_fp32"]) > 0.01 + 1e-9:
            failures.append(f"{where}: more than 1 point from fp32")
    return failures


BENCH = Bench(
    name="quant", doc=__doc__,
    cases=(("micro", micro_rows), ("ratios", ratio_rows),
           ("accuracy", accuracy_rows)),
    full=dict(repeats=30, ratio_clients=4, ratio_samples=96, acc_rounds=10,
              acc_samples=1500),
    smoke=dict(repeats=8, ratio_clients=2, ratio_samples=48, acc_rounds=3,
               acc_samples=600),
    floors=floors)


def main(argv=None) -> int:
    return BENCH.main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
