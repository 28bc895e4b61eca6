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
0.15ms absolute noise floor.
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
    parser.add_argument("--out", default=str(OUT_PATH))
    parser.add_argument("--baseline", default=str(OUT_PATH),
                        help="baseline JSON for --check (default: --out)")
    args = parser.parse_args(argv)

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
    }
    out = Path(args.out)
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
