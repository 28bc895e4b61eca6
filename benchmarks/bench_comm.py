"""Comm benchmark: fast transport layer vs the pre-PR pipeline.

Times the zero-copy wire codec, the per-round broadcast cache, and the
vectorized salient aggregation (DESIGN.md §11) against the verbatim
pre-optimization implementations, optimized/reference interleaved:

- **codec** — passes over a full VGG-11 state dict (the paper's largest
  model): single-buffer serialize vs the original join-based encoder,
  zero-copy vs copying deserialize, the serialize→deserialize round
  trip, broadcast-cache hits;
- **aggregate** — Eq. 12 aggregation vs :mod:`tests.reference_agg`,
  required bitwise-equal before it is timed;
- **downlink** — {fedavg, scaffold, spatl static, spatl RL} x {resnet20,
  vgg11} for four full-participation rounds: per round, the bytes a
  full-state downlink would have cost against what the versioned row
  delta (DESIGN.md §5.1) charged, plus what one payload costs to build
  (state comparison + delta, once per round) and to serve again from the
  per-base memo; and what a late joiner — a client first contacted at
  round 3, after three folds — is sent against the full state.  Byte
  counts are exact and repeat.

The ``--workers 2`` end-to-end comparison of a once-per-worker sync blob
against per-task blobs this script used to carry passed its verdict
(1.10x / 1.19x, byte-identical; CHANGES.md PR 19) and went with the
``broadcast=`` option it compared; the pool now writes the blob to one
file per round (DESIGN.md §14), and pool end-to-end time is
``benchmarks/e2e``'s ``fedavg_resnet20_fastpath``.

    python benchmarks/bench_comm.py --smoke --check    # the CI gate

Gated (``--check``): each codec/aggregate ``opt_ms`` against the last
full record (1.5x beyond a 0.15 ms noise floor), and the delta
downlink's byte rules — no payload exceeds the full state; a first
contact (round 0, the late joiner) costs FedAvg exactly the full state,
SPATL less at any round and SCAFFOLD less at round 0 (``c`` is born zero
on both sides and its zero rows do not travel; SCAFFOLD's first fold
moves every row of it, SPATL's Eq. 11 only the uploaded filters'); and
SPATL's round >= 1 delta is smaller than the full state.
"""

from __future__ import annotations

import statistics
import struct
import time
import zlib

from _harness import Bench, Gate, interleaved, require


def legacy_serialize(state, checksums=False):
    """The original join-based encoder the wire format is defined by
    (the codec reference side, verbatim)."""
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


def codec_rows(size: dict):
    """Codec passes over a full VGG-11 state dict."""
    from repro.fl import wire
    from repro.models import build_model

    state = dict(build_model("vgg11", num_classes=10, input_size=32,
                             seed=0).state_dict())
    blob = wire.serialize(state)
    require(blob == legacy_serialize(state), "wire format drifted from the "
            "join-based encoder that defines it")
    cache = wire.BroadcastCache()
    cache.encode(state, token=1)
    pairs = {
        # serialize to immutable bytes: single-buffer writer vs joins
        "serialize.vgg11": (lambda: wire.serialize(state),
                            lambda: legacy_serialize(state)),
        "serialize.vgg11.checksums": (
            lambda: wire.serialize(state, checksums=True),
            lambda: legacy_serialize(state, checksums=True)),
        # serialize into reusable arena scratch (the traced-path encode)
        "serialize.vgg11.scratch": (lambda: wire.serialize_scratch(state),
                                    lambda: legacy_serialize(state)),
        # deserialize: read-only views vs per-entry copies
        "deserialize.vgg11.zero_copy": (
            lambda: wire.deserialize(blob, copy=False),
            lambda: wire.deserialize(blob, copy=True)),
        # the acceptance case: one full round trip, fast path (scratch
        # encode + zero-copy decode) vs pre-PR path (join encode + copying
        # decode)
        "roundtrip.vgg11": (
            lambda: wire.deserialize(wire.serialize_scratch(state),
                                     copy=False),
            lambda: wire.deserialize(legacy_serialize(state), copy=True)),
        # broadcast cache: a token hit vs re-encoding for every client
        "broadcast.hit.vgg11": (lambda: cache.encode(state, token=1),
                                lambda: wire.serialize(state)),
    }
    for name, (opt, ref) in pairs.items():
        yield {"name": name, **interleaved(opt, ref, size["repeats"])}


def aggregate_rows(size: dict):
    """Eq. 12 vectorized vs the reference scatter loop."""
    import numpy as np
    from repro.core.aggregation import salient_aggregate
    from tests.reference_agg import reference_salient_aggregate

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

        require(opt().tobytes() == ref().tobytes(),
                f"aggregation drifted from the oracle ({label})")
        yield {"name": label, **interleaved(opt, ref, size["repeats"])}


DOWNLINK_ALGOS = (("fedavg", "fedavg", {}), ("scaffold", "scaffold", {}),
                  ("spatl_static", "spatl", {}),
                  ("spatl_rl", "spatl", {"use_rl_policy": True}))
DOWNLINK_MODELS = (("resnet20", {}), ("vgg11", {"input_size": 32}))
DOWNLINK_ROUNDS = 4
JOINER_ROUND = 3


def downlink_rows(size: dict):
    """One row per algorithm x model: full vs delta downlink bytes per
    round, the payload build / memo-hit time, and a late joiner's bytes."""
    from repro.experiments import build, config_for
    from repro.fl import payload_nbytes

    n_clients = size["downlink_clients"]
    for label, algorithm, algo_cfg in DOWNLINK_ALGOS:
        for model, model_cfg in DOWNLINK_MODELS:
            cfg = config_for("tiny", seed=0, model=model, n_clients=n_clients,
                             n_samples=80 * n_clients, sample_ratio=1.0,
                             local_epochs=1, **model_cfg, **algo_cfg)
            algo = build(cfg, algorithm)
            clients = algo.clients
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
                state = algo.downlink_state()
                full.append(n_clients * payload_nbytes(state))
                if r == JOINER_ROUND:
                    # a first contact's payload is a function of the
                    # server state alone: no client has to sit out
                    joiner = payload_nbytes(
                        algo.transport.versions.delta(state, None))
                algo.run_round(r)
                delta.append(sum(algo.ledger.downlink[r].values()))
            algo.close()
            yield {"name": f"{label}.{model}", "clients": n_clients,
                   "full_bytes": full, "delta_bytes": delta,
                   "steady_ratio": round(delta[-1] / full[-1], 4),
                   "joiner_bytes": joiner,
                   "joiner_full_bytes": full[JOINER_ROUND] // n_clients,
                   "build_ms": round(statistics.median(build_ms), 3),
                   "memo_hit_ms": round(statistics.median(hit_ms), 4)}


def floors(record: dict) -> list[str]:
    """The delta downlink's byte invariants (module docstring)."""
    failures = []
    for row in (r for r in record["rows"] if r["case"] == "downlink"):
        name = row["name"]
        spatl = name.startswith("spatl")
        zero_born = spatl or name.startswith("scaffold")
        full, delta = row["full_bytes"], row["delta_bytes"]
        if (delta[0] < full[0]) != zero_born:
            failures.append(
                f"downlink/{name}: round 0 sent {delta[0]} B, the full state "
                f"is {full[0]} B: " + ("c is born zero and must not travel"
                                       if zero_born else "they must be equal"))
        for r, (d, f) in enumerate(zip(delta, full)):
            if d > f:
                failures.append(f"downlink/{name}: round {r} delta "
                                f"{d} B exceeds the full state {f} B")
            elif r and spatl and d == f:
                failures.append(f"downlink/{name}: round {r} delta "
                                f"is not smaller than the full state {f} B")
        joiner, whole = row["joiner_bytes"], row["joiner_full_bytes"]
        if joiner > whole or (not zero_born and joiner != whole) \
                or (spatl and joiner == whole):
            failures.append(
                f"downlink/{name}: a late joiner is sent {joiner} B, the "
                f"full state is {whole} B: " + (
                    "its never-uploaded rows of c are zeros it holds" if spatl
                    else "at most that" if zero_born
                    else "they must be equal"))
    return failures


BENCH = Bench(
    name="comm", doc=__doc__,
    cases=(("codec", codec_rows), ("aggregate", aggregate_rows),
           ("downlink", downlink_rows)),
    full=dict(repeats=30, downlink_clients=4),
    smoke=dict(repeats=8, downlink_clients=2),
    gates=(Gate("codec", "opt_ms", slack=0.15),
           Gate("aggregate", "opt_ms", slack=0.15)),
    floors=floors)


def main(argv=None) -> int:
    return BENCH.main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
