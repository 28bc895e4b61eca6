"""Kernel benchmark: workspace/in-place hot path vs the pre-PR kernels.

Times the rewritten training kernels (DESIGN.md §10) against the
verbatim pre-optimization implementations preserved in
:mod:`repro.nn.reference`, at two granularities:

- **micro** — per-op forward/backward wall time (conv2d, max/avg pool,
  batch norm, matmul/linear, SGD step), interleaved optimized/reference
  min-of-N so machine noise hits both sides equally;
- **e2e** — wall time of a full serial FedAvg round at the tiny scale
  for ``resnet20`` and ``vgg11``, with a warm-up round first and a
  byte-identity check of the final global model state between the two
  code paths.

Writes the whole record to ``BENCH_kernels.json`` at the repo root
(single document, overwritten — the committed copy is the regression
baseline)::

    python benchmarks/bench_kernels.py                # full run
    python benchmarks/bench_kernels.py --smoke        # CI-sized
    python benchmarks/bench_kernels.py --smoke --check  # + regression gate

``--check`` compares each microbench's optimized time against the
committed baseline *before* overwriting it and exits non-zero if any op
regressed more than ``--check-factor`` (default 1.5x) beyond a 0.15ms
absolute noise floor (sub-ms ops at low repeat counts jitter more than
50% on a busy CI core), or if an e2e run was not byte-identical.

Each e2e row also carries ``arena_resident_mb`` and ``gather_idx_mb``:
the workspace arena's resident bytes and the im2col gather-index cache
after one smoke-sized FedAvg round (train + eval) of that model.  They
are exact byte counts of a fixed config, the same in smoke and full
runs, so they repeat; ``--check`` fails when either exceeds the
committed baseline by more than 10% — a memory gate that does not depend
on the box's clock.  ``shared_mb`` / ``per_layer_mb`` split the arena by
lifetime (DESIGN.md §10: the process-wide transient slot vs the slots
layers and optimizers own) so the next memory issue sees what is left.

It also enforces a speedup *floor* (``--min-speedup``, default 0.97):
every optimized kernel must at least match its reference implementation.
The floor always applies to the committed baseline's rows — so a "fix"
that quietly makes a kernel slower than the code it replaced cannot be
committed — and to live rows on full runs; smoke runs skip the live
floor since single-digit-repeat timings on a shared core jitter past
any honest threshold.  The committed baseline reflects the §10 kernels
plus the avg-pool-backward and SGD-step micro fixes that brought those
two rows back above parity.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import os
import platform
import time
from pathlib import Path

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"


# --------------------------------------------------------------------- #
# timing harness                                                         #
# --------------------------------------------------------------------- #
@contextlib.contextmanager
def no_donation():
    """Run with gradient donation disabled — the pre-PR ``_accumulate``
    semantics (defensive copy on first accumulation) for ops that have no
    separate reference implementation (matmul, elementwise backwards)."""
    from repro.tensor.tensor import Tensor
    orig = Tensor._accumulate

    def copying(self, grad, donate=None):
        return orig(self, grad)

    Tensor._accumulate = copying
    try:
        yield
    finally:
        Tensor._accumulate = orig


def interleaved(fn_opt, fn_ref, repeats: int) -> tuple[float, float]:
    """Min-of-``repeats`` seconds for each side, alternating opt/ref each
    iteration so drift and frequency noise land on both."""
    t_opt = t_ref = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn_opt()
        t_opt = min(t_opt, time.perf_counter() - t0)
        with no_donation():
            t0 = time.perf_counter()
            fn_ref()
            t_ref = min(t_ref, time.perf_counter() - t0)
    return t_opt, t_ref


def _clear_grads(*tensors) -> None:
    for t in tensors:
        t.grad = None


# --------------------------------------------------------------------- #
# micro cases                                                            #
# --------------------------------------------------------------------- #
def micro_cases(repeats: int):
    """Yield ``(name, opt_ms, ref_ms)`` per kernel, fwd and bwd."""
    import numpy as np
    import repro.nn.reference as R
    from repro.nn.conv import Conv2d
    from repro.nn.linear import Linear
    from repro.nn.norm import BatchNorm2d
    from repro.nn.pooling import AvgPool2d, MaxPool2d
    from repro.optim.sgd import SGD
    from repro.tensor.tensor import Tensor

    rng = np.random.default_rng(0)

    def x4(n=32, c=8, h=16, w=16):
        t = Tensor(rng.standard_normal((n, c, h, w)).astype(np.float32))
        t.requires_grad = True
        return t

    def fwd_bwd(name, x, fwd_opt, fwd_ref, params=()):
        """Time forward and backward of one autograd op, both sides."""
        results = {}
        for phase in ("forward", "backward"):
            def one(step, _phase=phase):
                _clear_grads(x, *params)
                if _phase == "forward":
                    t0 = time.perf_counter()
                    out = step(x)
                    dt = time.perf_counter() - t0
                else:
                    out = step(x)
                    g = np.ones(out.shape, dtype=np.float32)
                    t0 = time.perf_counter()
                    out.backward(g)
                    dt = time.perf_counter() - t0
                return dt

            t_opt = t_ref = float("inf")
            for _ in range(repeats):
                t_opt = min(t_opt, one(fwd_opt))
                with no_donation():
                    t_ref = min(t_ref, one(fwd_ref))
            results[phase] = (t_opt, t_ref)
        for phase, (t_opt, t_ref) in results.items():
            yield f"{name}.{phase}", t_opt * 1e3, t_ref * 1e3

    # conv2d: the dominant op (im2col gather + GEMMs + col2im scatter).
    conv = Conv2d(8, 16, 3, stride=1, padding=1, rng=np.random.default_rng(1))
    xc = x4()
    yield from fwd_bwd("conv2d", xc, conv,
                       lambda t: R.reference_conv2d(t, conv.weight, conv.bias,
                                                    1, 1),
                       params=(conv.weight, conv.bias))

    # max pool: vectorized scatter vs np.add.at.
    mp = MaxPool2d(2, 2)
    xm = x4(c=16)
    yield from fwd_bwd("max_pool2d", xm, mp,
                       lambda t: R.reference_max_pool2d(t, 2, 2))

    # avg pool: strided-view broadcast vs python kxk loop.
    ap = AvgPool2d(2, 2)
    xa = x4(c=16)
    yield from fwd_bwd("avg_pool2d", xa, ap,
                       lambda t: R.reference_avg_pool2d(t, 2, 2))

    # batch norm: fused in-place chain vs allocating forward/backward.
    bn = BatchNorm2d(8)
    xb = x4()
    yield from fwd_bwd("batchnorm", xb, bn,
                       lambda t: R.reference_batchnorm_forward(bn, t),
                       params=(bn.weight, bn.bias))

    # linear / matmul: same kernel both sides, isolates gradient donation.
    lin = Linear(256, 128, rng=np.random.default_rng(2))
    xl = Tensor(rng.standard_normal((64, 256)).astype(np.float32))
    xl.requires_grad = True
    yield from fwd_bwd("linear", xl, lin, lin,
                       params=(lin.weight, lin.bias))

    # SGD step: fully in-place update vs allocating update, over the
    # parameter set a tiny-scale resnet20 actually steps.
    from repro.models import build_model
    model = build_model("resnet20", num_classes=10, input_size=16,
                        width_mult=0.25, seed=3)
    named = list(model.named_parameters())
    opt_new = SGD(named, lr=0.01, momentum=0.9, weight_decay=5e-4)
    opt_old = SGD(named, lr=0.01, momentum=0.9, weight_decay=5e-4)

    def seed_grads():
        for _, p in named:
            p.grad = np.ones_like(p.data)

    def step_opt():
        seed_grads()
        t0 = time.perf_counter()
        opt_new.step()
        return time.perf_counter() - t0

    def step_ref():
        seed_grads()
        t0 = time.perf_counter()
        R.reference_sgd_step(opt_old)
        return time.perf_counter() - t0

    t_opt = t_ref = float("inf")
    for _ in range(repeats):
        t_opt = min(t_opt, step_opt())
        t_ref = min(t_ref, step_ref())
    yield "sgd.step", t_opt * 1e3, t_ref * 1e3


# --------------------------------------------------------------------- #
# end-to-end rounds                                                      #
# --------------------------------------------------------------------- #
def _fedavg(model_name: str, clients: int, samples: int, seed: int):
    """A serial FedAvg algorithm over a fresh tiny-scale setting."""
    from repro.experiments.configs import config_for, make_algorithm, make_setting
    overrides = {}
    if model_name.startswith("vgg"):
        overrides["input_size"] = 32        # five maxpools need 32x32
    cfg = config_for("tiny", model=model_name, n_clients=clients,
                     n_samples=samples, sample_ratio=1.0, seed=seed,
                     **overrides)
    return make_algorithm("fedavg", cfg, *make_setting(cfg))


def e2e_case(model_name: str, rounds: int, clients: int, samples: int,
             seed: int) -> dict:
    """Serial FedAvg rounds for one model, optimized vs reference.

    Both sides run a warm-up round, then each subsequent round is timed
    individually (min over rounds), alternating opt/ref.  Final global
    states must be byte-identical.
    """
    from repro.fl.comm import serialize_state
    from repro.nn.reference import reference_kernels

    algo_opt = _fedavg(model_name, clients, samples, seed)
    algo_ref = _fedavg(model_name, clients, samples, seed)

    algo_opt.run_round(0)                       # warm-up: arenas, caches
    with reference_kernels():
        algo_ref.run_round(0)

    t_opt = t_ref = float("inf")
    for r in range(1, rounds + 1):
        t0 = time.perf_counter()
        algo_opt.run_round(r)
        t_opt = min(t_opt, time.perf_counter() - t0)
        with reference_kernels():
            t0 = time.perf_counter()
            algo_ref.run_round(r)
            t_ref = min(t_ref, time.perf_counter() - t0)

    state_opt = serialize_state(dict(algo_opt.global_model.state_dict()))
    state_ref = serialize_state(dict(algo_ref.global_model.state_dict()))
    return {
        "model": model_name,
        "rounds_timed": rounds,
        "opt_round_s": round(t_opt, 4),
        "ref_round_s": round(t_ref, 4),
        "speedup": round(t_ref / t_opt, 4),
        "byte_identical": state_opt == state_ref,
    }


SMOKE_CLIENTS, SMOKE_SAMPLES = 3, 400
MEMORY_FIELDS = ("arena_resident_mb", "gather_idx_mb")


def arena_footprint(model_name: str, seed: int) -> dict:
    """Exact arena bytes after one smoke-sized round (train + eval)."""
    from repro.tensor import workspace
    workspace.reset()
    algo = _fedavg(model_name, SMOKE_CLIENTS, SMOKE_SAMPLES, seed)
    algo.run_round(0)
    mb = 2 ** 20
    resident = sum(workspace.resident_bytes().values())
    shared = sum(workspace.resident_bytes([workspace.transient]).values())
    return {
        "arena_resident_mb": round(resident / mb, 3),
        "shared_mb": round(shared / mb, 3),
        "per_layer_mb": round((resident - shared) / mb, 3),
        "gather_idx_mb":
            round(workspace.shared_bytes()["conv.gather_idx"] / mb, 3),
    }


# --------------------------------------------------------------------- #
# regression gate                                                        #
# --------------------------------------------------------------------- #
def check_regressions(record: dict, baseline_doc: str | None,
                      factor: float, min_speedup: float = 0.97) -> list[str]:
    """Failures of the current record against the committed baseline
    (passed as the baseline file's *pre-run* text, since the run may have
    overwritten it).

    Besides the live-vs-baseline slowdown ratio, the gate enforces a
    speedup *floor*: no micro row may sit below ``min_speedup`` vs the
    reference kernels.  The floor is checked on the committed baseline
    rows always (they were measured min-of-50 on a quiet box, so a
    below-1.0x row there is a real regression, not jitter) and on the
    live rows for full runs; smoke runs skip the live floor because
    min-of-15 on a shared CI core jitters past any honest threshold.
    """
    failures = []
    for row in record["e2e"]:
        if not row["byte_identical"]:
            failures.append(f"e2e {row['model']}: state not byte-identical")

    def floor_failures(micro_rows, which: str):
        for m in micro_rows:
            if m["speedup"] < min_speedup:
                yield (f"micro {m['name']}: {which} speedup "
                       f"{m['speedup']:.2f}x below the {min_speedup}x floor")

    if not record.get("smoke"):
        failures.extend(floor_failures(record["micro"], "live"))
    if baseline_doc is None:
        return failures + ["no committed baseline to check against"]
    try:
        baseline = json.loads(baseline_doc)
    except json.JSONDecodeError as exc:
        return failures + [f"unreadable baseline: {exc}"]
    failures.extend(floor_failures(baseline.get("micro", []), "baseline"))
    base_e2e = {r["model"]: r for r in baseline.get("e2e", [])}
    for row in record["e2e"]:
        for field in MEMORY_FIELDS:
            base_mb = base_e2e.get(row["model"], {}).get(field)
            if base_mb is not None and row[field] > 1.10 * base_mb:
                failures.append(
                    f"e2e {row['model']}: {field} {row[field]} vs baseline "
                    f"{base_mb} (> 1.10x)")
    base_micro = {m["name"]: m for m in baseline.get("micro", [])}
    for m in record["micro"]:
        base = base_micro.get(m["name"])
        if base is None:
            continue
        # 0.15ms absolute slack: the committed baseline is a min-of-50
        # on a quiet box; smoke runs are min-of-N at low N on shared CI
        # cores, where sub-ms ops jitter well past any ratio threshold.
        if m["opt_ms"] > factor * base["opt_ms"] + 0.15:
            failures.append(
                f"micro {m['name']}: {m['opt_ms']:.3f}ms vs baseline "
                f"{base['opt_ms']:.3f}ms (> {factor}x)")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run: few repeats, one timed round")
    parser.add_argument("--check", action="store_true",
                        help="fail on regression vs the committed baseline")
    parser.add_argument("--check-factor", type=float, default=1.5,
                        help="allowed slowdown factor for --check")
    parser.add_argument("--min-speedup", type=float, default=0.97,
                        help="--check floor: micro rows below this speedup "
                             "vs the reference kernels fail the gate")
    parser.add_argument("--repeats", type=int, default=None,
                        help="micro repeats (default 50, smoke 15)")
    parser.add_argument("--rounds", type=int, default=None,
                        help="timed e2e rounds (default 2, smoke 1)")
    parser.add_argument("--models", nargs="+",
                        default=["resnet20", "vgg11"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None,
                        help="record to write (default: BENCH_kernels.json; "
                             "with --smoke, bench_kernels_smoke.json in the "
                             "cwd)")
    parser.add_argument("--baseline", default=str(OUT_PATH),
                        help="baseline JSON for --check (default: the "
                             "committed record)")
    args = parser.parse_args(argv)
    from _harness import resolve_out
    out = resolve_out(args.out, OUT_PATH, args.smoke)

    repeats = args.repeats or (15 if args.smoke else 50)
    rounds = args.rounds or (1 if args.smoke else 2)
    clients = SMOKE_CLIENTS if args.smoke else 10
    samples = SMOKE_SAMPLES if args.smoke else 1500

    baseline_path = Path(args.baseline)
    baseline_doc = baseline_path.read_text() if baseline_path.exists() else None

    micro = []
    for name, opt_ms, ref_ms in micro_cases(repeats):
        micro.append({"name": name, "opt_ms": round(opt_ms, 4),
                      "ref_ms": round(ref_ms, 4),
                      "speedup": round(ref_ms / opt_ms, 4)})
        print(f"{name:22s} opt={opt_ms:8.3f}ms ref={ref_ms:8.3f}ms "
              f"speedup={ref_ms / opt_ms:5.2f}x")

    e2e = []
    for model_name in args.models:
        row = e2e_case(model_name, rounds, clients, samples, args.seed)
        row.update(arena_footprint(model_name, args.seed))
        e2e.append(row)
        status = "OK" if row["byte_identical"] else "STATE MISMATCH"
        print(f"e2e {model_name:10s} opt={row['opt_round_s']:7.2f}s/round "
              f"ref={row['ref_round_s']:7.2f}s/round "
              f"speedup={row['speedup']:5.2f}x [{status}] "
              f"arena={row['arena_resident_mb']}MB "
              f"(shared {row['shared_mb']} + per-layer "
              f"{row['per_layer_mb']}) "
              f"gather_idx={row['gather_idx_mb']}MB")

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
        "e2e": e2e,
    }
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"written to {out}")

    if args.check:
        failures = check_regressions(record, baseline_doc, args.check_factor,
                                     min_speedup=args.min_speedup)
        for f in failures:
            print(f"REGRESSION: {f}")
        return 1 if failures else 0
    return 0 if all(r["byte_identical"] for r in e2e) else 1


if __name__ == "__main__":
    raise SystemExit(main())
