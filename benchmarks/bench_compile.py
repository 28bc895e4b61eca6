"""Step-compiler benchmark: trace-and-replay vs the eager training loop.

Times the compiled step executor (DESIGN.md §15) against the eager
autodiff loop it replaces, at two granularities:

- **micro** — single training steps (forward + backward + ``opt.step``)
  on a fixed batch, interleaved compiled/eager min-of-N so machine noise
  hits both sides equally.  The small-model/small-batch rows are
  dispatch-bound and isolate the per-op overhead the compiler removes;
  the larger rows show the kernel-bound limit.  The resnet20 micro case
  also verifies the *zero-allocation* claim: after warmup, steady-state
  replays must add no workspace-arena misses.
- **e2e** — the local-training phase of serial FedAvg rounds (sampling +
  ``local_update`` over the cohort; evaluation excluded since the
  compiler only touches training) for ``resnet20`` and ``vgg11``, with a
  warm-up round first and a byte-identity check of the final global
  model state between the two paths.  The resnet20 row uses batch 4 —
  the tiny-scale geometry where step dispatch is a large fraction of
  step time and the compiler's win is biggest; the micro bs16/bs32 rows
  show the win shrinking as conv kernels start to dominate.

Writes the whole record to ``BENCH_compile.json`` at the repo root
(single document, overwritten — the committed copy is the regression
baseline)::

    python benchmarks/bench_compile.py                  # full run
    python benchmarks/bench_compile.py --smoke          # CI-sized
    python benchmarks/bench_compile.py --smoke --check  # + regression gate

``--check`` fails on: a non-byte-identical e2e run, any steady-state
arena miss, a compiled micro time regressing more than ``--check-factor``
vs the committed baseline (beyond a 0.15ms absolute noise floor), or —
on full runs and on the committed baseline rows — a resnet20 e2e speedup
below ``--min-speedup`` (smoke runs skip the live floor: one timed round
on a shared CI core jitters past any honest threshold).
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import time
from pathlib import Path

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_compile.json"


# --------------------------------------------------------------------- #
# micro: single-step latency                                            #
# --------------------------------------------------------------------- #
def _build(model_name, size, chans, seed):
    import numpy as np
    from repro.models import build_model
    from repro.optim.sgd import SGD

    model = build_model(model_name, num_classes=10, input_size=size,
                        width_mult=0.25, seed=seed)
    model.train()
    opt = SGD(model.named_parameters(), lr=0.05, momentum=0.9)
    return model, opt


def _eager_step(model, opt, xb, yb):
    from repro.tensor import Tensor, functional as F
    logits = model(Tensor(xb))
    loss = F.cross_entropy(logits, yb)
    model.zero_grad()
    loss.backward()
    opt.step()
    return loss.item()


def micro_case(model_name, size, chans, bs, repeats, seed=0,
               check_arena=False):
    """Interleaved compiled/eager step timing for one configuration."""
    import numpy as np
    from repro.tensor.compile import StepCompiler
    from repro.tensor.workspace import stats_snapshot

    rng = np.random.default_rng(seed)
    xb = rng.standard_normal((bs, chans, size, size)).astype(np.float32)
    yb = rng.integers(0, 10, size=bs)

    m_eager, opt_eager = _build(model_name, size, chans, seed + 1)
    m_comp, opt_comp = _build(model_name, size, chans, seed + 1)
    comp = StepCompiler()

    def compiled_step():
        lv = comp.try_step(m_comp, xb, yb)
        if lv is None:                      # pragma: no cover - bench guard
            raise RuntimeError(f"{model_name}: compile fell back")
        opt_comp.step()
        return lv

    for _ in range(3):                      # warmup: capture + arenas
        _eager_step(m_eager, opt_eager, xb, yb)
        compiled_step()

    arena_before = stats_snapshot() if check_arena else None

    t_eager = t_comp = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        _eager_step(m_eager, opt_eager, xb, yb)
        t_eager = min(t_eager, time.perf_counter() - t0)
        t0 = time.perf_counter()
        compiled_step()
        t_comp = min(t_comp, time.perf_counter() - t0)

    arena_misses = None
    if check_arena:
        after = stats_snapshot()
        arena_misses = sum(
            st[1] - (arena_before[tag][1] if tag in arena_before else 0)
            for tag, st in after.items())

    (plan,) = comp.plan_for(m_comp).values()
    row = {
        "name": f"{model_name}.bs{bs}",
        "eager_ms": round(t_eager * 1e3, 4),
        "compiled_ms": round(t_comp * 1e3, 4),
        "speedup": round(t_eager / t_comp, 4),
        "plan": plan.stats,
    }
    if arena_misses is not None:
        row["arena_misses_steady"] = int(arena_misses)
    return row


# --------------------------------------------------------------------- #
# e2e: FedAvg local-training phase                                      #
# --------------------------------------------------------------------- #
def e2e_case(model_name, rounds, clients, samples, seed):
    """Serial FedAvg local-training phase, compiled vs eager.

    Both sides run a warm-up round, then each subsequent round's
    cohort-training phase is timed individually (min over rounds),
    alternating compiled/eager.  Final global states must be
    byte-identical.
    """
    from repro.experiments.configs import (config_for, make_algorithm,
                                           make_setting)
    from repro.fl.base import sample_clients
    from repro.fl.comm import serialize_state

    overrides = {}
    if model_name.startswith("vgg"):
        overrides["input_size"] = 32        # five maxpools need 32x32
    else:
        overrides["batch_size"] = 4         # see module docstring
    algos = {}
    for compiled in (False, True):
        cfg = config_for("tiny", model=model_name, n_clients=clients,
                         n_samples=samples, sample_ratio=1.0, seed=seed,
                         compile=compiled, **overrides)
        model_fn, cl = make_setting(cfg)
        algos[compiled] = make_algorithm("fedavg", cfg, model_fn, cl)

    def train_phase(algo, r):
        selected = sample_clients(algo.clients, algo.sample_ratio,
                                  algo.seed, r)
        t0 = time.perf_counter()
        updates = [algo.local_update(c, r) for c in selected]
        dt = time.perf_counter() - t0
        algo.aggregate(updates, r)
        return dt

    for algo in algos.values():             # warm-up: arenas, plans
        train_phase(algo, 0)

    t_eager = t_comp = float("inf")
    for r in range(1, rounds + 1):
        t_eager = min(t_eager, train_phase(algos[False], r))
        t_comp = min(t_comp, train_phase(algos[True], r))

    states = {c: serialize_state(dict(a.global_model.state_dict()))
              for c, a in algos.items()}
    for algo in algos.values():
        algo.close()
    return {
        "model": model_name,
        "rounds_timed": rounds,
        "eager_round_s": round(t_eager, 4),
        "compiled_round_s": round(t_comp, 4),
        "speedup": round(t_eager / t_comp, 4),
        "byte_identical": states[False] == states[True],
    }


# --------------------------------------------------------------------- #
# regression gate                                                        #
# --------------------------------------------------------------------- #
def check_regressions(record, baseline_doc, factor, min_speedup):
    """Failures of the current record against the committed baseline
    (passed as the baseline file's *pre-run* text, since the run may
    have overwritten it)."""
    failures = []
    for row in record["e2e"]:
        if not row["byte_identical"]:
            failures.append(f"e2e {row['model']}: state not byte-identical")
    for m in record["micro"]:
        if m.get("arena_misses_steady"):
            failures.append(
                f"micro {m['name']}: {m['arena_misses_steady']} arena "
                f"misses in steady-state replay (expected 0)")

    def floor_failures(e2e_rows, which):
        for row in e2e_rows:
            if row["model"] == "resnet20" and row["speedup"] < min_speedup:
                yield (f"e2e resnet20: {which} speedup "
                       f"{row['speedup']:.2f}x below the {min_speedup}x "
                       f"floor")

    if not record.get("smoke"):
        failures.extend(floor_failures(record["e2e"], "live"))
    if baseline_doc is None:
        return failures + ["no committed baseline to check against"]
    try:
        baseline = json.loads(baseline_doc)
    except json.JSONDecodeError as exc:
        return failures + [f"unreadable baseline: {exc}"]
    failures.extend(floor_failures(baseline.get("e2e", []), "baseline"))
    base_micro = {m["name"]: m for m in baseline.get("micro", [])}
    for m in record["micro"]:
        base = base_micro.get(m["name"])
        if base is None:
            continue
        # Same 0.15ms absolute slack as bench_kernels: the committed
        # baseline is a quiet-box min-of-many; smoke runs jitter.
        if m["compiled_ms"] > factor * base["compiled_ms"] + 0.15:
            failures.append(
                f"micro {m['name']}: compiled {m['compiled_ms']:.3f}ms vs "
                f"baseline {base['compiled_ms']:.3f}ms (> {factor}x)")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run: few repeats, one timed round")
    parser.add_argument("--check", action="store_true",
                        help="fail on regression vs the committed baseline")
    parser.add_argument("--check-factor", type=float, default=1.5,
                        help="allowed compiled-time slowdown for --check")
    parser.add_argument("--min-speedup", type=float, default=1.2,
                        help="--check floor for the resnet20 e2e speedup "
                             "(full runs and committed baseline rows; the "
                             "quiet-box target is >= 1.3x)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="micro repeats (default 40, smoke 10)")
    parser.add_argument("--rounds", type=int, default=None,
                        help="timed e2e rounds (default 2, smoke 1)")
    parser.add_argument("--models", nargs="+", default=["resnet20", "vgg11"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None,
                        help="record to write (default: BENCH_compile.json; "
                             "with --smoke, bench_compile_smoke.json in the "
                             "cwd)")
    parser.add_argument("--baseline", default=str(OUT_PATH),
                        help="baseline JSON for --check (default: the "
                             "committed record)")
    args = parser.parse_args(argv)
    from _harness import resolve_out
    out = resolve_out(args.out, OUT_PATH, args.smoke)

    repeats = args.repeats or (10 if args.smoke else 40)
    rounds = args.rounds or (1 if args.smoke else 2)
    clients = 3 if args.smoke else 6
    samples = 400 if args.smoke else 1200

    baseline_path = Path(args.baseline)
    baseline_doc = baseline_path.read_text() if baseline_path.exists() else None

    micro_specs = [
        # (model, size, chans, bs, check_arena) — cnn2.bs4 is the
        # dispatch-overhead probe, resnet20.bs4 the headline config,
        # bs16/bs32 the progressively kernel-bound limit.
        ("cnn2", 16, 1, 4, False),
        ("resnet20", 16, 3, 4, True),
        ("resnet20", 16, 3, 16, False),
        ("resnet20", 16, 3, 32, False),
        ("vgg11", 32, 3, 8, False),
    ]
    micro = []
    for model_name, size, chans, bs, check_arena in micro_specs:
        row = micro_case(model_name, size, chans, bs, repeats,
                         seed=args.seed, check_arena=check_arena)
        micro.append(row)
        extra = ""
        if "arena_misses_steady" in row:
            extra = f" arena_misses={row['arena_misses_steady']}"
        print(f"{row['name']:16s} eager={row['eager_ms']:8.3f}ms "
              f"compiled={row['compiled_ms']:8.3f}ms "
              f"speedup={row['speedup']:5.2f}x{extra}")

    e2e = []
    for model_name in args.models:
        row = e2e_case(model_name, rounds, clients, samples, args.seed)
        e2e.append(row)
        status = "OK" if row["byte_identical"] else "STATE MISMATCH"
        print(f"e2e {model_name:10s} eager={row['eager_round_s']:7.2f}s "
              f"compiled={row['compiled_round_s']:7.2f}s "
              f"speedup={row['speedup']:5.2f}x [{status}]")

    from repro.obs.metrics import blas_env, get_registry, observe_peak_rss
    counters = get_registry().snapshot()["counters"]
    record = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "smoke": args.smoke,
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": __import__("numpy").__version__,
        "peak_rss_bytes": observe_peak_rss(),
        "env": blas_env(),
        "compile_counters": {k: v for k, v in sorted(counters.items())
                             if k.startswith("compile.")},
        "micro": micro,
        "e2e": e2e,
    }
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"written to {out}")

    if args.check:
        failures = check_regressions(record, baseline_doc, args.check_factor,
                                     args.min_speedup)
        for f in failures:
            print(f"REGRESSION: {f}")
        return 1 if failures else 0
    return 0 if all(r["byte_identical"] for r in e2e) else 1


if __name__ == "__main__":
    raise SystemExit(main())
