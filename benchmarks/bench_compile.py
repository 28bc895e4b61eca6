"""Step-compiler benchmark: trace-and-replay vs the eager training loop.

Times the compiled step executor (DESIGN.md §15) against the eager
autodiff loop it replaces (``opt_ms`` is the compiled side, ``ref_ms``
the eager one), at two granularities:

- **micro** — single training steps (forward + backward + ``opt.step``)
  on a fixed batch, compiled/eager interleaved.  The small-model /
  small-batch rows are dispatch-bound and isolate the per-op overhead the
  compiler removes; the larger rows show the kernel-bound limit.  The
  ``resnet20.bs4`` row also measures the *zero-allocation* claim
  (``arena_misses_steady``): after warmup, steady-state replays add no
  workspace-arena misses.
- **e2e** — the local-training phase of serial FedAvg rounds (sampling +
  ``local_update`` over the cohort; evaluation excluded since the
  compiler only touches training) for ``resnet20`` and ``vgg11``, after
  a warm-up round, the two final global states required byte-identical.
  The resnet20 row uses batch 4 — the tiny-scale geometry where step
  dispatch is a large fraction of step time and the compiler's win is
  biggest; the micro bs16/bs32 rows show the win shrinking as conv
  kernels start to dominate.

    python benchmarks/bench_compile.py --smoke --check    # the CI gate

Checked (``--check``): any steady-state arena miss, a micro row below
the ``min_speedup`` declared beside it (the committed full-run speedup /
1.5 when it was set: replay vs eager through the shared kernels, whose
own time ``bench_e2e`` judges end to end), and — on full runs — a
resnet20 e2e speedup below 1.2x (the quiet-box target is >= 1.3x; smoke
runs skip it: one timed round on a shared CI core jitters past it).
"""

from __future__ import annotations

import itertools
import time

from _harness import SEED, Bench, interleaved, require

MIN_E2E_SPEEDUP = 1.2       # full-run floor on the resnet20 e2e row
# (model, size, chans, batch, min_speedup) — cnn2.bs4 is the
# dispatch-overhead probe, resnet20.bs4 the headline config (and the
# arena-miss probe), bs16/bs32 the progressively kernel-bound limit.
MICRO = (("cnn2", 16, 1, 4, 0.88), ("resnet20", 16, 3, 4, 0.87),
         ("resnet20", 16, 3, 16, 0.79), ("resnet20", 16, 3, 32, 0.71),
         ("vgg11", 32, 3, 8, 0.69))
ARENA_PROBE = "resnet20.bs4"
MODELS = ("resnet20", "vgg11")


def _build(model_name, size, seed):
    from repro.models import build_model
    from repro.optim.sgd import SGD

    model = build_model(model_name, num_classes=10, input_size=size,
                        width_mult=0.25, seed=seed)
    model.train()
    return model, SGD(model.named_parameters(), lr=0.05, momentum=0.9)


def micro_rows(size: dict):
    """Compiled vs eager step latency, one row per configuration."""
    import numpy as np
    from repro.tensor import Tensor, functional as F
    from repro.tensor.compile import StepCompiler
    from repro.tensor.workspace import stats_snapshot

    for model_name, side, chans, bs, floor in MICRO:
        name = f"{model_name}.bs{bs}"
        rng = np.random.default_rng(SEED)
        xb = rng.standard_normal((bs, chans, side, side)).astype(np.float32)
        yb = rng.integers(0, 10, size=bs)
        m_eager, opt_eager = _build(model_name, side, SEED + 1)
        m_comp, opt_comp = _build(model_name, side, SEED + 1)
        comp = StepCompiler()

        def eager_step():
            loss = F.cross_entropy(m_eager(Tensor(xb)), yb)
            m_eager.zero_grad()
            loss.backward()
            opt_eager.step()

        def compiled_step():
            if comp.try_step(m_comp, xb, yb) is None:
                raise RuntimeError(f"{name}: compile fell back")
            opt_comp.step()

        for _ in range(3):                      # warmup: capture + arenas
            eager_step()
            compiled_step()
        before = stats_snapshot()
        row = {"name": name,
               **interleaved(compiled_step, eager_step, size["repeats"],
                             min_speedup=floor)}
        if name == ARENA_PROBE:
            row["arena_misses_steady"] = int(sum(
                st[1] - (before[tag][1] if tag in before else 0)
                for tag, st in stats_snapshot().items()))
        (plan,) = comp.plan_for(m_comp).values()
        yield {**row, "plan": plan.stats}


def e2e_rows(size: dict):
    """Serial FedAvg local-training phase, compiled vs eager: a warm-up
    round each (arenas, plans), then every further round's cohort-training
    phase timed on its own, alternating sides."""
    from repro.experiments import build, config_for
    from repro.fl.base import sample_clients
    from repro.fl.comm import serialize_state
    from repro.obs.metrics import get_registry

    def engaged():
        """The compiler's own counters: a row that fell back to eager
        would otherwise just read as 1.0x."""
        counters = get_registry().snapshot()["counters"]
        return {kind: int(sum(v for k, v in counters.items()
                              if k.startswith(f"compile.{kind}")))
                for kind in ("captures", "replays", "fallbacks")}

    def train_phase(algo, r):
        selected = sample_clients(algo.clients, algo.sample_ratio,
                                  algo.seed, r)
        t0 = time.perf_counter()
        updates = [algo.local_update(c, r) for c in selected]
        dt = time.perf_counter() - t0
        algo.aggregate(updates, r)
        return dt

    for model_name in MODELS:
        # vgg: five maxpools need 32x32; resnet20: see the module docstring
        overrides = {"input_size": 32} if model_name.startswith("vgg") \
            else {"batch_size": 4}
        algos, before = {}, engaged()
        for compiled in (False, True):
            cfg = config_for("tiny", model=model_name,
                             n_clients=size["clients"],
                             n_samples=size["samples"], sample_ratio=1.0,
                             seed=SEED, compile=compiled, **overrides)
            algos[compiled] = build(cfg, "fedavg")
            train_phase(algos[compiled], 0)
        r_comp, r_eager = itertools.count(1), itertools.count(1)
        timing = interleaved(
            lambda: train_phase(algos[True], next(r_comp)),
            lambda: train_phase(algos[False], next(r_eager)), size["rounds"],
            self_timed=True)
        states = [serialize_state(dict(a.global_model.state_dict()))
                  for a in algos.values()]
        for algo in algos.values():
            algo.close()
        require(states[0] == states[1], f"e2e {model_name}: compiled and "
                "eager training reached different global states")
        yield {"name": model_name, **timing,
               **{k: v - before[k] for k, v in engaged().items()}}


def floors(record: dict) -> list[str]:
    rows = record["rows"]
    failures = [f"micro/{r['name']}: {r['arena_misses_steady']} arena "
                "misses in steady-state replay (expected 0)"
                for r in rows if r.get("arena_misses_steady")]
    if not record["smoke"]:
        failures += [f"e2e/resnet20: speedup {r['speedup']:.2f}x below the "
                     f"{MIN_E2E_SPEEDUP}x floor" for r in rows
                     if (r["case"], r["name"]) == ("e2e", "resnet20")
                     and r["speedup"] < MIN_E2E_SPEEDUP]
    return failures


BENCH = Bench(
    name="compile", doc=__doc__,
    cases=(("micro", micro_rows), ("e2e", e2e_rows)),
    full=dict(repeats=40, rounds=2, clients=6, samples=1200),
    smoke=dict(repeats=10, rounds=1, clients=3, samples=400),
    floors=floors)


def main(argv=None) -> int:
    return BENCH.main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
