"""Kernel benchmark: workspace/in-place hot path vs the pre-PR kernels.

Times the rewritten training kernels (DESIGN.md §10) against the
verbatim pre-optimization implementations preserved in
:mod:`tests.reference`, at two granularities:

- **micro** — per-op wall time, optimized/reference interleaved: forward
  and backward of conv2d, batch norm and max pool, the backward of avg
  pool and matmul/linear (their forwards are the reference's own code),
  and the SGD step;
- **e2e** — wall time of a full serial FedAvg round at the tiny scale
  for ``resnet20`` and ``vgg11``, after a warm-up round, the two final
  global states required byte-identical.  Each row also carries
  ``arena_resident_mb`` / ``gather_idx_mb``: the workspace arena's
  resident bytes and the im2col gather-index cache after one smoke-sized
  round (train + eval) of that model — exact byte counts of a fixed
  config, the same in smoke and full runs and on any box.  After the
  round the arena is the transient stack alone: no layer owns memory
  (DESIGN.md §10.1).  So the arena no longer shows where a step's memory
  goes — its activations, ``xhat`` and input gradients live in the step —
  and ``step_peak_mb`` is the ``tracemalloc`` peak over that same round:
  every array NumPy allocates is traced, so it repeats to a few KB.

    python benchmarks/bench_kernels.py --smoke --check    # the CI gate

Checked (``--check``): each micro row against the ``min_speedup``
declared beside it (the committed full-run speedup / 1.5 when it was
set), the step peak and both byte counts against :data:`MAX_MB` (that
run's x 1.10; a change that lowers memory lowers its ceiling in the
same diff), and on full runs the speedup floor: every optimized kernel
must at least match the reference it replaced, so a "fix" that quietly
makes a kernel slower than the old code cannot be recorded.  Smoke runs
skip that 0.97x floor (few-repeat timings on a shared core jitter past
it).
"""

from __future__ import annotations

import contextlib
import itertools
import time

from _harness import SEED, Bench, interleaved, require

MIN_SPEEDUP = 0.97          # full-run micro floor vs the reference kernels
MODELS = ("resnet20", "vgg11")
FOOTPRINT_CLIENTS, FOOTPRINT_SAMPLES = 3, 400    # the smoke-sized round
#: Ceilings of the smoke-sized round's byte counts, per model.
MAX_MB = {"resnet20": {"step_peak_mb": 6.665, "arena_resident_mb": 1.839,
                       "gather_idx_mb": 0.222},
          "vgg11": {"step_peak_mb": 34.522, "arena_resident_mb": 8.011,
                    "gather_idx_mb": 1.276}}


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


def micro_rows(size: dict):
    """One row per kernel and direction."""
    import numpy as np
    from tests import reference as R
    from repro.models import build_model
    from repro.nn.conv import Conv2d
    from repro.nn.linear import Linear
    from repro.nn.norm import BatchNorm2d
    from repro.nn.pooling import AvgPool2d, MaxPool2d
    from repro.optim.sgd import SGD
    from repro.tensor.tensor import Tensor

    rng = np.random.default_rng(0)
    repeats = size["repeats"]

    def x4(n=32, c=8, h=16, w=16):
        t = Tensor(rng.standard_normal((n, c, h, w)).astype(np.float32))
        t.requires_grad = True
        return t

    def fwd_bwd(name, x, fwd_opt, fwd_ref, floors, params=(),
                phases=("forward", "backward")):
        """Forward and backward of one autograd op, both sides; the
        backward rows time ``backward`` only, after an untimed forward.
        ``floors`` holds each phase's ``min_speedup``."""
        def one(step, phase):
            for t in (x, *params):
                t.grad = None
            t0 = time.perf_counter()
            out = step(x)
            if phase == "backward":
                g = np.ones(out.shape, dtype=np.float32)
                t0 = time.perf_counter()
                out.backward(g)
            return time.perf_counter() - t0

        def ref(phase):
            with no_donation():
                return one(fwd_ref, phase)

        for phase, floor in zip(phases, floors):
            yield {"name": f"{name}.{phase}",
                   **interleaved(lambda: one(fwd_opt, phase),
                                 lambda: ref(phase), repeats,
                                 self_timed=True, min_speedup=floor)}

    # conv2d: the dominant op (im2col gather + GEMMs + col2im scatter).
    conv = Conv2d(8, 16, 3, stride=1, padding=1, rng=np.random.default_rng(1))
    yield from fwd_bwd("conv2d", x4(), conv,
                       lambda t: R.reference_conv2d(t, conv.weight, conv.bias,
                                                    1, 1),
                       (1.25, 0.90), params=(conv.weight, conv.bias))
    # max pool: one strided pass per window tap, forward (max and argmax
    # together) and backward (per-tap bit selects), vs the window copy,
    # argmax and take_along_axis forward and the np.add.at scatter.
    yield from fwd_bwd("max_pool2d", x4(c=16), MaxPool2d(2, 2),
                       lambda t: R.reference_max_pool2d(t, 2, 2), (3.92, 3.32))
    # The avg-pool and linear forwards time the same arithmetic on both
    # sides (0.98-1.00x, and a 0.97x floor failed on untouched code), so
    # only their backwards are rows.
    # avg pool: strided-view broadcast vs python kxk loop.
    yield from fwd_bwd("avg_pool2d", x4(c=16), AvgPool2d(2, 2),
                       lambda t: R.reference_avg_pool2d(t, 2, 2), (1.25,),
                       phases=("backward",))
    # batch norm: fused in-place chain vs allocating forward/backward.
    bn = BatchNorm2d(8)
    yield from fwd_bwd("batchnorm", x4(), bn,
                       lambda t: R.reference_batchnorm_forward(bn, t),
                       (0.85, 0.87), params=(bn.weight, bn.bias))
    # linear / matmul: same kernel both sides, isolates gradient donation.
    # Its floor is on donation vs none inside shared code, the ratio the
    # row exists to show; time in the shared matmul is judged end to end
    # (bench_e2e's paired cpu_s_total).
    lin = Linear(256, 128, rng=np.random.default_rng(2))
    xl = Tensor(rng.standard_normal((64, 256)).astype(np.float32))
    xl.requires_grad = True
    yield from fwd_bwd("linear", xl, lin, lin, (0.72,),
                       params=(lin.weight, lin.bias), phases=("backward",))

    # SGD step: fully in-place update vs allocating update, over the
    # parameter set a tiny-scale resnet20 actually steps.
    named = list(build_model("resnet20", num_classes=10, input_size=16,
                             width_mult=0.25, seed=3).named_parameters())
    opt_new = SGD(named, lr=0.01, momentum=0.9, weight_decay=5e-4)
    opt_old = SGD(named, lr=0.01, momentum=0.9, weight_decay=5e-4)

    def step(update):
        for _, p in named:
            p.grad = np.ones_like(p.data)
        t0 = time.perf_counter()
        update()
        return time.perf_counter() - t0

    yield {"name": "sgd.step",
           **interleaved(lambda: step(opt_new.step),
                         lambda: step(lambda: R.reference_sgd_step(opt_old)),
                         repeats, self_timed=True, min_speedup=0.71)}


def _fedavg(model_name: str, clients: int, samples: int):
    """A serial FedAvg algorithm over a fresh tiny-scale setting."""
    from repro.experiments import build, config_for
    overrides = {}
    if model_name.startswith("vgg"):
        overrides["input_size"] = 32        # five maxpools need 32x32
    cfg = config_for("tiny", model=model_name, n_clients=clients,
                     n_samples=samples, sample_ratio=1.0, seed=SEED,
                     **overrides)
    return build(cfg, "fedavg")


def arena_footprint(model_name: str) -> dict:
    """Exact arena bytes after one smoke-sized round (train + eval), and
    the ``tracemalloc`` peak over that round."""
    import tracemalloc
    from repro.tensor import workspace
    workspace.reset()
    algo = _fedavg(model_name, FOOTPRINT_CLIENTS, FOOTPRINT_SAMPLES)
    tracemalloc.start()
    try:
        algo.run_round(0)
        step_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    mb = 2 ** 20
    resident = sum(workspace.resident_bytes().values())
    return {
        "step_peak_mb": round(step_peak / mb, 3),
        "arena_resident_mb": round(resident / mb, 3),
        "gather_idx_mb":
            round(workspace.shared_bytes()["conv.gather_idx"] / mb, 3),
    }


def e2e_rows(size: dict):
    """Serial FedAvg rounds per model, optimized vs reference kernels:
    a warm-up round each (arenas, caches), then every further round timed
    on its own, alternating sides."""
    from repro.fl.comm import serialize_state
    from tests.reference import reference_kernels

    for model_name in MODELS:
        algo_opt, algo_ref = (_fedavg(model_name, size["clients"],
                                      size["samples"]) for _ in range(2))
        algo_opt.run_round(0)
        with reference_kernels():
            algo_ref.run_round(0)
        r_opt, r_ref = itertools.count(1), itertools.count(1)

        def ref_round():
            with reference_kernels():
                algo_ref.run_round(next(r_ref))

        timing = interleaved(lambda: algo_opt.run_round(next(r_opt)),
                             ref_round, size["rounds"])
        require(serialize_state(dict(algo_opt.global_model.state_dict()))
                == serialize_state(dict(algo_ref.global_model.state_dict())),
                f"e2e {model_name}: optimized and reference kernels "
                "reached different global states")
        yield {"name": model_name, **timing, **arena_footprint(model_name),
               **{f"max_{k}": v for k, v in MAX_MB[model_name].items()}}


def floors(record: dict) -> list[str]:
    if record["smoke"]:
        return []
    return [f"micro/{r['name']}: speedup {r['speedup']:.2f}x below the "
            f"{MIN_SPEEDUP}x floor" for r in record["rows"]
            if r["case"] == "micro" and r["speedup"] < MIN_SPEEDUP]


BENCH = Bench(
    name="kernels", doc=__doc__,
    cases=(("micro", micro_rows), ("e2e", e2e_rows)),
    full=dict(repeats=50, rounds=2, clients=10, samples=1500),
    smoke=dict(repeats=15, rounds=1, clients=FOOTPRINT_CLIENTS,
               samples=FOOTPRINT_SAMPLES),
    floors=floors)


def main(argv=None) -> int:
    return BENCH.main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
