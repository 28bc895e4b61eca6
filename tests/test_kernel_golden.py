"""Golden-state byte-identity: optimized kernels vs the pre-PR reference.

The workspace/in-place kernel rewrites (DESIGN.md §10) must not change
training numerics *at all*: after identical FedAvg and SPATL rounds, the
serialized global model state produced by the optimized kernels must be
byte-for-byte equal to the state produced by the verbatim pre-PR
implementations in :mod:`repro.nn.reference` — and the process-parallel
executor must agree with both.  Evaluation runs the same kernels, so
what a run *reports* (per-round accuracy and loss, ``Client.evaluate``)
is held to the oracle with ``==`` as well.
"""

import numpy as np
import pytest

from repro.experiments.configs import config_for, make_algorithm, make_setting
from repro.fl.comm import serialize_state
from repro.nn.reference import reference_kernels


def _final_state(algo_name: str, *, use_reference: bool = False,
                 workers: int = 1, rounds: int = 2) -> bytes:
    return _final(algo_name, use_reference=use_reference, workers=workers,
                  rounds=rounds)[0]


def _final(algo_name: str, *, use_reference: bool = False, workers: int = 1,
           rounds: int = 2) -> tuple:
    """``(state bytes, per-round (val acc, train loss), one evaluate())``."""
    cfg = config_for("tiny", n_clients=4, n_samples=400, rounds=rounds,
                     workers=workers, seed=0)
    if use_reference:
        with reference_kernels():
            return _run(algo_name, cfg, rounds)
    return _run(algo_name, cfg, rounds)


def _run(algo_name, cfg, rounds) -> tuple:
    model_fn, clients = make_setting(cfg)
    algo = make_algorithm(algo_name, cfg, model_fn, clients)
    try:
        results = [algo.run_round(r) for r in range(rounds)]
        return (serialize_state(dict(algo.global_model.state_dict())),
                [(res.avg_val_acc, res.avg_train_loss) for res in results],
                clients[0].evaluate(algo.global_model))
    finally:
        algo.close()


@pytest.mark.parametrize("algo_name", ["fedavg", "spatl"])
class TestGoldenState:
    def test_serial_matches_reference(self, algo_name):
        opt_state, opt_rounds, opt_eval = _final(algo_name)
        ref_state, ref_rounds, ref_eval = _final(algo_name,
                                                 use_reference=True)
        assert opt_state == ref_state, (
            f"{algo_name}: optimized kernels changed training numerics")
        assert opt_rounds == ref_rounds, (
            f"{algo_name}: optimized kernels changed the reported metrics")
        assert opt_eval == ref_eval, (
            f"{algo_name}: Client.evaluate diverged from the oracle")

    def test_workers2_matches_serial(self, algo_name):
        serial = _final_state(algo_name)
        parallel = _final_state(algo_name, workers=2)
        assert serial == parallel, (
            f"{algo_name}: worker-pool run diverged from serial")


def test_partial_batch_conv_backward_matches_reference():
    """Batch sizes whose transposed grad reshapes to a zero-copy view
    (N == 1) steer BLAS differently; the optimized backward must follow
    the reference layout exactly.  Regression test for the last-partial-
    batch divergence found during the rewrite."""
    from repro.models import build_model
    from repro.optim.sgd import SGD
    from repro.tensor import Tensor, functional as F

    def train(use_reference):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 3, 12, 12)).astype(np.float32)
        y = rng.integers(0, 10, 1)

        def steps():
            model = build_model("resnet20", width_mult=0.25, input_size=12,
                                seed=4)
            opt = SGD(model.named_parameters(), lr=0.05, momentum=0.9)
            for _ in range(2):
                opt.zero_grad()
                F.cross_entropy(model(Tensor(x)), y).backward()
                opt.step()
            return {k: v.copy() for k, v in model.state_dict().items()}

        if use_reference:
            with reference_kernels():
                return steps()
        return steps()

    opt_state = train(False)
    ref_state = train(True)
    for key in ref_state:
        assert np.array_equal(opt_state[key], ref_state[key]), key


def _conv_fwd_bwd(x, weight, bias, ws):
    """Output, input grad and weight grad of one padded conv2d call."""
    from repro.nn.conv import conv2d
    from repro.tensor import Tensor
    xt = Tensor(x, requires_grad=True)
    wt = Tensor(weight, requires_grad=True)
    out = conv2d(xt, wt, Tensor(bias), stride=1, padding=1, ws=ws)
    (out * out).sum().backward()
    return out.data.copy(), xt.grad.copy(), wt.grad.copy()


@pytest.mark.parametrize("use_gather", [True, False])
@pytest.mark.parametrize("shapes,grows", [
    ([(8, 6), (5, 6), (8, 6)], False),     # partial batch and back
    ([(8, 6), (16, 6), (8, 6)], True),     # larger eval batch: every tag grows
    ([(6, 6), (6, 4), (6, 6)], False),     # border lands on an old interior
])
def test_conv_slot_shared_across_input_shapes(monkeypatch, use_gather,
                                              shapes, grows):
    """One slot serving alternating ``(batch, height)`` inputs (prefix
    views of one base, pad border re-zeroed on each switch, memoized
    window view dropped on growth) is byte-equal to the allocating
    ``ws=None`` path — through the gather path and, with the index gate
    shut, the ``conv2d.win`` cached-view path."""
    from repro.nn import conv
    from repro.tensor import workspace
    workspace.reset()
    if not use_gather:
        monkeypatch.setattr(conv, "_GATHER_IDX_MAX_BYTES", 0)
    rng = np.random.default_rng(5)
    weight = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
    bias = rng.standard_normal(4).astype(np.float32)
    ws = workspace.slot_for(type("Owner", (), {})())
    for n, hw in shapes:
        # Non-zero everywhere, so a stale interior left where a border
        # belongs would show.
        x = (rng.standard_normal((n, 3, hw, hw)) + 3.0).astype(np.float32)
        got = _conv_fwd_bwd(x, weight, bias, ws)
        want = _conv_fwd_bwd(x, weight, bias, None)
        for g, w in zip(got, want):
            assert np.array_equal(g, w), (use_gather, n, hw)
    assert ws.generation == (len(ws._bases) if grows else 0)
    assert ("conv2d.win" in workspace.stats_snapshot()) == (not use_gather)


def test_gather_indices_prefix_equals_fresh_build():
    """Row r of the im2col index matrix does not depend on N, so the
    index cached for the largest batch serves every smaller one."""
    from repro.nn import conv
    from repro.tensor import workspace
    workspace.reset()
    geom = (3, 7, 6)                      # C, H, W
    big = conv._gather_indices((9, *geom), 3, 2, 2)
    cached = {n: conv._gather_indices((n, *geom), 3, 2, 2).copy()
              for n in range(1, 10)}
    (entry,) = conv._GATHER_IDX.values()  # one entry per geometry
    assert np.shares_memory(entry, big) and entry.shape == big.shape
    for n, got in cached.items():
        workspace.reset()
        fresh = conv._gather_indices((n, *geom), 3, 2, 2)
        assert got.flags["C_CONTIGUOUS"]
        assert np.array_equal(got, fresh), n
