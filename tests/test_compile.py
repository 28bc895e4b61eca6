"""Trace-and-replay step compiler (DESIGN.md §15).

The compiler's whole contract is "free speed": a compiled step must be
byte-for-byte identical to the eager step it replaces, fall back to
eager for anything it cannot express, and never leak state between
steps.  These tests pin that contract at both the single-step level
(unit) and across full federated runs (golden), including faults and
both round executors; the goldens also assert that replay actually
engaged, so a guard that sent every step back to eager cannot pass them
as eager == eager.
"""

import numpy as np
import pytest

from repro.models import build_model, make_vgg
from repro.nn import Dropout, conv, norm, pooling
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry
from repro.optim.sgd import SGD
from repro.tensor import Tensor, functional as F
from repro.tensor.compile import FALLBACK, StepCompiler

from tests import matrix


def _make_model(name="resnet20", size=16, **kw):
    model = build_model(name, num_classes=10, input_size=size,
                        width_mult=0.25, seed=11, **kw)
    model.train()
    return model


def _batches(n_steps, bs=8, size=16, chans=3, seed=3):
    rng = np.random.default_rng(seed)
    return [(rng.standard_normal((bs, chans, size, size)).astype(np.float32),
             rng.integers(0, 10, size=bs)) for _ in range(n_steps)]


def _eager_step(model, xb, yb):
    logits = model(Tensor(xb))
    loss = F.cross_entropy(logits, yb)
    model.zero_grad()
    loss.backward()
    return loss.item()


def _train(model, batches, compiler=None):
    opt = SGD(model.named_parameters(), lr=0.05, momentum=0.9,
              weight_decay=5e-4)
    losses = []
    for xb, yb in batches:
        lv = compiler.try_step(model, xb, yb) if compiler is not None else None
        if lv is None:
            lv = _eager_step(model, xb, yb)
        opt.step()
        losses.append(lv)
    return losses


def _vgg(dropout=0.0):
    model = make_vgg("vgg11", width_mult=0.25, dropout=dropout, seed=11)
    model.train()
    return model


# op -> (home module, shared backward kernel, position of the output array
# the test scales after the real kernel ran).
_SHARED_KERNELS = {
    "conv2d": (conv, "_backward_data", 6),                  # dw
    "batchnorm": (norm, "_backward_data", 9),               # dx
    "max_pool2d": (pooling, "_max_backward_data", 4),       # dx
    "cross_entropy": (F, "_cross_entropy_backward", 3),     # out
}


def _states_equal(a, b):
    return set(a) == set(b) and all(
        np.array_equal(a[k], b[k]) and a[k].dtype == b[k].dtype for k in a)


@pytest.fixture
def fresh_registry():
    prev = get_registry()
    reg = MetricsRegistry()
    set_registry(reg)
    yield reg
    set_registry(prev)


class TestCompiledStep:
    def test_byte_identical_to_eager(self, fresh_registry):
        batches = _batches(5)
        m_eager = _make_model()
        l_eager = _train(m_eager, batches)
        m_comp = _make_model()
        comp = StepCompiler()
        l_comp = _train(m_comp, batches, comp)
        assert l_eager == l_comp
        assert _states_equal(m_eager.state_dict(), m_comp.state_dict())
        counters = fresh_registry.snapshot()["counters"]
        assert counters["compile.captures"] == 1
        assert counters["compile.replays"] == 4

    def test_partial_batch_gets_own_plan(self, fresh_registry):
        batches = _batches(3, bs=8) + _batches(3, bs=5, seed=4)
        m_eager = _make_model()
        _train(m_eager, batches)
        m_comp = _make_model()
        comp = StepCompiler()
        _train(m_comp, batches, comp)
        assert _states_equal(m_eager.state_dict(), m_comp.state_dict())
        counters = fresh_registry.snapshot()["counters"]
        assert counters["compile.captures"] == 2
        assert counters["compile.replays"] == 4
        assert len(comp.plan_for(m_comp)) == 2

    def test_eval_mode_forces_eager(self):
        model = _make_model()
        comp = StepCompiler()
        (xb, yb), = _batches(1)
        model.eval()
        assert comp.try_step(model, xb, yb) is None
        model.train()
        assert comp.try_step(model, xb, yb) is not None

    def test_channel_masks_force_eager_until_cleared(self):
        model = _make_model()
        comp = StepCompiler()
        (xb, yb), = _batches(1)
        enc = model.encoder
        layer = enc.prunable_layers()[0]
        width = dict(enc.named_modules())[layer].out_channels
        enc.set_channel_masks({layer: np.ones(width, dtype=np.float32)})
        assert comp.try_step(model, xb, yb) is None
        enc.clear_channel_masks()
        assert comp.try_step(model, xb, yb) is not None

    @pytest.mark.parametrize("reason", ["eval", "channel_masks", "dropout"])
    def test_eager_step_counts_its_reason(self, reason, fresh_registry):
        # A guarded step declines the plan and says why: try_step leaves the
        # model as it found it, the caller's eager step is the step a run
        # without a compiler takes, and the reason's counter moves by one.
        (xb, yb), = _batches(1, size=32)

        def make():
            model = _vgg(dropout=0.5 if reason == "dropout" else 0.0)
            if reason == "eval":
                model.eval()
            if reason == "channel_masks":
                enc = model.encoder
                layer = enc.prunable_layers()[0]
                width = dict(enc.named_modules())[layer].out_channels
                enc.set_channel_masks(
                    {layer: np.ones(width, dtype=np.float32)})
            return model

        m_comp, m_eager = make(), make()
        assert StepCompiler().try_step(m_comp, xb, yb) is None
        assert _states_equal(m_comp.state_dict(), m_eager.state_dict())
        assert fresh_registry.snapshot()["counters"] == {
            f"compile.eager_steps{{reason={reason}}}": 1}
        assert _eager_step(m_comp, xb, yb) == _eager_step(m_eager, xb, yb)
        assert _states_equal(m_comp.state_dict(), m_eager.state_dict())
        for (n, p), (_, q) in zip(m_comp.named_parameters(),
                                  m_eager.named_parameters()):
            assert np.array_equal(p.grad, q.grad), n

    @pytest.mark.parametrize("op", sorted(_SHARED_KERNELS))
    def test_eager_and_replay_share_kernels(self, op, monkeypatch,
                                            fresh_registry):
        # Single source: perturb the op's kernel in its home module and the
        # eager engine and a replayed plan move together, away from the
        # unpatched run.
        batches = _batches(3, size=32)
        m_plain = _vgg()
        l_plain = _train(m_plain, batches)
        home, name, out_idx = _SHARED_KERNELS[op]
        kernel = getattr(home, name)

        def perturbed(*args):
            kernel(*args)
            args[out_idx][...] *= 1.25

        monkeypatch.setattr(home, name, perturbed)
        m_eager, m_comp = _vgg(), _vgg()
        l_eager = _train(m_eager, batches)
        l_comp = _train(m_comp, batches, StepCompiler())
        assert l_eager == l_comp != l_plain
        assert _states_equal(m_eager.state_dict(), m_comp.state_dict())
        assert not _states_equal(m_eager.state_dict(), m_plain.state_dict())
        counters = fresh_registry.snapshot()["counters"]
        assert counters["compile.captures"] == 1
        assert counters["compile.replays"] == 2

    @pytest.mark.parametrize("variant", ["non_affine_bn", "eval_mode_bn",
                                         "overlapping_pool"])
    def test_kernel_variants_replay_without_fallback(self, variant,
                                                     fresh_registry):
        # Graphs the emitters used to refuse because their hand copy of the
        # arithmetic did not cover them; the shared kernels do.
        from repro.nn import BatchNorm2d, Conv2d, Linear, MaxPool2d, Module

        overlap = variant == "overlapping_pool"

        class Net(Module):
            def __init__(self):
                super().__init__()
                rng = np.random.default_rng(0)
                self.c1 = Conv2d(3, 4, 3, padding=1, rng=rng)
                self.b1 = BatchNorm2d(4, affine=variant != "non_affine_bn")
                self.pool = MaxPool2d(3, 2) if overlap else MaxPool2d(2, 2)
                self.c2 = Conv2d(4, 4, 3, padding=1, bias=False, rng=rng)
                self.b2 = BatchNorm2d(4)
                self.lin = Linear(4 * (9 if overlap else 16), 10, rng=rng)

            def forward(self, x):
                if variant == "eval_mode_bn":
                    self.b2.training = False     # frozen statistics
                h = self.pool(self.b1(self.c1(x)).relu())
                h = self.b2(self.c2(h)).relu()
                return self.lin(h.reshape(h.shape[0], -1))

        batches = _batches(4, bs=6, size=8)
        m_eager, m_comp = Net(), Net()
        m_eager.train(), m_comp.train()
        assert _train(m_eager, batches) == _train(m_comp, batches,
                                                  StepCompiler())
        assert _states_equal(m_eager.state_dict(), m_comp.state_dict())
        counters = fresh_registry.snapshot()["counters"]
        assert counters == {"compile.captures": 1, "compile.replays": 3}

    def test_dropout_forces_eager_until_disabled(self, fresh_registry):
        batches = _batches(3, size=32)
        m_eager, m_comp = _vgg(dropout=0.5), _vgg(dropout=0.5)
        comp = StepCompiler()
        assert _train(m_eager, batches) == _train(m_comp, batches, comp)
        assert _states_equal(m_eager.state_dict(), m_comp.state_dict())
        assert comp.try_step(m_comp, *batches[0]) is None
        # Never captured: every step ran eager, and each says why.
        assert fresh_registry.snapshot()["counters"] == {
            "compile.eager_steps{reason=dropout}": 4}
        for m in m_comp.modules():
            if isinstance(m, Dropout):
                m.p = 0.0
        _train(m_comp, batches, comp)
        counters = fresh_registry.snapshot()["counters"]
        assert counters["compile.captures"] == 1
        assert counters["compile.replays"] == 2

    def test_unsupported_graph_falls_back_per_signature(self, fresh_registry):
        from repro.nn import Linear, Module

        class Odd(Module):
            def __init__(self):
                super().__init__()
                self.lin = Linear(12, 10)

            def forward(self, x):
                return self.lin(x) / 2.0   # div has no emitter

        model = Odd()
        model.train()
        rng = np.random.default_rng(0)
        xb = rng.standard_normal((4, 12)).astype(np.float32)
        yb = rng.integers(0, 10, size=4)
        comp = StepCompiler()
        # The capture step is itself a full eager step, so the first call
        # still returns the loss; the signature is then marked fallback.
        assert comp.try_step(model, xb, yb) is not None
        assert comp.try_step(model, xb, yb) is None
        sig = (xb.shape, str(xb.dtype), yb.shape, str(yb.dtype))
        assert comp.plan_for(model, sig) is FALLBACK
        counters = fresh_registry.snapshot()["counters"]
        assert counters["compile.fallbacks{reason=op: truediv}"] >= 1

    def test_plan_reuses_arena_memory_and_fuses(self, monkeypatch):
        # Batch norm's xhat and the conv / batch-norm input gradients are
        # handles of the plan, not per-layer slots.  Held by their lifetimes
        # in the one arena, they must cost less than they did as slots:
        # the arena of every other handle plus one slot per such handle
        # (0.89 vs 1.73 MB on this model).  And the residual/bias add→ReLU
        # chains must have fused.
        from repro.tensor.compile import ir, kernels
        builders = []
        fwd = kernels.FWD["cross_entropy"]

        def spy(ctx, rec):
            builders.append(ctx.pb)
            fwd(ctx, rec)

        monkeypatch.setitem(kernels.FWD, "cross_entropy", spy)
        model = _make_model()
        comp = StepCompiler()
        _train(model, _batches(2), comp)
        (plan,) = comp.plan_for(model).values()
        (pb,) = builders
        stats = plan.stats
        slotted = {"bn.xhat", "bn.dx", "conv.dx"}
        handles = [h for h in pb.handles if h.first is not None]
        slot_bytes = sum(h.nbytes for h in handles if h.name in slotted)
        rest = ir.PlanBuilder()
        for h in handles:
            if h.name not in slotted:
                twin = rest.alloc(h.shape, h.dtype, h.name)
                twin.first, twin.last = h.first, h.last
        rest.finalize()
        assert slot_bytes > 0
        assert stats["arena_bytes"] < rest.stats()["arena_bytes"] + slot_bytes
        assert stats["fused_forward"] > 0
        assert stats["instructions"] > 0

    def test_conv_input_outlives_the_conv_backward(self, monkeypatch):
        # The conv backward re-gathers its patch matrix from the conv's
        # input, so that input's planned buffer must hold the forward's
        # bytes until the backward instruction has run: live across both,
        # and sharing arena bytes with no handle that is written in between.
        from repro.tensor.compile import kernels
        convs = {}           # id(output) -> [input value, fwd idx, bwd idx]
        builders = set()
        fwd, bwd = kernels.FWD["conv2d"], kernels.BWD["conv2d"]

        def spy_fwd(ctx, rec):
            builders.add(ctx.pb)
            convs[id(rec.out)] = [ctx.val(rec.parents[0]), ctx.pb._counter,
                                  None]
            fwd(ctx, rec)

        def spy_bwd(ctx, rec, g):
            convs[id(rec.out)][2] = ctx.pb._counter
            bwd(ctx, rec, g)

        monkeypatch.setitem(kernels.FWD, "conv2d", spy_fwd)
        monkeypatch.setitem(kernels.BWD, "conv2d", spy_bwd)
        model = _make_model()
        comp = StepCompiler()
        _train(model, _batches(2), comp)
        (plan,) = comp.plan_for(model).values()
        (pb,) = builders
        assert pb.stats() == {k: plan.stats[k] for k in pb.stats()}
        handles = [h for h in pb.handles if h.first is not None]
        planned = 0
        for value, i_fwd, i_bwd in convs.values():
            h = kernels._base_of(value)
            assert i_bwd is not None and i_fwd < i_bwd
            if h is None:                # the step input: persistent memory
                continue
            planned += 1
            assert h.first <= i_fwd and i_bwd <= h.last, h
            for o in handles:
                overlap = (o is not h and o.offset < h.offset + h.nbytes
                           and h.offset < o.offset + o.nbytes)
                assert not overlap or o.last < h.first or h.last < o.first, (
                    f"{o} packed over conv input {h}")
        assert planned >= 18             # every conv of resnet20 but the stem

    def test_zero_arena_misses_after_warmup(self):
        from repro.tensor.workspace import stats_snapshot
        model = _make_model()
        comp = StepCompiler()
        opt = SGD(model.named_parameters(), lr=0.05, momentum=0.9)
        batches = _batches(6)

        def run(some):
            for xb, yb in some:
                assert comp.try_step(model, xb, yb) is not None
                opt.step()

        run(batches[:3])                          # capture + warm replays
        before = stats_snapshot()
        run(batches[3:])                          # steady-state replays
        after = stats_snapshot()
        for tag, (_, misses, _, _) in after.items():
            miss_before = before[tag][1] if tag in before else 0
            assert misses == miss_before, (
                f"arena miss in steady state for tag {tag!r}")

    def test_transient_slot_is_not_claimed(self, fresh_registry):
        # Every conv and batch norm of a step works in the one transient
        # stack; a plan that treated it as memory one op owns would mark
        # every signature as fallback: correct output, never a replay.
        model = _make_model()
        comp = StepCompiler()
        _train(model, _batches(3), comp)
        counters = fresh_registry.snapshot()["counters"]
        assert counters == {"compile.captures": 1, "compile.replays": 2}

    def test_arena_growth_recaptures(self, fresh_registry):
        # A plan bakes no layer memory.  An eval forward or an eager
        # training step at a larger batch grows the process-wide transient
        # stack — which the kernels reset and request from per call — and
        # every replay after it stays valid: nothing is recaptured.
        from repro.tensor import no_grad, workspace
        train = _batches(6)
        (xe, ye), = _batches(1, bs=16, seed=8)
        warm = []

        def run(model, compiler, grow):
            opt = SGD(model.named_parameters(), lr=0.05, momentum=0.9,
                      weight_decay=5e-4)
            losses = []
            for i, (xb, yb) in enumerate(train):
                if i == 3:
                    warm.append(workspace.transient.nbytes)
                if i == 3 and grow == "eval":
                    model.eval()
                    with no_grad():
                        losses.append(model(Tensor(xe)).data.copy())
                    model.train()
                elif i == 3:
                    losses.append(_eager_step(model, xe, ye))
                    opt.step()
                lv = compiler.try_step(model, xb, yb) if compiler else None
                losses.append(_eager_step(model, xb, yb) if lv is None else lv)
                opt.step()
            return losses

        def counters_of(grow):
            m_eager, m_comp = _make_model(), _make_model()
            l_eager = run(m_eager, None, grow)
            # The eager twin grew the shared scratch already: start cold so
            # the growth happens between the compiled twin's replays.
            workspace.reset()
            registry = MetricsRegistry()      # the fixture restores the old one
            set_registry(registry)
            l_comp = run(m_comp, StepCompiler(), grow)
            assert all(np.array_equal(a, b) for a, b in zip(l_eager, l_comp))
            assert _states_equal(m_eager.state_dict(), m_comp.state_dict())
            # Either way the bs-16 batch outgrew the stack the bs-8 steps
            # had sized — the largest kernel's scratch (pad + patch matrix
            # + GEMM output of a full-resolution conv) doubles with N —
            # under the plan's feet, and the stack was re-based.
            assert workspace.transient.nbytes > warm[-1] > 0
            assert workspace.transient.generation >= 2
            return registry.snapshot()["counters"]

        for grow in ("eval", "train"):
            assert counters_of(grow) == {"compile.captures": 1,
                                         "compile.replays": 5}, grow

    @staticmethod
    def _replay_against_eager(order):
        """Compiled and eager twins step through batches of the sizes in
        ``order``; every step's loss and every parameter gradient must be
        the eager bytes.  Returns the compiled twin and its compiler."""
        batches = [_batches(1, bs=bs, seed=i)[0] for i, bs in enumerate(order)]
        m_eager, m_comp = _make_model(), _make_model()
        opts = [SGD(m.named_parameters(), lr=0.05, momentum=0.9,
                    weight_decay=5e-4) for m in (m_eager, m_comp)]
        comp = StepCompiler()
        for step, (xb, yb) in enumerate(batches):
            assert comp.try_step(m_comp, xb, yb) == \
                _eager_step(m_eager, xb, yb), step
            for (n, p), (_, q) in zip(m_eager.named_parameters(),
                                      m_comp.named_parameters()):
                assert p.grad.dtype == q.grad.dtype, (step, n)
                assert np.array_equal(p.grad, q.grad), (step, n)
            for opt in opts:
                opt.step()
        return m_comp, comp

    def test_plans_share_one_arena(self, fresh_registry):
        # Three signatures replayed alternately through one compiler: an
        # arena holds only one step's intermediates, so the largest plan,
        # captured first, lends its arena to every later one.
        model, comp = self._replay_against_eager([32, 10, 21, 32, 10])
        plans = list(comp.plan_for(model).values())
        assert len(plans) == 3
        assert len({id(p.arena) for p in plans}) == 1
        assert comp.arena_bytes() == max(p.stats["arena_bytes"]
                                         for p in plans)
        assert fresh_registry.snapshot()["counters"] == {
            "compile.captures": 3, "compile.replays": 2}

    def test_a_larger_plan_gets_its_own_arena(self, fresh_registry):
        # Growth order: the 10-plan keeps the arena it was bound to, the
        # 32-plan's larger one becomes current (the 21-plan lands in it),
        # and nothing is recaptured for it.
        model, comp = self._replay_against_eager([10, 32, 21, 32])
        plans = {sig[0][0]: p for sig, p in comp.plan_for(model).items()}
        assert plans[10].arena is not plans[32].arena
        assert plans[21].arena is plans[32].arena
        assert comp.arena_bytes() == (plans[10].stats["arena_bytes"]
                                      + plans[32].stats["arena_bytes"])
        assert fresh_registry.snapshot()["counters"] == {
            "compile.captures": 3, "compile.replays": 1}

    def test_stale_grads_cleared_on_replay(self):
        # A parameter gradient left over from an eager step on a different
        # signature must not survive into a compiled step's output.
        model = _make_model()
        comp = StepCompiler()
        (b1,) = _batches(1, bs=8)
        (b2,) = _batches(1, bs=6, seed=9)
        comp.try_step(model, *b1)
        _eager_step(model, *b2)                   # leaves eager grads behind
        comp.try_step(model, *b1)                 # replay
        m_ref = _make_model()
        comp_ref = StepCompiler()
        comp_ref.try_step(m_ref, *b1)
        _eager_step(m_ref, *b2)
        _eager_step(m_ref, *b1)
        for (n, p), (_, q) in zip(model.named_parameters(),
                                  m_ref.named_parameters()):
            assert np.array_equal(p.grad, q.grad), n

    def test_capture_step_frees_activations_like_an_eager_step(self):
        # The capture step is an eager step: its tape and schedule pin no
        # activation through the backward, and the plan holds no second
        # copy of the parameter gradients, so beyond an eager step's peak
        # it pays at most the plan arena.  Both steps follow an eager warm
        # step, with the same gradients alive going in.
        import tracemalloc
        from repro.tensor import workspace
        rng = np.random.default_rng(3)
        xb = rng.standard_normal((4, 3, 32, 32)).astype(np.float32)
        yb = rng.integers(0, 10, size=4)

        def peak(step):
            model = _vgg()
            workspace.reset()
            _eager_step(model, xb, yb)
            tracemalloc.start()
            try:
                step(model)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        comp = StepCompiler()
        eager = peak(lambda model: _eager_step(model, xb, yb))
        capture = peak(lambda model: comp.try_step(model, xb, yb))
        assert comp.arena_bytes() > 0
        assert capture <= eager + comp.arena_bytes(), (capture, eager)

    def test_compiler_pickles_empty(self):
        import pickle
        model = _make_model()
        comp = StepCompiler()
        (xb, yb), = _batches(1)
        comp.try_step(model, xb, yb)
        clone = pickle.loads(pickle.dumps(comp))
        assert clone.plan_for(model) is None      # plans never cross pickles


# --------------------------------------------------------------------- #
# end-to-end golden identity                                            #
# --------------------------------------------------------------------- #

def _assert_replay_engaged(run):
    """The compiled run replayed (a golden must not pass as eager == eager)."""
    counters = run.counters
    assert counters["compile.replays"] > 0
    assert counters["compile.captures"] >= 1
    assert not [k for k in counters if k.startswith("compile.fallbacks")]


def _eager_replay(eager: str, replay: str):
    """The matrix's ``compile/`` references of two cells (two rounds of
    ``config_for("tiny", n_clients=3, n_samples=300)``), compared."""
    eager, replay = (matrix.reference(f"compile/{cell}")
                     for cell in (eager, replay))
    assert eager.model == replay.model
    _assert_replay_engaged(replay)


@pytest.mark.parametrize("algo_name", ["fedavg", "spatl"])
class TestCompiledGolden:
    def test_serial(self, algo_name):
        _eager_replay(f"{algo_name}-eager", f"{algo_name}-replay")

    def test_under_faults(self, algo_name):
        _eager_replay(f"{algo_name}-eager+faults",
                      f"{algo_name}-replay+faults")


def test_process_executor_compiled_matches_eager_serial():
    # replay counters merged back from the workers
    _eager_replay("fedavg-eager", "fedavg-replay-workers2")


def test_vectorized_executor_unaffected_by_compile_flag():
    """SPATL in the pool, eager vs compiled workers.  (The id predates the
    vectorized engine's removal; it is kept because the floor lists it.)"""
    _eager_replay("spatl-eager-workers2", "spatl-replay-workers2")
