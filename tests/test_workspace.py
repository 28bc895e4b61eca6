"""Workspace arena, gradient donation, dtype guard, and the eval forward.

Covers the DESIGN.md §10 machinery: the transient stack's hit/miss
accounting and residency, the optimizer's own scratch, metrics export,
the ``_accumulate`` donation protocol (leaf grads never alias arena
memory), the float64 upcast guard over a full train step, and the
evaluation forward (``eval()`` + ``no_grad``, the same kernels as
training — there is no folded variant) against the oracle.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.tensor import Tensor, forbid_dtype, no_grad, workspace


def _spy_stack(monkeypatch):
    """Watch the transient stack.  Returns ``(calls, largest)``: one
    ``{"tags": [...], "end": bytes}`` per kernel call (reset to reset) —
    ``end`` the furthest its live requests reached, modelled from the
    requests alone (each starts at the next ``ALIGN`` offset past the live
    ones; a release pops back to its mark) — and each tag's largest
    request."""
    stack = workspace.TransientStack
    reset, mark, release, buffer = (stack.reset, stack.mark, stack.release,
                                    stack.buffer)
    calls, largest, marks, live = [], {}, [], [0]

    def spy_reset(self):
        calls.append({"tags": [], "end": 0})
        live[0] = 0
        reset(self)

    def spy_mark(self):
        marks.append(live[0])
        return mark(self)

    def spy_release(self, top):
        live[0] = marks.pop()
        release(self, top)

    def spy_buffer(self, tag, shape, dtype):
        buf = buffer(self, tag, shape, dtype)
        live[0] = -(-live[0] // workspace.ALIGN) * workspace.ALIGN + buf.nbytes
        calls[-1]["tags"].append(tag)
        calls[-1]["end"] = max(calls[-1]["end"], live[0])
        largest[tag] = max(largest.get(tag, 0), buf.nbytes)
        return buf

    for name, fn in (("reset", spy_reset), ("mark", spy_mark),
                     ("release", spy_release), ("buffer", spy_buffer)):
        monkeypatch.setattr(stack, name, fn)
    return calls, largest


class TestWorkspaceSlot:
    def test_hit_miss_and_bytes_accounting(self):
        workspace.reset()
        stack = workspace.transient
        before = workspace.tag_stats("t.acct")
        h0, m0, s0 = before.hits, before.misses, before.bytes_saved
        for _ in range(2):
            stack.reset()
            stack.buffer("t.acct", (8,), np.float32)
        st = workspace.tag_stats("t.acct")
        assert st.misses == m0 + 1
        assert st.hits == h0 + 1
        assert st.bytes_saved == s0 + 32
        assert 0 < st.hit_rate <= 1

    def test_publish_metrics(self):
        from repro.obs.metrics import MetricsRegistry
        stack = workspace.transient
        for _ in range(2):
            stack.reset()
            stack.buffer("t.pub", (4,), np.float32)
        reg = MetricsRegistry()
        workspace.publish_metrics(reg)
        st = workspace.tag_stats("t.pub")
        assert reg.counter("workspace.hits", tag="t.pub").value == st.hits
        assert reg.counter("workspace.misses", tag="t.pub").value == st.misses
        assert reg.counter("workspace.bytes_saved",
                           tag="t.pub").value == st.bytes_saved


    def test_publish_metrics_reports_residency(self):
        from repro.nn import conv
        from repro.obs.metrics import MetricsRegistry
        workspace.reset()
        stack = workspace.transient
        for n in (4, 16, 16):
            stack.reset()
            stack.buffer("t.res", (n,), np.float32)
        conv._gather_indices((2, 3, 6, 6), 3, 3, 1)
        reg = MetricsRegistry()
        workspace.publish_metrics(reg)
        snap = reg.snapshot()
        st = workspace.tag_stats("t.res")
        assert snap["counters"]["workspace.growths{tag=t.res}"] == st.growths >= 1
        assert snap["gauges"]["workspace.resident_bytes{tag=transient}"] \
            == workspace.resident_bytes()["transient"] >= 64
        assert snap["gauges"]["conv.gather_idx_bytes"] \
            == workspace.shared_bytes()["conv.gather_idx"] > 0

    def test_reset_clears_gather_indices(self):
        from repro.nn import conv
        conv._gather_indices((2, 3, 6, 6), 3, 3, 1)
        assert conv._GATHER_IDX
        workspace.reset()
        assert not conv._GATHER_IDX
        assert workspace.resident_bytes() == {}

    def test_transient_slot_is_reported_and_reset(self):
        """The transient stack is one base, reported as ``transient``; its
        request tags count traffic and own nothing.  A kernel asking for
        24 B then 8 B ends at 64 + 8 = 72 B (the second request starts at
        the next 64-byte offset): the first such call is served fresh
        arrays, and the next reset sizes the base to that high-water mark."""
        from repro.obs.metrics import MetricsRegistry
        workspace.reset()
        stack = workspace.transient
        for _ in range(2):
            stack.reset()
            a = stack.buffer("t.both", (6,), np.float32)
            b = stack.buffer("t.only", (2,), np.float32)
        assert a.ctypes.data % workspace.ALIGN == 0
        assert b.ctypes.data - a.ctypes.data == workspace.ALIGN
        st = workspace.tag_stats("t.only")
        assert (st.misses, st.hits, st.bytes_alloc, st.bytes_saved) \
            == (1, 1, 8, 8)
        assert workspace.resident_bytes() == {"transient": 72}
        reg = MetricsRegistry()
        workspace.publish_metrics(reg)
        gauges = reg.snapshot()["gauges"]
        assert gauges["workspace.resident_bytes{tag=t.both}"] == 0
        assert gauges["workspace.resident_bytes{tag=t.only}"] == 0
        assert gauges["workspace.resident_bytes{tag=transient}"] == 72
        held = workspace.transient
        workspace.reset()
        assert workspace.transient is held       # kernels keep the reference
        assert workspace.resident_bytes() == {}
        assert held.generation == 0

    def test_transient_release_reuses_region(self):
        """What a kernel releases is served again at the same address; a
        request past the base is a fresh array, and the base grows at the
        next reset, when nothing points into it."""
        workspace.reset()
        stack = workspace.transient
        for _ in range(2):
            stack.reset()
            stack.buffer("t.keep", (16,), np.float32)
            top = stack.mark()
            first = stack.buffer("t.gone", (32,), np.float32)
            stack.release(top)
            again = stack.buffer("t.next", (32,), np.float32)
        assert first.ctypes.data == again.ctypes.data
        assert stack.nbytes == 64 + 128 and stack.generation == 1
        big = stack.buffer("t.big", (1024,), np.float32)
        assert not np.shares_memory(big, again)
        assert (stack.nbytes, workspace.tag_stats("t.big").growths) == (192, 1)
        stack.reset()
        assert stack.nbytes == 192 + 4096 and stack.generation == 2

    def test_slot_dies_with_owner(self):
        """Scratch kept across calls belongs to its owner and dies with
        it: the optimizer's update bases are freed with the optimizer."""
        from repro.models import build_model
        from repro.optim.sgd import SGD
        model = build_model("cnn2", input_size=16, seed=2)
        opt = SGD(model.named_parameters(), lr=0.05)
        for _, p in model.named_parameters():
            p.grad = np.ones_like(p.data)
        opt.step()
        alive = [weakref.ref(buf.base) for _, _, *bufs in opt._plan
                 for buf in bufs]
        assert all(ref() is not None for ref in alive)
        del opt
        gc.collect()
        assert all(ref() is None for ref in alive)

    def test_sgd_plan_holds_one_base_per_tag(self):
        # Parameters of every shape alias one base per tag and dtype, sized
        # to the largest parameter; the optimizer owns them, not the arena.
        from repro.models import build_model
        from repro.optim.sgd import SGD
        model = build_model("resnet20", width_mult=0.25, input_size=16, seed=2)
        opt = SGD(model.named_parameters(), lr=0.05, weight_decay=5e-4)
        for _, p in model.named_parameters():
            p.grad = np.ones_like(p.data)
        workspace.reset()
        opt.step()
        assert workspace.resident_bytes() == {}
        bases = {id(buf.base): buf.base for _, _, *bufs in opt._plan
                 for buf in bufs}
        assert len(bases) == 3
        largest = max(p.data.nbytes for _, p in model.named_parameters())
        assert {b.nbytes for b in bases.values()} == {largest}
        for _, p, *bufs in opt._plan:
            assert [b.shape for b in bufs] == [p.data.shape] * 3
            assert all(b.flags["C_CONTIGUOUS"] for b in bufs)

    def test_resident_bytes_set_by_largest_shape_only(self):
        """One resnet20 driven through a non-IID client's batch sizes ends
        holding exactly what a model that only ever saw the largest shape
        per tag holds — an exact byte count, not a tolerance."""
        from repro.models import build_model
        from repro.tensor import functional as F

        def drive(train_sizes, eval_sizes):
            workspace.reset()
            rng = np.random.default_rng(0)
            model = build_model("resnet20", width_mult=0.25, input_size=16,
                                seed=2)
            for n in train_sizes:
                model.train()
                x = rng.standard_normal((n, 3, 16, 16)).astype(np.float32)
                model.zero_grad()
                F.cross_entropy(model(Tensor(x)),
                                rng.integers(0, 10, n)).backward()
            model.eval()
            with no_grad():
                for n in eval_sizes:
                    model(Tensor(rng.standard_normal(
                        (n, 3, 16, 16)).astype(np.float32)))
            return workspace.resident_bytes(), workspace.shared_bytes()

        mixed = drive([32, 12, 32, 7], [69, 44])
        largest = drive([32], [69])
        assert mixed == largest
        assert sum(mixed[0].values()) > 0

    def test_transient_scratch_is_max_not_sum(self, monkeypatch):
        """vgg11, one bs-32 train step on one model and one ``no_grad``
        eval on a second: the transient stack is one base, the largest
        single kernel's scratch (6.13 MiB: the second conv, 0.63 MiB pad +
        4.5 MiB patch matrix + 1 MiB GEMM output) — not the sum over tags
        of each tag's largest request (18.6 MiB, the one-base-per-tag
        layout), let alone over layers and model copies.  The eval model's
        layers own no normalised input, no layer owns a patch matrix, and
        the arena as a whole stays under 24 MiB (19.8 here; 31.3 with one
        base per tag, 50.5 while each training layer kept its patch matrix,
        133.8 when scratch was keyed by owner).  No layer of either model
        owns memory: a step's normalised inputs and input gradients live
        in the step."""
        from repro.models import build_model
        from repro.tensor import functional as F
        workspace.reset()
        calls, largest = _spy_stack(monkeypatch)
        rng = np.random.default_rng(0)
        trained, evaluated = (build_model("vgg11", width_mult=0.25,
                                          input_size=32, seed=s)
                              for s in (2, 3))
        x = rng.standard_normal((32, 3, 32, 32)).astype(np.float32)
        F.cross_entropy(trained(Tensor(x)), rng.integers(0, 10, 32)).backward()
        evaluated.eval()
        with no_grad():
            evaluated(Tensor(x))
        peak = max(call["end"] for call in calls)
        assert workspace.resident_bytes() == {"transient": peak}
        assert peak < sum(largest.values()) / 2
        assert {"conv2d.pad", "conv2d.out", "conv2d.gmat", "conv2d.dcols",
                "conv2d.cols", "conv2d.col2im", "batchnorm.xhat",
                "batchnorm.scratch", "maxpool.cand", "maxpool.take",
                "maxpool.isnum", "maxpool.g", "maxpool.hit"} == set(largest)
        total = (sum(workspace.resident_bytes().values())
                 + sum(workspace.shared_bytes().values()))
        assert total <= 24 * 2 ** 20, total

    @pytest.mark.parametrize("compiled", [False, True])
    @pytest.mark.parametrize("arch", ["resnet20", "vgg11"])
    def test_transient_residency_is_largest_kernel(self, arch, compiled,
                                                   monkeypatch):
        """Training steps — eager, or captured and replayed — and an eval
        forward: every conv, batch-norm and max-pool kernel resets the
        stack on entry (no call mixes two kernels' requests), and the stack
        holds exactly the maximum over kernel calls of that call's scratch,
        modelled from the requests alone."""
        from repro.models import build_model
        from repro.optim.sgd import SGD
        from repro.tensor import functional as F
        from repro.tensor.compile import StepCompiler
        workspace.reset()
        calls, _ = _spy_stack(monkeypatch)
        rng = np.random.default_rng(0)
        model = build_model(arch, width_mult=0.25, input_size=32, seed=2)
        opt = SGD(model.named_parameters(), lr=0.05, momentum=0.9)
        compiler = StepCompiler() if compiled else None
        for _ in range(3):
            x = rng.standard_normal((16, 3, 32, 32)).astype(np.float32)
            y = rng.integers(0, 10, 16)
            if compiled:
                assert compiler.try_step(model, x, y) is not None
            else:
                opt.zero_grad()
                F.cross_entropy(model(Tensor(x)), y).backward()
            opt.step()
        model.eval()
        with no_grad():
            model(Tensor(x[:8]))
        kernels = ({"conv2d.pad", "conv2d.cols", "conv2d.out"},
                   {"conv2d.gmat", "conv2d.pad", "conv2d.cols",
                    "conv2d.dcols", "conv2d.col2im"},
                   {"batchnorm.xhat", "batchnorm.scratch"},
                   {"maxpool.cand", "maxpool.take", "maxpool.isnum"},
                   {"maxpool.g", "maxpool.hit"})
        for call in calls:
            assert len(call["tags"]) == len(set(call["tags"])), call
            assert any(set(call["tags"]) <= k for k in kernels), call
        assert len(calls) > 3 * 2 * 8
        assert workspace.transient.nbytes == max(c["end"] for c in calls)


class TestGradientDonation:
    """``_accumulate(grad, donate=...)``: 'fresh' transfers ownership;
    anything else is copied — user-visible ``.grad`` never aliases the
    arena."""

    def test_leaf_takes_fresh(self):
        leaf = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        fresh = np.ones(3, dtype=np.float32)
        leaf._accumulate(fresh, donate="fresh")
        assert np.shares_memory(leaf.grad, fresh)

    def test_no_donation_copies(self):
        leaf = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        buf = np.ones(3, dtype=np.float32)
        leaf._accumulate(buf)
        assert not np.shares_memory(leaf.grad, buf)

    def test_conv_output_never_aliases_transient_scratch(self):
        """A 1x1 output map makes the NHWC -> NCHW transpose of the GEMM
        output a no-op view; the op's payload must still be its own copy,
        because the next conv of *any* layer overwrites that scratch."""
        from repro.nn.conv import Conv2d
        rng = np.random.default_rng(0)
        first, second = (Conv2d(3, 4, 3, rng=rng) for _ in range(2))
        x = Tensor(rng.standard_normal((2, 3, 3, 3)).astype(np.float32))
        for grad in (True, False):
            x.requires_grad = grad
            out = first(x)
            assert out.shape == (2, 4, 1, 1)
            kept = out.data.copy()
            second(x)
            np.testing.assert_array_equal(out.data, kept)

    def test_conv_input_grad_does_not_alias_arena(self):
        """End to end: a leaf conv input's ``.grad`` survives a second
        forward/backward unchanged (no aliasing of reused arena memory)."""
        from repro.nn.conv import Conv2d
        rng = np.random.default_rng(0)
        layer = Conv2d(2, 3, 3, padding=1, rng=rng)
        x1 = Tensor(rng.standard_normal((2, 2, 6, 6)).astype(np.float32),
                    requires_grad=True)
        (layer(x1) ** 2).sum().backward()
        saved = x1.grad.copy()
        x2 = Tensor(rng.standard_normal((2, 2, 6, 6)).astype(np.float32),
                    requires_grad=True)
        (layer(x2) ** 2).sum().backward()
        np.testing.assert_array_equal(x1.grad, saved)


class TestForbidDtype:
    def test_blocks_tensor_and_grad(self):
        with forbid_dtype(np.float64):
            with pytest.raises(AssertionError):
                Tensor(np.zeros(2, dtype=np.float64), dtype=np.float64)
            t = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
            with pytest.raises(AssertionError):
                t._accumulate(np.zeros(2, dtype=np.float64))
        # outside the context both are fine again
        Tensor(np.zeros(2, dtype=np.float64), dtype=np.float64)

    def test_resnet20_train_step_stays_float32(self):
        """A full forward/backward/step at the tiny scale must not route
        any float64 array through the Tensor/gradient surface."""
        from repro.models import build_model
        from repro.optim.sgd import SGD
        from repro.tensor import functional as F
        rng = np.random.default_rng(1)
        model = build_model("resnet20", width_mult=0.25, input_size=16, seed=2)
        opt = SGD(model.named_parameters(), lr=0.05, momentum=0.9)
        x = rng.standard_normal((8, 3, 16, 16)).astype(np.float32)
        y = rng.integers(0, 10, 8)
        with forbid_dtype(np.float64):
            loss = F.cross_entropy(model(Tensor(x)), y)
            loss.backward()
            opt.step()


class TestConvBnFold:
    """The class name predates the BN fold's removal (DESIGN.md §10.4); the
    ids are kept because the test floor lists them."""

    @pytest.mark.parametrize("name,in_ch,size", [
        ("resnet20", 3, 16),
        ("vgg11", 3, 32),       # five maxpools: needs the full 32x32
        ("cnn2", 1, 28),        # MNIST-shaped
    ])
    def test_verify_fold_registry_models(self, name, in_ch, size):
        """The evaluation forward is bitwise the oracle's."""
        from repro.models import build_model
        from tests.reference import reference_kernels
        model = build_model(name, width_mult=0.25, input_size=size, seed=3)
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((4, in_ch, size, size)).astype(np.float32))
        model(x)        # one training-mode batch: non-trivial running stats
        model.eval()
        with no_grad():
            fast = model(x).data
        with reference_kernels():
            oracle = model(x).data
        np.testing.assert_array_equal(fast, oracle)

    def test_training_numerics_untouched_by_fold_machinery(self):
        """An evaluation pass at a larger batch between two training
        forwards (the slots grow, the transient pad buffer is re-served at
        another shape) leaves training bytes alone."""
        from repro.models import build_model
        rng = np.random.default_rng(2)
        model = build_model("resnet20", width_mult=0.25, input_size=16, seed=5)
        x = Tensor(rng.standard_normal((2, 3, 16, 16)).astype(np.float32))
        out1 = model(x).data.copy()
        model.eval()
        with no_grad():
            model(Tensor(rng.standard_normal((5, 3, 16, 16)).astype(np.float32)))
        model.train()
        out2 = model(x).data
        np.testing.assert_array_equal(out1, out2)


class TestProfilerWorkspaceJoin:
    def test_workspace_stats_deltas_and_table(self):
        from repro.obs import (MetricsRegistry, hotspot_table, set_registry,
                               tracing)
        from repro.nn.conv import Conv2d
        rng = np.random.default_rng(0)
        layer = Conv2d(2, 3, 3, padding=1, rng=rng)
        x = Tensor(rng.standard_normal((2, 2, 8, 8)).astype(np.float32),
                   requires_grad=True)
        (layer(x) ** 2).sum().backward()        # warm the arena first
        registry = MetricsRegistry()
        previous = set_registry(registry)
        before = workspace.stats_snapshot()
        try:
            with tracing():
                (layer(x) ** 2).sum().backward()
        finally:
            set_registry(previous)
        stats = workspace.stats_since(before)
        conv_tags = {t for t in stats if t.startswith("conv2d.")}
        assert conv_tags, stats
        assert all(sum(d) > 0 for d in stats.values())
        table = hotspot_table(registry.snapshot(), n=8, workspace=stats)
        row = next(line for line in table.splitlines()
                   if line.startswith("conv2d.backward"))
        assert "-" not in [c.strip() for c in row.split("|")[-2:]], row
        assert "ws hit%" in table and "ws MB saved" in table


class TestStepLifetimes:
    """A training step's arrays live as long as something reads them:
    the backward drops each node once it has run, and no layer keeps a
    step's normalised input or input gradient past the step."""

    @pytest.mark.parametrize("arch", ["resnet20", "vgg11"])
    def test_late_activation_dead_before_first_conv_backward(
            self, arch, monkeypatch):
        """By the time the stem conv's backward runs, the output of the
        last conv — read by the head's backwards, long done — is freed."""
        import weakref
        from repro.models import build_model
        from repro.nn import conv
        from repro.tensor import functional as F
        rng = np.random.default_rng(0)
        model = build_model(arch, width_mult=0.25, input_size=32, seed=2)
        x = Tensor(rng.standard_normal((4, 3, 32, 32)).astype(np.float32))
        outs, alive = [], []
        forward, backward = conv._forward_data, conv._backward_data

        def spy_forward(*args, **kwargs):
            out = forward(*args, **kwargs)
            outs.append(weakref.ref(out))
            return out

        def spy_backward(g, xdata, *args):
            if xdata is x.data:
                alive.append(outs[-1]() is not None)
            return backward(g, xdata, *args)

        monkeypatch.setattr(conv, "_forward_data", spy_forward)
        monkeypatch.setattr(conv, "_backward_data", spy_backward)
        loss = F.cross_entropy(model(x), rng.integers(0, 10, 4))
        assert outs[-1]() is not None
        loss.backward()
        assert alive == [False]

    @pytest.mark.parametrize("compiled", [False, True])
    @pytest.mark.parametrize("arch", ["resnet20", "vgg11", "avgpool"])
    def test_no_layer_memory_after_train_and_eval(self, arch, compiled):
        """After training steps — eager, or captured and replayed — and a
        ``no_grad`` eval, no conv, batch-norm or avg-pool tag holds memory:
        only the transient stack and the optimizer's scratch remain."""
        from repro.models import build_model
        from repro.nn import (AvgPool2d, BatchNorm2d, Conv2d, Linear, Module)
        from repro.optim.sgd import SGD
        from repro.tensor import functional as F
        from repro.tensor.compile import StepCompiler

        class Net(Module):
            def __init__(self):
                super().__init__()
                rng = np.random.default_rng(0)
                self.c1 = Conv2d(3, 4, 3, padding=1, rng=rng)
                self.b1 = BatchNorm2d(4)
                self.pool = AvgPool2d(2)
                self.lin = Linear(4 * 16 * 16, 10, rng=rng)

            def forward(self, x):
                h = self.pool(self.b1(self.c1(x)).relu())
                return self.lin(h.reshape(h.shape[0], -1))

        workspace.reset()
        rng = np.random.default_rng(0)
        model = (Net() if arch == "avgpool" else
                 build_model(arch, width_mult=0.25, input_size=32, seed=2))
        model.train()
        opt = SGD(model.named_parameters(), lr=0.05, momentum=0.9)
        compiler = StepCompiler()
        for _ in range(2):
            x = rng.standard_normal((8, 3, 32, 32)).astype(np.float32)
            y = rng.integers(0, 10, 8)
            if not compiled or compiler.try_step(model, x, y) is None:
                opt.zero_grad()
                F.cross_entropy(model(Tensor(x)), y).backward()
            opt.step()
        model.eval()
        with no_grad():
            model(Tensor(x))
        tags = set(workspace.resident_bytes())
        assert "transient" in tags
        assert not {t for t in tags
                    if t.split(".")[0] in ("conv2d", "batchnorm", "avgpool")}
