"""The step compiler: capture a training step once, replay it forever.

``StepCompiler.try_step(model, xb, yb)`` is the single entry point used
by :func:`repro.fl.local.train_local`:

- On the first call for a ``(model, input-signature)`` pair it runs the
  step *eagerly* with a capture hook installed on :meth:`Tensor._make`,
  so the capture step IS a normal training step (same results, no warmup
  throwaway), then builds a static plan from the recorded tape.  The
  tape is frozen to shapes, dtypes and ids before the backward, so the
  capture step frees its activations as an eager step does.
- Later calls with the same signature replay the plan: two ``np.copyto``
  for input/labels, a flat closure list, and a parameter-gradient swap.
  No tensors, no graph, no topological sort, no per-op allocation.
- Anything the planner cannot express (:class:`Unsupported`) marks the
  signature as fallback and ``try_step`` returns ``None`` forever after,
  which tells the caller to run the eager path.
- A plan owns every intermediate of its step — activations, batch
  norm's ``xhat``, input gradients — and bakes no layer memory, so
  nothing a later step does elsewhere invalidates it.  Transient scratch
  is requested per call, never baked.
- A compiler's plans share one plan arena (:mod:`~repro.tensor.compile.ir`):
  a plan that fits is laid out in a prefix of the current base, one that
  does not gets a new base that becomes current, and plans already bound
  keep theirs — nothing recaptures.  Captured largest-signature first,
  every plan lives in one base of the largest plan's size.

Per-step guards keep the plan honest when runtime state the plan baked
in could drift: SPATL channel masks, active dropout and eval mode all
force the eager path for that step without invalidating the plan, and
count it as ``compile.eager_steps{reason=channel_masks|dropout|eval}``;
``compile.fallbacks`` counts only signatures no plan could be built for.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.tensor.compile.ir import PlanBuilder, Unsupported
from repro.tensor.compile.kernels import BWD, FWD, Build, Record
from repro.tensor.tensor import (Tensor, _backward_op_name,
                                 backward_schedule, set_graph_capture_hook)
from repro.tensor import functional as F


class _Fallback:
    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<FALLBACK>"


#: Per-signature marker: this graph shape cannot be compiled, stay eager.
FALLBACK = _Fallback()


def _counter(name: str, **labels):
    from repro.obs.metrics import get_registry
    return get_registry().counter(name, **labels)


class StepPlan:
    """A bound, replayable training step for one input signature."""

    __slots__ = ("instrs", "in_buf", "lab_buf", "loss_cell", "param_grads",
                 "all_params", "stats", "arena")

    def __init__(self, instrs, in_buf, lab_buf, loss_cell, param_grads,
                 all_params, stats, arena):
        self.instrs = instrs
        self.arena = arena      # the uint8 base the plan's handles live in
        self.in_buf = in_buf
        self.lab_buf = lab_buf
        self.loss_cell = loss_cell
        self.param_grads = param_grads
        self.all_params = all_params
        self.stats = stats

    def replay(self, xb: np.ndarray, yb: np.ndarray) -> float:
        np.copyto(self.in_buf, xb)
        # "unsafe" matches the ``np.asarray(labels, dtype=int64)`` cast the
        # eager cross-entropy performs.
        np.copyto(self.lab_buf, yb, casting="unsafe")
        for fn in self.instrs:
            fn()
        # Gradients land in persistent buffers; publish them exactly as a
        # ``zero_grad(); backward()`` pair would have: every parameter
        # grad replaced, untouched parameters cleared (a stale grad from a
        # previous eager step must not leak into the optimizer).
        for p in self.all_params:
            p.grad = None
        for p, gbuf in self.param_grads:
            p.grad = gbuf
        return self.loss_cell[0]


class _ModelEntry:
    """Per-model plan cache plus the cached guard lists."""

    __slots__ = ("plans", "mods", "dropouts")

    def __init__(self, model):
        self.plans: dict = {}
        self.mods = list(model.modules())
        from repro.nn.dropout import Dropout
        self.dropouts = [m for m in self.mods if isinstance(m, Dropout)]

    def eager_reason(self, model) -> str | None:
        """Why this step must run eagerly, or ``None`` when a plan may
        replay it."""
        if not model.training:
            return "eval"
        for m in self.mods:
            if getattr(m, "_channel_masks", None):
                return "channel_masks"
        for d in self.dropouts:
            if d.p > 0.0:
                return "dropout"
        return None


class StepCompiler:
    """Trace-and-replay executor for local SGD steps.

    One compiler instance serves any number of models; plans are cached
    per ``(model identity, input signature)``.  The model cache is weak,
    so scratch models can be collected with their plans.  The current
    plan-arena base is held weakly too: the plans bound to it own it.
    """

    def __init__(self):
        self._models = weakref.WeakKeyDictionary()
        self._arena = None          # weakref to the current plan-arena base

    # Plans hold bound closures over this process's arrays; worker
    # processes must recapture, so pickling ships an empty compiler.
    def __getstate__(self):
        return {}

    def __setstate__(self, state):
        self.__init__()

    # ------------------------------------------------------------------ #
    def try_step(self, model, xb: np.ndarray, yb):
        """Run one forward/backward as a compiled replay if possible.

        Returns the scalar loss with every ``p.grad`` populated (the
        caller still runs ``opt.step()``), or ``None`` when the step must
        be taken eagerly.  The first call per signature runs eagerly
        under the capture hook, so it both trains and compiles.
        """
        entry = self._models.get(model)
        if entry is None:
            entry = _ModelEntry(model)
            self._models[model] = entry
        reason = entry.eager_reason(model)
        if reason is not None:
            _counter("compile.eager_steps", reason=reason).inc()
            return None
        yarr = np.asarray(yb)
        sig = (xb.shape, str(xb.dtype), yarr.shape, str(yarr.dtype))
        plan = entry.plans.get(sig)
        if plan is FALLBACK:
            return None
        if plan is None:
            return self._capture(model, xb, yarr, entry, sig)
        from repro.obs.trace import get_tracer
        tracer = get_tracer()
        if tracer.enabled:
            with tracer.span("compile.replay", batch=xb.shape[0]):
                loss = plan.replay(xb, yarr)
        else:
            loss = plan.replay(xb, yarr)
        _counter("compile.replays").inc()
        return loss

    def plan_for(self, model, sig=None):
        """The cached plan(s) for ``model`` (introspection/tests)."""
        entry = self._models.get(model)
        if entry is None:
            return None
        if sig is None:
            return dict(entry.plans)
        return entry.plans.get(sig)

    def arena_bytes(self) -> int:
        """Bytes of the distinct plan-arena bases the live plans hold."""
        bases = {id(p.arena): p.arena.nbytes for e in self._models.values()
                 for p in e.plans.values() if p is not FALLBACK}
        return sum(bases.values())

    # ------------------------------------------------------------------ #
    def _capture(self, model, xb, yarr, entry, sig) -> float:
        from repro.obs.trace import get_tracer
        with get_tracer().span("compile.capture", model=type(model).__name__,
                               batch=int(xb.shape[0])):
            x_in = Tensor(xb)
            loss, records, nodes = _record(model, x_in, yarr)
            # The backward schedule, snapshot before backward() frees the
            # graph edges; like the tape, it holds no activation.
            schedule = [nodes[id(t)] for t in backward_schedule(loss)
                        if id(t) in nodes]
            model.zero_grad()
            loss.backward()
            loss_val = loss.item()
            try:
                plan = _build_plan(model, records, schedule, nodes[id(loss)],
                                   x_in, xb, yarr,
                                   self._arena and self._arena())
            except Unsupported as exc:
                plan = FALLBACK
                _counter("compile.fallbacks", reason=str(exc)).inc()
            else:
                self._arena = weakref.ref(plan.arena)
                _counter("compile.captures").inc()
            entry.plans[sig] = plan
        return loss_val


def _record(model, x_in, yarr):
    """Run the step's forward under the capture hook: ``(loss, tape,
    nodes)``, the tape frozen (:meth:`Record.frozen`) so that it pins no
    activation through the backward."""
    records: list[Record] = []

    def hook(out, parents, backward, args):
        records.append(Record(out, parents, _backward_op_name(backward), args))

    prev = set_graph_capture_hook(hook)
    try:
        loss = F.cross_entropy(model(x_in), yarr)
    finally:
        set_graph_capture_hook(prev)
    return (loss, *Record.frozen(records))


def _build_plan(model, recs, schedule, loss, x_in, xb, yarr,
                arena) -> StepPlan:
    if yarr.ndim != 1 or yarr.dtype.kind not in "iu":
        raise Unsupported("labels must be a 1-d integer array")
    pb = PlanBuilder()
    in_buf = pb.persistent(xb.shape, xb.dtype)
    lab_buf = pb.persistent(yarr.shape, np.int64)
    ctx = Build(pb, x_in, in_buf, lab_buf)
    all_params = [p for _, p in model.named_parameters()]
    ctx.params = {id(p) for p in all_params}
    for rec in recs:
        if rec.out.requires_grad:
            ctx.records[id(rec.out)] = rec
        else:
            ctx.req_false.add(id(rec.out))

    # Which records actually feed the loss.  A requires_grad=False
    # intermediate consumed on the path cannot be replayed (its value
    # would be baked in as a stale constant); a requires_grad=True record
    # *off* the path cannot be dropped either (it may carry side effects
    # such as batch-norm running statistics).
    reach: set[int] = set()
    stack = [loss]
    while stack:
        t = stack.pop()
        tid = id(t)
        if tid in reach:
            continue
        rec = ctx.records.get(tid)
        if rec is None:
            if tid in ctx.req_false:
                raise Unsupported("non-grad intermediate consumed")
            continue
        reach.add(tid)
        stack.extend(rec.parents)
    for rec in recs:
        if rec.out.requires_grad and id(rec.out) not in reach:
            raise Unsupported(f"unreachable op: {rec.op}")

    for rec in recs:
        if id(rec.out) not in reach:
            continue
        for p in rec.parents:
            if id(p) in ctx.records:
                ctx.consumer_recs.setdefault(id(p), []).append(rec)

    # Forward: creation order is execution order.
    last = None
    for rec in recs:
        if id(rec.out) not in reach:
            continue
        emit = FWD.get(rec.op)
        if emit is None:
            raise Unsupported(f"op: {rec.op}")
        emit(ctx, rec)
        last = rec
    if ctx.pending_fusion:
        raise Unsupported("fused add never consumed")
    if last is None or last.out is not loss or last.op != "cross_entropy":
        raise Unsupported("loss root is not cross_entropy")

    # Backward: the eager schedule, with each node's closure swapped for
    # its planned equivalent.
    for node in schedule:
        rec = ctx.records.get(id(node))
        if rec is None:
            continue
        if node is loss:
            BWD["cross_entropy"](ctx, rec, None)
            continue
        g = ctx.gref.get(id(node))
        if g is None:
            continue
        BWD[rec.op](ctx, rec, g)

    instrs = pb.finalize(arena)
    stats = pb.stats()
    stats["fused_forward"] = ctx.fused_fwd
    return StepPlan(instrs, in_buf, lab_buf, ctx.loss_cell, ctx.param_grads,
                    all_params, stats, pb.base)
