"""Per-op emitters: captured tape records -> planned instructions.

An emitter owns what is the planner's — where each output lives, how long
it lives, and how a gradient contribution reaches its parent — and none of
the arithmetic.  The heavy ops (conv2d, batch norm, max-pool, cross
entropy) are replayed by calling the *same* kernel functions the eager ops
call (:func:`repro.nn.conv._forward_data` / ``_backward_data`` and their
siblings in :mod:`repro.nn.norm`, :mod:`repro.nn.pooling`,
:mod:`repro.tensor.functional`) with planned output buffers, so a replayed
step is byte-identical to an eager one by construction; the cheap
elementwise/shape ops are single ``out=`` ufunc calls (bitwise equal to
their allocating forms, the invariant DESIGN.md §10 already relies on).
What an op needs beyond its parent tensors — stride, axis, the layer —
arrives in ``Record.args``, the tuple the op itself passed to
``Tensor._make``; nothing is read out of a backward closure.  A plan owns
every intermediate of its step as a handle, batch norm's ``xhat`` (live
from the forward instruction to the backward one) and the conv / batch-norm
input gradients included, and bakes no layer memory; the kernels request
``workspace.transient`` scratch at run time, so its growth invalidates
nothing.  Nothing travels from a conv's forward instruction to its backward
one: the backward kernel re-gathers the patch matrix from the conv's input,
which the emitter lists among the instruction's uses so the planner keeps
that buffer alive until then.

Gradient flow mirrors :meth:`Tensor._accumulate`'s donation contract:

- a contribution eager computes fresh (``donate="fresh"`` or an
  unbroadcast reduction) is computed directly into the parent's planned
  gradient buffer on first touch, or into a temporary then ``+=``-ed;
- a contribution eager passes through by reference (``donate=None``
  views) is copied on first touch — exactly where eager copies;
- a kernel that must write a gradient wider than its parent (the conv's
  padded scatter target) or several at once (batch norm) writes it into
  its own handle, which becomes a non-leaf parent's gradient *alias* —
  where eager's parent takes the donated array.

Anything outside the supported shapes raises :class:`Unsupported`, which
the step compiler converts into a per-signature fallback to eager.
"""

from __future__ import annotations

import numpy as np

from repro.nn import conv as _conv, norm as _norm, pooling as _pooling
from repro.tensor import functional as _F
from repro.tensor.compile.ir import Handle, PlanBuilder, Unsupported, View

_POISON = object()       # value slot of a fused-away node: must never be read


def _base_of(value):
    if isinstance(value, Handle):
        return value
    if isinstance(value, View):
        return value.base
    return None


class Record:
    """One captured op: output, parents, op name, declared operands.

    Recorded with tensors; the planner reads it frozen (:meth:`frozen`),
    with every op output a :class:`Node`.
    """

    __slots__ = ("out", "parents", "op", "args")

    def __init__(self, out, parents, op, args):
        self.out = out
        self.parents = parents
        self.op = op
        self.args = args

    @staticmethod
    def frozen(records: list["Record"]) -> tuple[list["Record"], dict]:
        """The tape with each op output replaced by its :class:`Node`,
        and ``{id(tensor): node}``.

        Taken while the recorded tensors are alive, so their ids are
        distinct; leaves (parameters, the step input, captured constants)
        stay tensors, since the plan reads their arrays.
        """
        nodes = {id(r.out): Node(r.out) for r in records}

        def node(t):
            return nodes.get(id(t), t)

        return [Record(node(r.out), tuple(node(p) for p in r.parents), r.op,
                       r.args) for r in records], nodes


class Node:
    """What the planner reads of a captured op output: its shape, dtype and
    ``requires_grad``, not its array — so the capture step frees its
    activations during the backward, as an eager step does."""

    __slots__ = ("shape", "dtype", "requires_grad")

    def __init__(self, t):
        self.shape = t.data.shape
        self.dtype = t.data.dtype
        self.requires_grad = t.requires_grad

    @property
    def ndim(self) -> int:
        return len(self.shape)


class Build:
    """Mutable state of one plan construction (shared by all emitters)."""

    def __init__(self, pb: PlanBuilder, x_in, in_buf, lab_buf):
        self.pb = pb
        self.lab_buf = lab_buf
        self.vals: dict[int, object] = {id(x_in): in_buf}
        self.gref: dict[int, object] = {}
        self.aux: dict[int, object] = {}
        self.records: dict[int, Record] = {}
        self.req_false: set[int] = set()
        self.consumer_recs: dict[int, list[Record]] = {}
        self.params: set[int] = set()
        self.param_grads: list[tuple] = []
        self.pending_fusion: dict[int, Record] = {}
        self.loss_cell = [0.0]
        self.fused_fwd = 0

    # ------------------------------------------------------------ values
    def val(self, t):
        """Replay value of a tensor: planned handle/view for op outputs,
        the input buffer for the step input, parameter data for leaves,
        captured arrays for constants."""
        tid = id(t)
        if tid in self.vals:
            v = self.vals[tid]
            if v is _POISON:
                raise Unsupported("fused node value consumed")
            return v
        if tid in self.req_false:
            raise Unsupported("requires_grad=False intermediate consumed")
        # Leaf: parameter data is stable in place (load_state_dict writes
        # through ``p.data[...]``); anything else is a captured constant
        # whose contents must be step-invariant (shortcut zeros, scalar
        # coercions) — the golden-state tests pin this contract.
        self.vals[tid] = t.data
        return t.data

    # ----------------------------------------------------- contributions
    def _grad_target(self, parent, name):
        if id(parent) in self.params:
            # The capture step's gradient is the replays' buffer.
            buf = self.pb.persistent(parent.shape, parent.dtype,
                                     adopt=parent.grad)
            self.param_grads.append((parent, buf))
            return buf
        return self.pb.alloc(parent.shape, parent.dtype, name)

    def contrib_kernel(self, outs, make, uses):
        """Contributions eager computes into fresh arrays, one instruction
        for all of them (one backward kernel call fills several).

        ``outs`` is a list of ``(parent, dtype, name)``, ``dtype`` being
        what eager's fresh array would have; ``make(resolve, *arrays) ->
        closure`` computes contribution ``i`` into ``arrays[i]`` — ``None``
        where the parent is absent or takes no gradient.  First touch
        computes straight into the parent's gradient buffer (same values
        as eager's fresh-array donation); later touches compute into a
        temporary and ``+=`` it, mirroring ``self.grad += grad``.
        """
        targets, adds = [], []
        for parent, dtype, name in outs:
            if parent is None or not parent.requires_grad:
                targets.append(None)
                continue
            if np.dtype(dtype) != parent.dtype:
                raise Unsupported("gradient dtype mismatch")
            cur = self.gref.get(id(parent))
            if cur is None:
                target = self.gref[id(parent)] = self._grad_target(parent, name)
            else:
                target = self.pb.alloc(parent.shape, dtype, name + ".tmp")
                adds.append((cur, target))
            targets.append(target)

        def factory(r):
            inner = make(r, *(t if t is None else r(t) for t in targets))
            if not adds:
                return inner
            pairs = [(r(cur), r(tmp)) for cur, tmp in adds]

            def run():
                inner()
                for gp, tarr in pairs:
                    np.add(gp, tarr, out=gp)
            return run

        self.pb.emit(factory, uses + [t for t in targets if t is not None]
                     + [cur for cur, _ in adds])

    def contrib_compute(self, parent, dtype, make, uses, name="grad"):
        """:meth:`contrib_kernel` for one parent; nothing is emitted when
        it takes no gradient."""
        if parent.requires_grad:
            self.contrib_kernel([(parent, dtype, name)], make, uses)

    def contrib_view(self, parent, value, uses, name="grad", owned=False):
        """A contribution that is existing memory: a view of the node's
        gradient, or — ``owned`` — a handle the kernel wrote this
        contribution into and nothing else reads (eager's fresh donation)."""
        if not parent.requires_grad:
            return
        cur = self.gref.get(id(parent))
        nonleaf = id(parent) in self.records
        if cur is None:
            if owned and nonleaf:
                # The parent's grad IS this memory, as eager's is the
                # donated array.
                self.gref[id(parent)] = value
                for u in uses:
                    self.pb.touch(u)
                self.pb.touch(value)
                return
            target = self._grad_target(parent, name)

            def factory(r, value=value, target=target):
                src = r(value)
                dst = r(target)
                return lambda: np.copyto(dst, src)

            self.pb.emit(factory, uses + [value, target])
            self.gref[id(parent)] = target
        else:
            def factory(r, value=value, cur=cur):
                src = r(value)
                gp = r(cur)
                return lambda: np.add(gp, src, out=gp)

            self.pb.emit(factory, uses + [value, cur])


# ===================================================================== #
# forward emitters                                                      #
# ===================================================================== #

def fwd_conv2d(ctx: Build, rec: Record) -> None:
    """Emit the conv2d forward kernel into a planned output buffer."""
    stride, padding = rec.args
    x, weight, *bias = rec.parents
    xref = ctx.val(x)
    out_h = ctx.pb.alloc(rec.out.shape, rec.out.dtype, "conv.out")
    wdata = weight.data
    bdata = bias[0].data if bias else None

    def factory(r):
        xr, oa = r(xref), r(out_h)
        return lambda: _conv._forward_data(xr, wdata, bdata, stride, padding,
                                           out_arr=oa)

    ctx.pb.emit(factory, [xref, out_h])
    ctx.vals[id(rec.out)] = out_h


def fwd_batchnorm(ctx: Build, rec: Record) -> None:
    """Emit the layer's own array-level forward (kernel + running stats)."""
    mod, axes, shape = rec.args
    oshape, dtype = rec.out.shape, rec.out.dtype
    if dtype != rec.parents[0].dtype:
        raise Unsupported("batchnorm dtype change")
    xref = ctx.val(rec.parents[0])
    out_h = ctx.pb.alloc(oshape, dtype, "bn.out")
    xhat_h = ctx.pb.alloc(oshape, dtype, "bn.xhat")
    # What the backward kernel takes besides xhat: inv_std and the mode,
    # both per step.
    saved = [None, None]
    ctx.aux[id(rec.out)] = (xhat_h, saved)

    def factory(r):
        xr, oa, xhat = r(xref), r(out_h), r(xhat_h)

        def run():
            saved[0] = mod._normalize(xr, axes, shape, xhat, out=oa)[1]
            saved[1] = mod.training
        return run

    ctx.pb.emit(factory, [xref, out_h, xhat_h])
    ctx.vals[id(rec.out)] = out_h


def fwd_relu(ctx: Build, rec: Record) -> None:
    """Emit ReLU forward and stash the positive mask for the backward."""
    a = rec.parents[0]
    out_h = ctx.pb.alloc(rec.out.shape, rec.out.dtype, "relu.out")
    mask_h = ctx.pb.alloc(rec.out.shape, np.bool_, "relu.mask")
    pend = ctx.pending_fusion.pop(id(a), None)
    if pend is not None:
        # Fused bias-add/residual-add -> ReLU: the add lands straight in
        # the ReLU output buffer, the mask is taken there, and the
        # rectification happens in place — one buffer and one pass fewer,
        # same values (elementwise, no cross-element reads).
        ar = ctx.val(pend.parents[0])
        br = ctx.val(pend.parents[1])

        def factory(r):
            aa, bb = r(ar), r(br)
            oa, mk = r(out_h), r(mask_h)

            def run():
                np.add(aa, bb, out=oa)
                np.greater(oa, 0, out=mk)
                np.multiply(oa, mk, out=oa)
            return run

        ctx.pb.emit(factory, [ar, br, out_h, mask_h])
        ctx.vals[id(pend.out)] = _POISON
        ctx.fused_fwd += 1
    else:
        xref = ctx.val(a)

        def factory(r):
            xr = r(xref)
            oa, mk = r(out_h), r(mask_h)

            def run():
                np.greater(xr, 0, out=mk)
                np.multiply(xr, mk, out=oa)
            return run

        ctx.pb.emit(factory, [xref, out_h, mask_h])
    ctx.vals[id(rec.out)] = out_h
    ctx.aux[id(rec.out)] = mask_h


def fwd_add(ctx: Build, rec: Record) -> None:
    """Emit elementwise add, fusing into the consumer ReLU when it is sole."""
    cons = ctx.consumer_recs.get(id(rec.out), ())
    if len(cons) == 1 and cons[0].op == "relu" and rec.out.requires_grad:
        ctx.pending_fusion[id(rec.out)] = rec
        return
    a, b = rec.parents
    ar, br = ctx.val(a), ctx.val(b)
    out_h = ctx.pb.alloc(rec.out.shape, rec.out.dtype, "add.out")

    def factory(r):
        aa, bb, oa = r(ar), r(br), r(out_h)
        return lambda: np.add(aa, bb, out=oa)

    ctx.pb.emit(factory, [ar, br, out_h])
    ctx.vals[id(rec.out)] = out_h


def fwd_mul(ctx: Build, rec: Record) -> None:
    """Emit elementwise (broadcasting) multiply."""
    a, b = rec.parents
    ar, br = ctx.val(a), ctx.val(b)
    out_h = ctx.pb.alloc(rec.out.shape, rec.out.dtype, "mul.out")

    def factory(r):
        aa, bb, oa = r(ar), r(br), r(out_h)
        return lambda: np.multiply(aa, bb, out=oa)

    ctx.pb.emit(factory, [ar, br, out_h])
    ctx.vals[id(rec.out)] = out_h


def fwd_matmul(ctx: Build, rec: Record) -> None:
    """Emit a 2-D matmul; higher ranks are unsupported."""
    a, b = rec.parents
    if a.ndim != 2 or b.ndim != 2:
        raise Unsupported("non-2d matmul")
    ar, br = ctx.val(a), ctx.val(b)
    out_h = ctx.pb.alloc(rec.out.shape, rec.out.dtype, "matmul.out")

    def factory(r):
        aa, bb, oa = r(ar), r(br), r(out_h)
        return lambda: np.matmul(aa, bb, out=oa)

    ctx.pb.emit(factory, [ar, br, out_h])
    ctx.vals[id(rec.out)] = out_h


def fwd_sum(ctx: Build, rec: Record) -> None:
    """Emit a reduction matching the recorded axis/keepdims."""
    axis, keepdims = rec.args
    xref = ctx.val(rec.parents[0])
    out_h = ctx.pb.alloc(rec.out.shape, rec.out.dtype, "sum.out")

    def factory(r):
        xr, oa = r(xref), r(out_h)
        return lambda: np.sum(xr, axis=axis, keepdims=keepdims, out=oa)

    ctx.pb.emit(factory, [xref, out_h])
    ctx.vals[id(rec.out)] = out_h


def fwd_reshape(ctx: Build, rec: Record) -> None:
    """Emit reshape as a no-copy arena view; one that must copy is
    unsupported."""
    shape = rec.out.shape
    xref = ctx.val(rec.parents[0])

    def build(r):
        try:
            return np.reshape(r(xref), shape, copy=False)
        except ValueError:
            raise Unsupported("copying reshape") from None

    ctx.vals[id(rec.out)] = View(_base_of(xref), build)


def fwd_transpose(ctx: Build, rec: Record) -> None:
    """Emit transpose as a strided view of the parent's buffer."""
    axes, _ = rec.args
    xref = ctx.val(rec.parents[0])
    ctx.vals[id(rec.out)] = View(_base_of(xref),
                                 lambda r: r(xref).transpose(axes))


def fwd_getitem(ctx: Build, rec: Record) -> None:
    """Emit basic (slice) indexing as a view; fancy indexing is unsupported."""
    idx, basic = rec.args
    if not basic:
        raise Unsupported("fancy indexing")
    xref = ctx.val(rec.parents[0])
    ctx.vals[id(rec.out)] = View(_base_of(xref), lambda r: r(xref)[idx])


def fwd_concatenate(ctx: Build, rec: Record) -> None:
    """Emit concatenate as per-part copies into one arena slot."""
    axis, offsets = rec.args
    srcs = [ctx.val(t) for t in rec.parents]
    out_h = ctx.pb.alloc(rec.out.shape, rec.out.dtype, "concat.out")
    ndim = rec.out.ndim
    sls = []
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        sl = [slice(None)] * ndim
        sl[axis] = slice(int(lo), int(hi))
        sls.append(tuple(sl))

    def factory(r):
        oa = r(out_h)
        pairs = [(oa[sl], r(src)) for sl, src in zip(sls, srcs)]

        def run():
            for dst, src in pairs:
                np.copyto(dst, src)
        return run

    ctx.pb.emit(factory, srcs + [out_h])
    ctx.vals[id(rec.out)] = out_h


def fwd_max_pool2d(ctx: Build, rec: Record) -> None:
    """Emit the max-pool forward kernel, keeping the argmaxes for backward."""
    k, s = rec.args
    xref = ctx.val(rec.parents[0])
    oshape, dtype = rec.out.shape, rec.out.dtype
    arg_h = ctx.pb.alloc(oshape, np.uint8, "maxpool.arg")
    out_h = ctx.pb.alloc(oshape, dtype, "maxpool.out")

    def factory(r):
        xa, arg, oa = r(xref), r(arg_h), r(out_h)
        return lambda: _pooling._max_forward_data(xa, k, s, arg, oa)

    ctx.pb.emit(factory, [xref, arg_h, out_h])
    ctx.vals[id(rec.out)] = out_h
    ctx.aux[id(rec.out)] = arg_h


def fwd_cross_entropy(ctx: Build, rec: Record) -> None:
    """Emit the cross-entropy forward kernel (the loss root) into the
    scalar loss cell."""
    logits = rec.parents[0]
    if ctx.lab_buf.shape != logits.shape[:1]:
        raise Unsupported("label shape mismatch")
    ldtype = logits.dtype
    xref = ctx.val(logits)
    logp = ctx.pb.alloc(logits.shape, ldtype, "ce.logp")
    soft = ctx.pb.alloc(logits.shape, ldtype, "ce.soft")
    loss_cell, lab = ctx.loss_cell, ctx.lab_buf

    def factory(r):
        lg, lp, sf = r(xref), r(logp), r(soft)

        def run():
            loss_cell[0] = float(np.asarray(
                _F._cross_entropy_forward(lg, lab, lp, sf), dtype=ldtype))
        return run

    ctx.pb.emit(factory, [xref, logp, soft])
    ctx.vals[id(rec.out)] = None
    ctx.aux[id(rec.out)] = soft


# ===================================================================== #
# backward emitters                                                     #
# ===================================================================== #

def bwd_cross_entropy(ctx: Build, rec: Record, g) -> None:
    """Emit the cross-entropy backward kernel (the loss-root gradient)."""
    a = rec.parents[0]
    soft, lab = ctx.aux[id(rec.out)], ctx.lab_buf
    # Root of the backward pass: the implicit seed is 1.0, so eager's
    # ``float(g) / n`` is exactly ``1.0 / n``.
    scale = 1.0 / a.shape[0]

    def make(r, out):
        sf = r(soft)
        return lambda: _F._cross_entropy_backward(sf, lab, scale, out)

    ctx.contrib_compute(a, a.dtype, make, [soft], "ce.dlogits")


def bwd_relu(ctx: Build, rec: Record, g) -> None:
    """Emit ReLU backward through the stashed mask (fused path included)."""
    a = rec.parents[0]
    mask_h = ctx.aux[id(rec.out)]

    def make(r, out):
        ga, mk = r(g), r(mask_h)
        return lambda: np.multiply(ga, mk, out=out)

    ctx.contrib_compute(a, rec.out.dtype, make, [g, mask_h], "relu.dx")


def _unbroadcast_contrib(ctx: Build, rec: Record, g, parent) -> None:
    """One side of add's backward: ``unbroadcast(g, parent.shape)``."""
    gshape = rec.out.shape
    pshape = parent.shape
    if gshape == pshape:
        ctx.contrib_view(parent, g, [g], "add.dx")
        return
    extra = len(gshape) - len(pshape)
    if extra > 0 and gshape[extra:] == pshape:
        axes = tuple(range(extra))

        def make(r, out):
            ga = r(g)
            return lambda: np.sum(ga, axis=axes, out=out)

        ctx.contrib_compute(parent, parent.dtype, make, [g], "add.dbias")
        return
    raise Unsupported("unbroadcast with extent-1 axes")


def bwd_add(ctx: Build, rec: Record, g) -> None:
    """Emit add backward: route the gradient to both parents, unbroadcasting."""
    a, b = rec.parents
    _unbroadcast_contrib(ctx, rec, g, a)
    _unbroadcast_contrib(ctx, rec, g, b)


def bwd_mul(ctx: Build, rec: Record, g) -> None:
    """Emit multiply backward with eager's unbroadcast-sum discipline."""
    a, b = rec.parents
    gshape = rec.out.shape
    for this, other in ((a, b), (b, a)):
        if not this.requires_grad:
            continue
        if this.shape != gshape or other.shape not in ((), gshape):
            raise Unsupported("broadcasting mul backward")
        oref = ctx.val(other)

        def make(r, out, oref=oref):
            ga, ov = r(g), r(oref)
            return lambda: np.multiply(ga, ov, out=out)

        ctx.contrib_compute(this, this.dtype, make, [g, oref], "mul.dx")


def bwd_matmul(ctx: Build, rec: Record, g) -> None:
    """Emit 2-D matmul backward (g @ b.T and a.T @ g)."""
    a, b = rec.parents
    if a.ndim != 2 or b.ndim != 2:
        raise Unsupported("non-2d matmul backward")
    aref, bref = ctx.val(a), ctx.val(b)
    if a.requires_grad:
        def make_a(r, out):
            ga = r(g)
            bswap = np.swapaxes(r(bref), -1, -2)
            return lambda: np.matmul(ga, bswap, out=out)

        ctx.contrib_compute(a, a.dtype, make_a, [g, bref], "matmul.da")
    if b.requires_grad:
        def make_b(r, out):
            ga = r(g)
            aswap = np.swapaxes(r(aref), -1, -2)
            return lambda: np.matmul(aswap, ga, out=out)

        ctx.contrib_compute(b, b.dtype, make_b, [g, aref], "matmul.db")


def bwd_transpose(ctx: Build, rec: Record, g) -> None:
    """Emit transpose backward by inverting the recorded permutation."""
    a = rec.parents[0]
    _, inv = rec.args
    view = View(_base_of(g), lambda r: r(g).transpose(inv))
    ctx.contrib_view(a, view, [g], "transpose.dx")


def bwd_reshape(ctx: Build, rec: Record, g) -> None:
    """Emit reshape backward as a reshape of the incoming gradient."""
    a = rec.parents[0]
    pshape = a.shape
    view = View(_base_of(g), lambda r: r(g).reshape(pshape))
    ctx.contrib_view(a, view, [g], "reshape.dx")


def bwd_sum(ctx: Build, rec: Record, g) -> None:
    """Emit sum backward by broadcasting the gradient over the reduced axes."""
    axis, keepdims = rec.args
    a = rec.parents[0]
    if a.dtype != rec.out.dtype:
        raise Unsupported("sum dtype change")
    pshape = a.shape

    def build(r):
        garr = np.asarray(r(g))
        if axis is not None and not keepdims:
            garr = np.expand_dims(garr, axis=axis)
        return np.broadcast_to(garr, pshape)

    ctx.contrib_view(a, View(_base_of(g), build), [g], "sum.dx")


def bwd_getitem(ctx: Build, rec: Record, g) -> None:
    """Emit slice backward: zero the parent gradient slot, then scatter."""
    idx, basic = rec.args
    if not basic:
        raise Unsupported("fancy indexing backward")
    a = rec.parents[0]

    def make(r, out):
        ga = r(g)

        def run():
            out.fill(0)
            out[idx] = ga
        return run

    ctx.contrib_compute(a, a.dtype, make, [g], "getitem.dx")


def bwd_concatenate(ctx: Build, rec: Record, g) -> None:
    """Emit concatenate backward by splitting the gradient at the offsets."""
    axis, offsets = rec.args
    ndim = rec.out.ndim
    for t, lo, hi in zip(rec.parents, offsets[:-1], offsets[1:]):
        if not t.requires_grad:
            continue
        sl = [slice(None)] * ndim
        sl[axis] = slice(int(lo), int(hi))
        sl = tuple(sl)
        view = View(_base_of(g), lambda r, sl=sl: r(g)[sl])
        ctx.contrib_view(t, view, [g], "concat.dx")


def bwd_conv2d(ctx: Build, rec: Record, g) -> None:
    """Emit the conv2d backward kernel: bias and weight gradients into
    planned buffers, the input gradient into a padded handle of its own."""
    stride, padding = rec.args
    x, weight, *bias = rec.parents
    dtype = rec.out.dtype
    wdata = weight.data
    # The kernel re-gathers the patch matrix from the conv's input: listing
    # it as a use keeps its planned buffer alive up to this instruction.
    xref = ctx.val(x)
    dxp = None
    if x.requires_grad:
        dxp = ctx.pb.alloc(_conv._padded_shape(x.shape, padding), dtype,
                           "conv.dx")

    def make(r, db, dw):
        ga, xr, dxa = r(g), r(xref), r(dxp)
        return lambda: _conv._backward_data(ga, xr, wdata, stride, padding,
                                            db, dw, dxa)

    ctx.contrib_kernel([(bias[0] if bias else None, dtype, "conv.dbias"),
                        (weight, dtype, "conv.dw")], make, [g, xref, dxp])
    if dxp is not None:
        dx = dxp if not padding else View(
            dxp, lambda r: _conv._interior(r(dxp), padding))
        ctx.contrib_view(x, dx, [], "conv.dx", owned=True)


def bwd_batchnorm(ctx: Build, rec: Record, g) -> None:
    """Emit the batch-norm backward kernel: affine gradients into planned
    buffers, the input gradient into a handle of its own."""
    _, axes, shape = rec.args
    x, *affine = rec.parents
    w, b = affine or (None, None)
    dtype = rec.out.dtype
    wdata = None if w is None else w.data
    xhat_h, saved = ctx.aux[id(rec.out)]
    gx = None
    if x.requires_grad:
        gx = ctx.pb.alloc(rec.out.shape, dtype, "bn.dx")

    def make(r, db, dw):
        ga, xhat, gxa = r(g), r(xhat_h), r(gx)

        def run():
            inv_std, training = saved
            _norm._backward_data(ga, xhat, inv_std, wdata, axes, shape,
                                 training, db, dw, gxa)
        return run

    ctx.contrib_kernel([(b, dtype, "bn.dbias"), (w, dtype, "bn.dw")], make,
                       [g, xhat_h, gx])
    if gx is not None:
        ctx.contrib_view(x, gx, [], "bn.dx", owned=True)


def bwd_max_pool2d(ctx: Build, rec: Record, g) -> None:
    """Emit the max-pool backward kernel through the saved argmaxes."""
    k, s = rec.args
    a = rec.parents[0]
    arg_h = ctx.aux[id(rec.out)]

    def make(r, out):
        ga, arg = r(g), r(arg_h)
        return lambda: _pooling._max_backward_data(ga, arg, k, s, out)

    ctx.contrib_compute(a, a.dtype, make, [g, arg_h], "maxpool.dx")


FWD = {
    "conv2d": fwd_conv2d,
    "batchnorm": fwd_batchnorm,
    "relu": fwd_relu,
    "add": fwd_add,
    "mul": fwd_mul,
    "matmul": fwd_matmul,
    "sum": fwd_sum,
    "reshape": fwd_reshape,
    "transpose": fwd_transpose,
    "getitem": fwd_getitem,
    "concatenate": fwd_concatenate,
    "max_pool2d": fwd_max_pool2d,
    "cross_entropy": fwd_cross_entropy,
}

BWD = {
    "conv2d": bwd_conv2d,
    "batchnorm": bwd_batchnorm,
    "relu": bwd_relu,
    "add": bwd_add,
    "mul": bwd_mul,
    "matmul": bwd_matmul,
    "sum": bwd_sum,
    "reshape": bwd_reshape,
    "transpose": bwd_transpose,
    "getitem": bwd_getitem,
    "concatenate": bwd_concatenate,
    "max_pool2d": bwd_max_pool2d,
    "cross_entropy": bwd_cross_entropy,
}
