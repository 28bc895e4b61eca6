"""Per-op emitters: captured tape records -> planned instructions.

Every emitter replays the *exact* arithmetic of its eager counterpart
(:mod:`repro.tensor.tensor`, :mod:`repro.nn.conv`, :mod:`repro.nn.norm`,
:mod:`repro.nn.pooling`, :mod:`repro.tensor.functional`) with outputs
redirected into planned buffers — same operands, same operand order, same
accumulation order, so replayed steps are byte-identical to eager steps
(the ``out=`` forms of NumPy ufuncs/reductions/GEMMs are bitwise equal to
their allocating forms, the invariant DESIGN.md §10 already relies on).

Gradient flow mirrors :meth:`Tensor._accumulate`'s donation contract:

- a contribution eager computes fresh (``donate="fresh"`` or an
  unbroadcast reduction) is computed directly into the parent's planned
  gradient buffer on first touch, or into a temporary then ``+=``-ed;
- a contribution eager passes through by reference (``donate=None``
  views) is copied on first touch — exactly where eager copies;
- scratch-donated arena memory (conv dx, batch-norm gx) becomes the
  parent's gradient *alias* for non-leaf parents, exactly as eager
  aliases it.

Anything outside the supported shapes raises :class:`Unsupported`, which
the step compiler converts into a per-signature fallback to eager.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.compile.ir import Handle, PlanBuilder, Unsupported, View

_POISON = object()       # value slot of a fused-away node: must never be read


def freevars(fn) -> dict:
    """The closure's free variables by name (op operands and geometry)."""
    if fn.__closure__ is None:
        return {}
    return dict(zip(fn.__code__.co_freevars,
                    (c.cell_contents for c in fn.__closure__)))


def _base_of(value):
    if isinstance(value, Handle):
        return value
    if isinstance(value, View):
        return value.base
    return None


class Record:
    """One captured op: output tensor, parents, backward closure."""

    __slots__ = ("out", "parents", "backward", "op", "free")

    def __init__(self, out, parents, backward, op):
        self.out = out
        self.parents = parents
        self.backward = backward
        self.op = op
        self.free = freevars(backward)


class Build:
    """Mutable state of one plan construction (shared by all emitters)."""

    def __init__(self, pb: PlanBuilder, model, x_in, in_buf, lab_buf):
        self.pb = pb
        self.model = model
        self.x_in = x_in
        self.in_buf = in_buf
        self.lab_buf = lab_buf
        self.vals: dict[int, object] = {id(x_in): in_buf}
        self.gref: dict[int, object] = {}
        self.aux: dict[int, object] = {}
        self.records: dict[int, Record] = {}
        self.req_false: set[int] = set()
        self.consumer_recs: dict[int, list[Record]] = {}
        self.params: dict[int, str] = {}
        self.bn_by_weight: dict[int, object] = {}
        self.pgrads: dict[int, np.ndarray] = {}
        self.param_grads: list[tuple] = []
        self.pending_fusion: dict[int, Record] = {}
        self.claimed_slots: dict[int, object] = {}   # id(slot) -> slot
        self.loss_cell = [0.0]
        self.arange_n: np.ndarray | None = None
        self.fused_fwd = 0
        self.fused_bwd = 0

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

    def claim_slot(self, ws) -> None:
        """A workspace slot driving one op per step: a second claim means
        a module ran twice (weight sharing), which the one-forward-per-
        backward arena discipline cannot replay."""
        if ws is not None:
            if id(ws) in self.claimed_slots:
                raise Unsupported("module executed twice per step")
            self.claimed_slots[id(ws)] = ws

    # ----------------------------------------------------- contributions
    def _grad_target(self, parent, shape, name):
        pid = id(parent)
        if pid in self.params:
            buf = self.pgrads.get(pid)
            if buf is None:
                if tuple(shape) != parent.data.shape:
                    raise Unsupported("parameter grad shape mismatch")
                buf = self.pb.persistent(shape, parent.data.dtype)
                self.pgrads[pid] = buf
                self.param_grads.append((parent, buf))
            return buf
        return self.pb.alloc(shape, parent.data.dtype, name)

    def contrib_compute(self, parent, shape, dtype, make, uses, name="grad"):
        """A contribution eager computes into a fresh array.

        ``make(resolve, out_arr) -> closure`` computes the contribution
        into ``out_arr``.  First touch computes straight into the parent's
        gradient buffer (same values as eager's fresh-array donation);
        later touches compute into a temporary and ``+=`` it, mirroring
        ``self.grad += grad``.
        """
        if not parent.requires_grad:
            return
        if np.dtype(dtype) != parent.data.dtype:
            raise Unsupported("gradient dtype mismatch")
        cur = self.gref.get(id(parent))
        if cur is None:
            target = self._grad_target(parent, shape, name)

            def factory(r, make=make, target=target):
                return make(r, r(target))

            self.pb.emit(factory, uses + [target])
            self.gref[id(parent)] = target
        else:
            tmp = self.pb.alloc(shape, dtype, name + ".tmp")

            def factory(r, make=make, tmp=tmp, cur=cur):
                inner = make(r, r(tmp))
                gp = r(cur)
                tarr = r(tmp)

                def run():
                    inner()
                    np.add(gp, tarr, out=gp)
                return run

            self.pb.emit(factory, uses + [tmp, cur])

    def contrib_view(self, parent, value, donate, uses, name="grad"):
        """A contribution that is existing memory (a view of the node's
        gradient, or scratch-donated arena memory)."""
        if not parent.requires_grad:
            return
        cur = self.gref.get(id(parent))
        nonleaf = id(parent) in self.records
        if cur is None:
            if donate == "scratch" and nonleaf:
                # Eager aliases: the parent's grad IS this memory.
                self.gref[id(parent)] = value
                for u in uses:
                    self.pb.touch(u)
                self.pb.touch(value)
                return
            target = self._grad_target(parent, parent.data.shape, name)

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
    """Emit Conv2d forward via the workspace im2col path into an arena slot."""
    f = rec.free
    ws = f["ws"]
    if ws is None:
        raise Unsupported("conv2d without workspace slot")
    ctx.claim_slot(ws)
    x, weight, bias = f["x"], f["weight"], f["bias"]
    stride, padding = f["stride"], f["padding"]
    xref = ctx.val(x)
    out_h = ctx.pb.alloc(rec.out.data.shape, rec.out.data.dtype, "conv.out")
    wdata = weight.data
    bdata = None if bias is None else bias.data
    from repro.nn.conv import _forward_data

    def factory(r):
        xr = r(xref)
        oa = r(out_h)
        return lambda: _forward_data(xr, wdata, bdata, stride, padding, ws,
                                     out_arr=oa)

    ctx.pb.emit(factory, [xref, out_h])
    ctx.vals[id(rec.out)] = out_h


def fwd_batchnorm(ctx: Build, rec: Record) -> None:
    """Emit train-mode BatchNorm forward plus its running-stat updates."""
    f = rec.free
    ws, w, b, x = f["ws"], f["w"], f["b"], f["x"]
    axes, shape, nred = f["axes"], f["shape"], f["nred"]
    if w is None or b is None:
        raise Unsupported("batchnorm without affine parameters")
    if not f["training"]:
        raise Unsupported("batchnorm captured in eval mode")
    mod = ctx.bn_by_weight.get(id(w))
    if mod is None:
        raise Unsupported("batchnorm module not found")
    if rec.out.data.dtype != x.data.dtype:
        raise Unsupported("batchnorm dtype change")
    ctx.claim_slot(ws)
    xhat = f["xhat"]                              # stable arena buffer
    sq = ws.buffer("batchnorm.scratch", x.data.shape, x.data.dtype)
    red_count = x.data.size // mod.num_features
    xref = ctx.val(x)
    out_h = ctx.pb.alloc(rec.out.data.shape, rec.out.data.dtype, "bn.out")
    inv_cell = [None]
    wdata, bdata = w.data, b.data

    def factory(r):
        xr = r(xref)
        oa = r(out_h)

        def run():
            mu = xr.mean(axis=axes, keepdims=True)
            np.subtract(xr, mu, out=xhat)
            np.multiply(xhat, xhat, out=sq)
            var = sq.sum(axis=axes) / red_count
            mean = mu.reshape(-1)
            unbiased = var * nred / max(nred - 1, 1)
            m = mod.momentum
            mod.set_buffer("running_mean",
                           (1 - m) * mod.running_mean
                           + m * mean.astype(np.float32))
            mod.set_buffer("running_var",
                           (1 - m) * mod.running_var
                           + m * unbiased.astype(np.float32))
            mod.set_buffer("num_batches_tracked", mod.num_batches_tracked + 1)
            inv_std = 1.0 / np.sqrt(var.reshape(shape) + mod.eps)
            np.multiply(xhat, inv_std, out=xhat)
            np.multiply(xhat, wdata.reshape(shape), out=oa)
            np.add(oa, bdata.reshape(shape), out=oa)
            inv_cell[0] = inv_std
        return run

    ctx.pb.emit(factory, [xref, out_h])
    ctx.vals[id(rec.out)] = out_h
    ctx.aux[id(rec.out)] = inv_cell


def fwd_relu(ctx: Build, rec: Record) -> None:
    """Emit ReLU forward and stash the positive mask for the backward."""
    a = rec.parents[0]
    out_h = ctx.pb.alloc(rec.out.data.shape, rec.out.data.dtype, "relu.out")
    mask_h = ctx.pb.alloc(rec.out.data.shape, np.bool_, "relu.mask")
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
    out_h = ctx.pb.alloc(rec.out.data.shape, rec.out.data.dtype, "add.out")

    def factory(r):
        aa, bb, oa = r(ar), r(br), r(out_h)
        return lambda: np.add(aa, bb, out=oa)

    ctx.pb.emit(factory, [ar, br, out_h])
    ctx.vals[id(rec.out)] = out_h


def fwd_mul(ctx: Build, rec: Record) -> None:
    """Emit elementwise (broadcasting) multiply."""
    a, b = rec.parents
    ar, br = ctx.val(a), ctx.val(b)
    out_h = ctx.pb.alloc(rec.out.data.shape, rec.out.data.dtype, "mul.out")

    def factory(r):
        aa, bb, oa = r(ar), r(br), r(out_h)
        return lambda: np.multiply(aa, bb, out=oa)

    ctx.pb.emit(factory, [ar, br, out_h])
    ctx.vals[id(rec.out)] = out_h


def fwd_matmul(ctx: Build, rec: Record) -> None:
    """Emit a 2-D matmul; higher ranks are unsupported."""
    a, b = rec.parents
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise Unsupported("non-2d matmul")
    ar, br = ctx.val(a), ctx.val(b)
    out_h = ctx.pb.alloc(rec.out.data.shape, rec.out.data.dtype, "matmul.out")

    def factory(r):
        aa, bb, oa = r(ar), r(br), r(out_h)
        return lambda: np.matmul(aa, bb, out=oa)

    ctx.pb.emit(factory, [ar, br, out_h])
    ctx.vals[id(rec.out)] = out_h


def fwd_sum(ctx: Build, rec: Record) -> None:
    """Emit a reduction matching the recorded axis/keepdims."""
    f = rec.free
    axis, keepdims = f["axis"], f["keepdims"]
    xref = ctx.val(rec.parents[0])
    out_h = ctx.pb.alloc(rec.out.data.shape, rec.out.data.dtype, "sum.out")

    def factory(r):
        xr, oa = r(xref), r(out_h)
        return lambda: np.sum(xr, axis=axis, keepdims=keepdims, out=oa)

    ctx.pb.emit(factory, [xref, out_h])
    ctx.vals[id(rec.out)] = out_h


def fwd_reshape(ctx: Build, rec: Record) -> None:
    """Emit reshape as a no-copy arena view when possible, else a copy."""
    a = rec.parents[0]
    shape = rec.out.data.shape
    try:
        np.reshape(a.data, shape, copy=False)
    except ValueError:
        raise Unsupported("copying reshape") from None
    xref = ctx.val(a)

    def build(r):
        try:
            return np.reshape(r(xref), shape, copy=False)
        except ValueError:
            raise Unsupported("copying reshape at bind") from None

    ctx.vals[id(rec.out)] = View(_base_of(xref), build)


def fwd_transpose(ctx: Build, rec: Record) -> None:
    """Emit transpose as a strided view of the parent's buffer."""
    inv = rec.free["inv"]
    axes = tuple(int(i) for i in np.argsort(inv))
    xref = ctx.val(rec.parents[0])
    ctx.vals[id(rec.out)] = View(_base_of(xref),
                                 lambda r: r(xref).transpose(axes))


def fwd_getitem(ctx: Build, rec: Record) -> None:
    """Emit basic (slice) indexing as a view; fancy indexing is unsupported."""
    f = rec.free
    if not f["basic"]:
        raise Unsupported("fancy indexing")
    idx = f["idx"]
    xref = ctx.val(rec.parents[0])
    ctx.vals[id(rec.out)] = View(_base_of(xref), lambda r: r(xref)[idx])


def fwd_concatenate(ctx: Build, rec: Record) -> None:
    """Emit concatenate as per-part copies into one arena slot."""
    f = rec.free
    axis, offsets = f["axis"], f["offsets"]
    srcs = [ctx.val(t) for t in rec.parents]
    out_h = ctx.pb.alloc(rec.out.data.shape, rec.out.data.dtype, "concat.out")
    ndim = rec.out.data.ndim
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
    """Emit non-overlapping max-pool forward, keeping flat argmax indices."""
    f = rec.free
    n, c, h, w = f["n"], f["c"], f["h"], f["w"]
    ho, wo, k, s = f["ho"], f["wo"], f["k"], f["s"]
    ws = f["ws"]
    if s < k:
        raise Unsupported("overlapping max-pool")
    ctx.claim_slot(ws)
    xref = ctx.val(rec.parents[0])
    dtype = rec.out.data.dtype
    flat_h = ctx.pb.alloc((n, c, ho, wo, k, k), dtype, "maxpool.flat")
    arg_h = ctx.pb.alloc((n, c, ho, wo), np.intp, "maxpool.arg")
    out_h = ctx.pb.alloc(rec.out.data.shape, dtype, "maxpool.out")

    def factory(r):
        from numpy.lib.stride_tricks import sliding_window_view
        xr = r(xref)
        windows = sliding_window_view(xr, (k, k), axis=(2, 3))[:, :, ::s, ::s]
        flat6 = r(flat_h)
        flat = flat6.reshape(n, c, ho, wo, k * k)
        arg = r(arg_h)
        oa = r(out_h)

        def run():
            np.copyto(flat6, windows)
            np.argmax(flat, axis=-1, out=arg)
            tal = np.take_along_axis(flat, arg[..., None], axis=-1)
            np.copyto(oa, tal[..., 0])
        return run

    ctx.pb.emit(factory, [xref, flat_h, arg_h, out_h])
    ctx.vals[id(rec.out)] = out_h
    ctx.aux[id(rec.out)] = arg_h


def fwd_cross_entropy(ctx: Build, rec: Record) -> None:
    """Emit softmax cross-entropy (the loss root) into the scalar loss cell."""
    f = rec.free
    n = f["n"]
    logits = rec.parents[0]
    if ctx.lab_buf.shape != (n,):
        raise Unsupported("label shape mismatch")
    ctx.arange_n = np.arange(n)
    lshape = logits.data.shape
    ldtype = logits.data.dtype
    xref = ctx.val(logits)
    sh = ctx.pb.alloc(lshape, ldtype, "ce.shifted")
    e = ctx.pb.alloc(lshape, ldtype, "ce.exp")
    logp = ctx.pb.alloc(lshape, ldtype, "ce.logp")
    soft = ctx.pb.alloc(lshape, ldtype, "ce.soft")
    loss_cell = ctx.loss_cell
    lab = ctx.lab_buf
    ar = ctx.arange_n

    def factory(r):
        lg = r(xref)
        shv, ev, lp, sf = r(sh), r(e), r(logp), r(soft)

        def run():
            m = lg.max(axis=1, keepdims=True)
            np.subtract(lg, m, out=shv)
            np.exp(shv, out=ev)
            lse = np.log(ev.sum(axis=1, keepdims=True))
            np.subtract(shv, lse, out=lp)
            loss_cell[0] = float(np.asarray(-(lp[ar, lab].mean()),
                                            dtype=ldtype))
            np.exp(lp, out=sf)
        return run

    ctx.pb.emit(factory, [xref, sh, e, logp, soft])
    ctx.vals[id(rec.out)] = None
    ctx.aux[id(rec.out)] = soft


# ===================================================================== #
# backward emitters                                                     #
# ===================================================================== #

def bwd_cross_entropy(ctx: Build, rec: Record, g) -> None:
    """Emit the loss-root gradient (softmax minus one-hot, seed 1.0)."""
    # Root of the backward pass; the implicit seed is 1.0, so eager's
    # ``grad *= float(g) / n`` is exactly ``grad *= 1.0 / n``.
    f = rec.free
    n = f["n"]
    a = rec.parents[0]
    soft = ctx.aux[id(rec.out)]
    lab, ar = ctx.lab_buf, ctx.arange_n
    inv = 1.0 / n

    def make(r, out):
        sf = r(soft)

        def run():
            np.copyto(out, sf)
            out[ar, lab] -= 1.0
            np.multiply(out, inv, out=out)
        return run

    ctx.contrib_compute(a, a.data.shape, a.data.dtype, make, [soft],
                        "ce.dlogits")


def bwd_relu(ctx: Build, rec: Record, g) -> None:
    """Emit ReLU backward through the stashed mask (fused path included)."""
    a = rec.parents[0]
    mask_h = ctx.aux[id(rec.out)]

    def make(r, out):
        ga, mk = r(g), r(mask_h)
        return lambda: np.multiply(ga, mk, out=out)

    ctx.contrib_compute(a, rec.out.data.shape, rec.out.data.dtype, make,
                        [g, mask_h], "relu.dx")
    ctx.fused_bwd += 1


def _unbroadcast_contrib(ctx: Build, rec: Record, g, parent) -> None:
    """One side of add's backward: ``unbroadcast(g, parent.shape)``."""
    gshape = rec.out.data.shape
    pshape = parent.data.shape
    if gshape == pshape:
        ctx.contrib_view(parent, g, None, [g], "add.dx")
        return
    extra = len(gshape) - len(pshape)
    if extra > 0 and gshape[extra:] == pshape:
        axes = tuple(range(extra))

        def make(r, out):
            ga = r(g)
            return lambda: np.sum(ga, axis=axes, out=out)

        ctx.contrib_compute(parent, pshape, parent.data.dtype, make, [g],
                            "add.dbias")
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
    gshape = rec.out.data.shape
    for this, other in ((a, b), (b, a)):
        if not this.requires_grad:
            continue
        if this.data.shape != gshape or other.data.shape not in ((), gshape):
            raise Unsupported("broadcasting mul backward")
        oref = ctx.val(other)

        def make(r, out, oref=oref):
            ga, ov = r(g), r(oref)
            return lambda: np.multiply(ga, ov, out=out)

        ctx.contrib_compute(this, this.data.shape, this.data.dtype, make,
                            [g, oref], "mul.dx")


def bwd_matmul(ctx: Build, rec: Record, g) -> None:
    """Emit 2-D matmul backward (g @ b.T and a.T @ g)."""
    a, b = rec.parents
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise Unsupported("non-2d matmul backward")
    aref, bref = ctx.val(a), ctx.val(b)
    if a.requires_grad:
        def make_a(r, out):
            ga = r(g)
            bswap = np.swapaxes(r(bref), -1, -2)
            return lambda: np.matmul(ga, bswap, out=out)

        ctx.contrib_compute(a, a.data.shape, a.data.dtype, make_a,
                            [g, bref], "matmul.da")
    if b.requires_grad:
        def make_b(r, out):
            ga = r(g)
            aswap = np.swapaxes(r(aref), -1, -2)
            return lambda: np.matmul(aswap, ga, out=out)

        ctx.contrib_compute(b, b.data.shape, b.data.dtype, make_b,
                            [g, aref], "matmul.db")


def bwd_transpose(ctx: Build, rec: Record, g) -> None:
    """Emit transpose backward by inverting the recorded permutation."""
    a = rec.parents[0]
    inv = rec.free["inv"]
    view = View(_base_of(g), lambda r: r(g).transpose(inv))
    ctx.contrib_view(a, view, None, [g], "transpose.dx")


def bwd_reshape(ctx: Build, rec: Record, g) -> None:
    """Emit reshape backward as a reshape of the incoming gradient."""
    a = rec.parents[0]
    pshape = a.data.shape
    view = View(_base_of(g), lambda r: r(g).reshape(pshape))
    ctx.contrib_view(a, view, None, [g], "reshape.dx")


def bwd_sum(ctx: Build, rec: Record, g) -> None:
    """Emit sum backward by broadcasting the gradient over the reduced axes."""
    f = rec.free
    axis, keepdims = f["axis"], f["keepdims"]
    a = rec.parents[0]
    if a.data.dtype != rec.out.data.dtype:
        raise Unsupported("sum dtype change")
    pshape = a.data.shape

    def build(r):
        garr = np.asarray(r(g))
        if axis is not None and not keepdims:
            garr = np.expand_dims(garr, axis=axis)
        return np.broadcast_to(garr, pshape)

    ctx.contrib_view(a, View(_base_of(g), build), None, [g], "sum.dx")


def bwd_getitem(ctx: Build, rec: Record, g) -> None:
    """Emit slice backward: zero the parent gradient slot, then scatter."""
    f = rec.free
    if not f["basic"]:
        raise Unsupported("fancy indexing backward")
    idx = f["idx"]
    a = rec.parents[0]

    def make(r, out):
        ga = r(g)

        def run():
            out.fill(0)
            out[idx] = ga
        return run

    ctx.contrib_compute(a, a.data.shape, a.data.dtype, make, [g],
                        "getitem.dx")


def bwd_concatenate(ctx: Build, rec: Record, g) -> None:
    """Emit concatenate backward by splitting the gradient at the offsets."""
    f = rec.free
    axis, offsets = f["axis"], f["offsets"]
    ndim = rec.out.data.ndim
    for t, lo, hi in zip(rec.parents, offsets[:-1], offsets[1:]):
        if not t.requires_grad:
            continue
        sl = [slice(None)] * ndim
        sl[axis] = slice(int(lo), int(hi))
        sl = tuple(sl)
        view = View(_base_of(g), lambda r, sl=sl: r(g)[sl])
        ctx.contrib_view(t, view, None, [g], "concat.dx")


def bwd_conv2d(ctx: Build, rec: Record, g) -> None:
    """Emit Conv2d backward (bias sum, weight matmul, col2im input grad)."""
    f = rec.free
    ws = f["ws"]
    x, weight, bias = f["x"], f["weight"], f["bias"]
    n, ho, wo, out_c = f["n"], f["ho"], f["wo"], f["out_c"]
    kh, kw = f["kh"], f["kw"]
    stride, padding = f["stride"], f["padding"]
    cols, wmat, xp_shape = f["cols"], f["wmat"], f["xp_shape"]
    dtype = rec.out.data.dtype
    rows = n * ho * wo
    gmat_cell: list = []

    def prep(r):
        garr = r(g)
        try:
            # Same view-vs-copy decision as eager: both gradients are
            # C-contiguous (planned buffers mirror eager's fresh arrays),
            # so the reshape succeeds or fails identically.
            gmat_cell.append(np.reshape(garr.transpose(0, 2, 3, 1),
                                        (rows, out_c), copy=False))
            return None
        except ValueError:
            gmbuf = ws.buffer("conv2d.gmat", (rows, out_c), garr.dtype)
            gmat_cell.append(gmbuf)
            gt_view = gmbuf.reshape(n, ho, wo, out_c)
            return lambda: np.copyto(gt_view, garr.transpose(0, 2, 3, 1))

    ctx.pb.emit(prep, [g])

    if bias is not None and bias.requires_grad:
        def make_bias(r, out):
            return lambda: np.sum(gmat_cell[0], axis=0, out=out)

        ctx.contrib_compute(bias, bias.data.shape, dtype, make_bias, [g],
                            "conv.dbias")

    if weight.requires_grad:
        def make_w(r, out):
            o2 = out.reshape(out_c, -1)
            return lambda: np.matmul(gmat_cell[0].T, cols, out=o2)

        ctx.contrib_compute(weight, weight.data.shape, dtype, make_w, [g],
                            "conv.dw")

    if x.requires_grad:
        dcols = ws.buffer("conv2d.dcols", (rows, wmat.shape[1]), dtype)
        dx = ws.buffer("conv2d.dx", xp_shape, dtype, zero="always")
        from repro.nn.conv import _col2im_into

        def factory(r):
            def run():
                np.matmul(gmat_cell[0], wmat, out=dcols)
                dx[...] = 0
                _col2im_into(dcols, dx, kh, kw, stride, n, ho, wo)
            return run

        ctx.pb.emit(factory, [g])
        dxp = dx[:, :, padding:-padding, padding:-padding] if padding else dx
        ctx.contrib_view(x, dxp, "scratch", [], "conv.dx")


def bwd_batchnorm(ctx: Build, rec: Record, g) -> None:
    """Emit train-mode BatchNorm backward through the saved normalizer."""
    f = rec.free
    ws = f["ws"]
    a, w, b, x = f["a"], f["w"], f["b"], f["x"]
    axes, shape, nred = f["axes"], f["shape"], f["nred"]
    xhat = f["xhat"]
    dtype = rec.out.data.dtype
    scratch = ws.buffer("batchnorm.scratch", rec.out.data.shape, dtype)
    inv_cell = ctx.aux[id(rec.out)]

    if b.requires_grad:
        def make_b(r, out):
            ga = r(g)
            return lambda: np.sum(ga, axis=axes, out=out)

        ctx.contrib_compute(b, b.data.shape, dtype, make_b, [g], "bn.dbias")

    if w.requires_grad:
        def prep_w(r):
            ga = r(g)
            return lambda: np.multiply(ga, xhat, out=scratch)

        ctx.pb.emit(prep_w, [g])

        def make_w(r, out):
            return lambda: np.sum(scratch, axis=axes, out=out)

        ctx.contrib_compute(w, w.data.shape, dtype, make_w, [g], "bn.dw")

    if a.requires_grad:
        gx = ws.buffer("batchnorm.gx", rec.out.data.shape, dtype)
        wdata = w.data

        def factory(r):
            ga = r(g)

            def run():
                np.multiply(ga, wdata.reshape(shape), out=gx)
                gsum = gx.sum(axis=axes, keepdims=True)
                np.multiply(gx, xhat, out=scratch)
                gxhat_sum = scratch.sum(axis=axes, keepdims=True)
                np.subtract(gx, gsum / nred, out=gx)
                np.multiply(xhat, gxhat_sum, out=scratch)
                np.divide(scratch, nred, out=scratch)
                np.subtract(gx, scratch, out=gx)
                np.multiply(gx, inv_cell[0], out=gx)
            return run

        ctx.pb.emit(factory, [g])
        ctx.contrib_view(a, gx, "scratch", [], "bn.dx")


def bwd_max_pool2d(ctx: Build, rec: Record, g) -> None:
    """Emit max-pool backward scattering through the saved flat argmaxes."""
    f = rec.free
    n, c, h, w = f["n"], f["c"], f["h"], f["w"]
    ho, wo, k, s = f["ho"], f["wo"], f["k"], f["s"]
    ws = f["ws"]
    if s < k:
        raise Unsupported("overlapping max-pool backward")
    a = rec.parents[0]
    arg_h = ctx.aux[id(rec.out)]
    from repro.nn.pooling import _pool_flat_base
    if ws is not None:
        base = ws.cached("maxpool.base", (n, c, h, w, ho, wo, s),
                         lambda: _pool_flat_base(n, c, h, w, ho, wo, s))
    else:
        base = _pool_flat_base(n, c, h, w, ho, wo, s)

    def make(r, out):
        ga = r(g)
        arg = r(arg_h)
        flat_out = out.reshape(-1)

        def run():
            out.fill(0)
            ki, kj = np.divmod(arg, k)
            flat_idx = base + ki * w + kj
            flat_out[flat_idx.reshape(-1)] = np.ravel(ga)
        return run

    ctx.contrib_compute(a, a.data.shape, a.data.dtype, make, [g, arg_h],
                        "maxpool.dx")


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
