"""Paper oracles for SPATL's gradient control and server step: Eq. 9-12 as
plain loops.

The repo's byte-identity goldens pin one code path against another; these
tests pin the single remaining aggregation body (``SalientAccumulator`` /
``SPATLFold``, reached through ``salient_aggregate`` and
``SPATL.aggregate*``) against the *paper's* formulas, written as naive
float64 loops over filters and clients with no NumPy scatter tricks.

Eq. 12 (index-wise salient aggregation, per filter ``f``)::

    W[f] <- W[f] + eta * sum_{i: f in I_i} w_i (W_i[f] - W[f])
                         / sum_{i: f in I_i} w_i

Eq. 11 (server control variate, survivors ``S`` of ``N`` clients)::

    c <- c + (1/N) * sum_{i in S} w_i * delta_c_i
    delta_c_i = -c + (x_before - x_i) / (K_i * lr)      (Eq. 10 refresh)

``w_i = 1`` in the synchronous protocol; the async runtime's staleness
discounts make it a weighted mean / discounted sum.

Eq. 9 (client step, generic parameters only) and Eq. 10 (variate refresh)::

    g <- g + c - c_i                     encoder names; predictor: g
    c_i+ = c_i - c + (x - y_i) / (K * lr)

``K`` is the number of local steps under plain SGD; under heavy-ball
momentum ``rho`` it is the path length of those steps in units of
``lr * g`` (:func:`heavy_ball_steps`, a literal simulation).

Float32 bound used throughout, per element: the code evaluates each
formula in a handful of correctly rounded float32 operations, so it sits
within ``8 * 2**-23 * (sum of the |terms|)`` of the float64 oracle.
"""

import types

import numpy as np
import pytest

from repro.core import SPATL, StaticSaliencyPolicy, salient_aggregate
from repro.core.gradient_control import (ControlVariate, make_correction_hook,
                                         refresh_client_variate)
from repro.fl import make_federated_clients, staleness_weight
from repro.models.split import SplitModel
from repro.nn.module import Parameter
from repro.optim.sgd import SGD

F32 = 8 * 2.0 ** -23        # the stated bound's factor on sum |terms|


def eq12_oracle(global_weight, uploads, eta=1.0, weights=None):
    """Eq. 12, one filter at a time; each listed index is one coverage."""
    weights = [1.0] * len(uploads) if weights is None else weights
    w_global = np.asarray(global_weight, dtype=np.float64)
    out = w_global.copy()
    for f in range(w_global.shape[0]):
        num = np.zeros_like(w_global[f])
        den = 0.0
        for (indices, rows), w in zip(uploads, weights):
            for pos, index in enumerate(indices):
                if index == f:
                    num = num + w * (np.asarray(rows[pos], np.float64)
                                     - w_global[f])
                    den += w
        if den > 0:
            out[f] = w_global[f] + eta * num / den
    return out


def _upload(rng, indices, row_shape):
    indices = np.asarray(indices, dtype=np.int64)
    return indices, rng.standard_normal(
        (len(indices),) + row_shape).astype(np.float32)


class TestEq12:
    ROW_SHAPES = [(), (3,), (4, 3, 3)]   # scatter path, and the wide fast path

    @pytest.mark.parametrize("row_shape", ROW_SHAPES)
    @pytest.mark.parametrize("weights", [None, [1.0, 0.5, 0.25, 2.0]],
                             ids=["unit", "weighted"])
    @pytest.mark.parametrize("eta", [1.0, 0.5])
    def test_matches_the_formula(self, row_shape, weights, eta):
        rng = np.random.default_rng(7)
        g = rng.standard_normal((8,) + row_shape).astype(np.float32)
        uploads = [_upload(rng, [0, 2, 5], row_shape),
                   _upload(rng, [2, 5, 5, 6], row_shape),   # duplicate index
                   _upload(rng, [], row_shape),             # empty selection
                   _upload(rng, [5, 0], row_shape)]
        got = salient_aggregate(g, uploads, step_size=eta, weights=weights)
        want = eq12_oracle(g, uploads, eta, weights)
        assert got.dtype == g.dtype
        np.testing.assert_allclose(got, want, rtol=2e-6, atol=1e-7)

    def test_never_selected_filters_are_untouched_bitwise(self):
        rng = np.random.default_rng(1)
        g = rng.standard_normal((6, 4)).astype(np.float32)
        uploads = [_upload(rng, [1, 4], (4,)), _upload(rng, [4], (4,))]
        for weights in (None, [0.5, 0.25]):
            out = salient_aggregate(g, uploads, weights=weights)
            for f in (0, 2, 3, 5):
                assert out[f].tobytes() == g[f].tobytes()

    def test_denominator_is_per_coordinate_coverage(self):
        """Filter 0 is covered by three clients, filter 1 by one: each
        moves to the mean of *its* coverers, not of the cohort."""
        g = np.zeros((2, 2), dtype=np.float32)
        ones = np.ones((1, 2), dtype=np.float32)
        uploads = [(np.array([0]), 3 * ones), (np.array([0]), 6 * ones),
                   (np.array([0, 1]), np.concatenate([9 * ones, 5 * ones]))]
        out = salient_aggregate(g, uploads)
        np.testing.assert_array_equal(out[0], [6.0, 6.0])   # (3+6+9)/3
        np.testing.assert_array_equal(out[1], [5.0, 5.0])   # 5/1, not 5/3

    def test_weighted_mean_weights_cancel_for_a_single_coverer(self):
        g = np.zeros((2, 2), dtype=np.float32)
        rows = np.full((1, 2), 4.0, dtype=np.float32)
        out = salient_aggregate(g, [(np.array([1]), rows)], weights=[0.125])
        np.testing.assert_array_equal(out[1], [4.0, 4.0])


def eq9_oracle(grad, c, c_i):
    """Eq. 9 for one generic tensor, one element at a time."""
    out = np.empty(grad.shape, dtype=np.float64)
    for at in np.ndindex(grad.shape):
        out[at] = float(grad[at]) + float(c[at]) - float(c_i[at])
    return out


def heavy_ball_steps(tau, rho):
    """Eq. 10's ``K`` under momentum, by simulation: how far ``tau``
    heavy-ball steps (``v <- rho v + g; x <- x - lr v``) move ``x`` along
    a constant gradient, in units of ``lr * g``.  ``rho = 0`` gives
    ``tau``; zero steps count as one (the denominator must not vanish)."""
    v = moved = 0.0
    for _ in range(max(tau, 1)):
        v = rho * v + 1.0
        moved += v
    return moved


def eq10_oracle(c_i, c, x, y, k, lr):
    """Eq. 10 for one tensor, one element at a time; also returns the
    per-element sum of |terms| the float32 bound scales with."""
    out = np.empty(x.shape, dtype=np.float64)
    mass = np.empty(x.shape, dtype=np.float64)
    for at in np.ndindex(x.shape):
        d = (float(x[at]) - float(y[at])) / (k * lr)
        out[at] = float(c_i[at]) - float(c[at]) + d
        mass[at] = abs(float(c_i[at])) + abs(float(c[at])) + abs(d)
    return out, mass


def _encoder_key(name):
    """SPATL's name map: optimizer name -> variate key, None off-encoder."""
    prefix = SplitModel.ENCODER_PREFIX
    return name[len(prefix):] if name.startswith(prefix) else None


def _variates(rng, template, n=2):
    out = []
    for _ in range(n):
        variate = ControlVariate(template)
        for name, value in variate.values.items():
            variate.values[name] = (0.01 * rng.standard_normal(
                value.shape)).astype(value.dtype)
        out.append(variate)
    return out


class TestEq9:
    """``make_correction_hook``: ``g + c - c_i`` on encoder names, the
    predictor's gradient handed back untouched."""

    def test_hook_corrects_generic_names_only(self):
        rng = np.random.default_rng(2)
        template = {"conv1.weight": np.zeros((4, 3, 3, 3), np.float32),
                    "bn1.bias": np.zeros(4, np.float32)}
        c, c_i = _variates(rng, template)
        prefix = SplitModel.ENCODER_PREFIX
        hook = make_correction_hook(c, c_i, _encoder_key)
        for name, value in template.items():
            g = rng.standard_normal(value.shape).astype(np.float32)
            kept = g.copy()
            got = hook(prefix + name, g)
            want = eq9_oracle(g, c[name], c_i[name])
            mass = np.abs(g) + np.abs(c[name]) + np.abs(c_i[name])
            assert got.dtype == np.float32 and got is not g
            assert np.all(np.abs(got - want) <= F32 * mass), name
            np.testing.assert_array_equal(g, kept)      # borrowed, not written
        g = rng.standard_normal((10, 4)).astype(np.float32)
        # the predictor, and an encoder name no variate covers
        assert hook("predictor.fc.weight", g) is g
        assert hook(prefix + "bn1.running_mean", g) is g
        # same key space without a name map (SCAFFOLD-style use)
        bare = make_correction_hook(c, c_i)
        g = rng.standard_normal(4).astype(np.float32)
        np.testing.assert_array_equal(bare("bn1.bias", g),
                                      hook(prefix + "bn1.bias", g))
        assert bare("fc.weight", g) is g

    def test_sgd_step_applies_it_to_the_encoder_and_not_the_predictor(
            self, tiny_model_fn):
        # One plain SGD step through the optimizer's hook point, on a real
        # split model: x - lr (g + c - c_i) for every encoder parameter,
        # x - lr g for every predictor parameter.
        rng = np.random.default_rng(4)
        model, lr = tiny_model_fn(), 0.05
        prefix = SplitModel.ENCODER_PREFIX
        c, c_i = _variates(rng, {n: p.data for n, p in
                                 model.encoder.named_parameters()})
        opt = SGD(model.named_parameters(), lr=lr)
        opt.add_correction_hook(make_correction_hook(c, c_i, _encoder_key))
        before, grads = {}, {}
        for name, p in model.named_parameters():
            before[name] = p.data.astype(np.float64)
            p.grad = rng.standard_normal(p.shape).astype(np.float32)
            grads[name] = p.grad.astype(np.float64)
        opt.step()
        seen = {True: 0, False: 0}
        for name, p in model.named_parameters():
            generic = name.startswith(prefix)
            seen[generic] += 1
            g, mass = grads[name], np.abs(grads[name])
            if generic:
                key = name[len(prefix):]
                g = g + c[key].astype(np.float64) - c_i[key]
                mass = mass + np.abs(c[key]) + np.abs(c_i[key])
            want = before[name] - lr * g
            bound = F32 * (np.abs(before[name]) + lr * mass)
            assert np.all(np.abs(p.data - want) <= bound), name
            if not generic:     # bitwise the uncorrected step
                np.testing.assert_array_equal(
                    p.data, (before[name].astype(np.float32)
                             - np.float32(lr) * grads[name].astype(np.float32)))
        assert seen[True] and seen[False]


class TestEq10:
    """``refresh_client_variate`` and its denominator,
    ``SPATL._effective_steps``."""

    RHOS = [0.0, 0.5, 0.9, 0.99]

    @pytest.mark.parametrize("rho", RHOS)
    def test_effective_steps_is_the_heavy_ball_path_length(self, rho):
        algo = types.SimpleNamespace(momentum=rho)
        for tau in (0, 1, 2, 3, 7, 50, 400):
            got = SPATL._effective_steps(algo, tau)
            assert got == pytest.approx(heavy_ball_steps(tau, rho),
                                        rel=1e-12), tau
            if rho == 0.0:
                assert got == max(tau, 1)        # plain SGD: K is the count

    @pytest.mark.parametrize("rho", RHOS)
    def test_the_optimizer_moves_that_far(self, rho):
        # The simulation is of *this* optimizer: tau steps of the repo's
        # SGD under a constant unit gradient move x by lr * K.
        lr, tau = 0.05, 9
        p = Parameter(np.zeros(3, dtype=np.float32))
        opt = SGD([("p", p)], lr=lr, momentum=rho)
        for _ in range(tau):
            p.grad = np.ones(3, dtype=np.float32)
            opt.step()
        np.testing.assert_allclose(-p.data / lr, heavy_ball_steps(tau, rho),
                                   rtol=tau * 2.0 ** -22)

    @pytest.mark.parametrize("rho,tau", [(0.0, 6), (0.9, 6), (0.9, 0)])
    def test_refresh_matches_the_formula(self, rho, tau):
        rng = np.random.default_rng(6)
        template = {"conv1.weight": np.zeros((4, 3, 3, 3), np.float32),
                    "bn1.weight": np.zeros(4, np.float32)}
        c, c_i = _variates(rng, template)
        x = {k: rng.standard_normal(v.shape).astype(np.float32)
             for k, v in template.items()}
        y = {k: (x[k] + 0.05 * rng.standard_normal(v.shape)).astype(np.float32)
             for k, v in template.items()}
        x["fc.weight"] = y["fc.weight"] = np.ones(3, np.float32)  # ignored
        kept = {k: v.copy() for k, v in c_i.values.items()}
        lr = 0.05
        steps = SPATL._effective_steps(types.SimpleNamespace(momentum=rho),
                                       tau)
        fresh = refresh_client_variate(c_i, c, x, y, steps, lr)
        assert fresh is not c_i and fresh.names() == list(template)
        for name in template:
            want, mass = eq10_oracle(kept[name], c[name], x[name], y[name],
                                     heavy_ball_steps(tau, rho), lr)
            assert fresh[name].dtype == np.float32
            assert np.all(np.abs(fresh[name] - want) <= F32 * mass), name
            np.testing.assert_array_equal(c_i[name], kept[name])


def eq11_oracle(c, updates, prunable, lr, n_all, weights):
    """Eq. 11 over the survivors' reconstructed variate deltas."""
    out = {}
    for name, c_val in c.items():
        c64 = np.asarray(c_val, dtype=np.float64)
        total = np.zeros_like(c64)
        layer = name[:-len(".weight")] if name.endswith(".weight") else None
        for update, w in zip(updates, weights):
            before = np.asarray(update["before"][name], dtype=np.float64)
            k_lr = update["eff_steps"] * lr
            if layer in prunable:
                indices, rows = update["salient"][layer]
                for pos, f in enumerate(indices):
                    total[f] += w * (-c64[f] + (
                        before[f] - np.asarray(rows[pos], np.float64)) / k_lr)
            elif name in update["dense"]:
                total += w * (-c64 + (
                    before - np.asarray(update["dense"][name],
                                        np.float64)) / k_lr)
        out[name] = c64 + total / n_all
    return out


class TestServerStepOnSPATL:
    """Eq. 11 + Eq. 12 + the dense mean, on a real SPATL instance, with
    two survivors of four clients (so ``|S| != N`` is exercised)."""

    @pytest.fixture(scope="class")
    def trained(self, tiny_dataset, tiny_setting):
        model_fn, parts = tiny_setting

        def fresh():
            clients = make_federated_clients(tiny_dataset, parts,
                                             batch_size=32, seed=5)
            algo = SPATL(model_fn, clients, lr=0.05, local_epochs=1, seed=0,
                         selection_policy=StaticSaliencyPolicy(0.4))
            # a non-zero server variate, so the -c term of Eq. 10 matters
            rng = np.random.default_rng(3)
            for name, value in algo.c_global.values.items():
                algo.c_global.values[name] = (
                    0.01 * rng.standard_normal(value.shape)).astype(
                        value.dtype)
            return algo

        source = fresh()
        survivors = [source.clients[0], source.clients[2]]
        return fresh, [source.local_update(c, 0) for c in survivors]

    @pytest.mark.parametrize("weights", [
        None, [staleness_weight(0, 0.5), staleness_weight(3, 0.5)]],
        ids=["unit", "staleness"])
    def test_server_step_matches_the_paper(self, trained, weights):
        fresh, updates = trained
        algo = fresh()
        params = dict(algo.global_model.encoder.named_parameters())
        w_before = {k: p.data.copy() for k, p in params.items()}
        c_before = {k: v.copy() for k, v in algo.c_global.values.items()}
        if weights is None:
            algo.aggregate(updates, 0)
        else:
            algo.aggregate_weighted(updates, weights, 0)
        unit = weights or [1.0, 1.0]

        # Eq. 11: discounted survivor deltas over N = 4, not |S| = 2
        want_c = eq11_oracle(c_before, updates, set(algo.prunable), algo.lr,
                             len(algo.clients), unit)
        assert len(algo.clients) == 4
        for name, want in want_c.items():
            np.testing.assert_allclose(algo.c_global.values[name], want,
                                       rtol=1e-4, atol=1e-5, err_msg=name)

        # Eq. 12 on every prunable layer
        for layer in algo.prunable:
            key = layer + ".weight"
            want = eq12_oracle(w_before[key],
                               [u["salient"][layer] for u in updates],
                               algo.aggregation_step, weights)
            np.testing.assert_allclose(params[key].data, want,
                                       rtol=2e-6, atol=1e-7, err_msg=key)

        # dense encoder tensors: example-count (x weight) weighted mean
        shares = np.asarray([u["n"] * w for u, w in zip(updates, unit)],
                            dtype=np.float64)
        shares /= shares.sum()
        dense_keys = [k for k in updates[0]["dense"] if k in params]
        assert dense_keys
        for key in dense_keys:
            want = sum(s * np.asarray(u["dense"][key], np.float64)
                       for s, u in zip(shares, updates))
            np.testing.assert_allclose(params[key].data, want,
                                       rtol=2e-6, atol=1e-7, err_msg=key)


class TestVariateRefreshOnSPATL:
    """Eq. 10 on a real ``SPATL.local_update``, and §IV-C's claim that
    control information costs no uplink bytes: the server's Eq. 11 summand,
    rebuilt from the upload alone, is the client's own ``c_i+ - c_i`` on
    exactly the uploaded rows and nothing elsewhere.

    Stated float32 bound, per element: both sides are a handful of
    correctly rounded float32 operations on ``c_i``, ``c`` and
    ``d = (x - y_i) / (K eta)``, so they sit within
    ``8 * 2**-23 * (|c_i| + |c| + |d|)`` of the float64 value.
    """

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_refresh_and_server_delta_match_the_paper(
            self, tiny_dataset, tiny_setting, momentum):
        model_fn, parts = tiny_setting
        clients = make_federated_clients(tiny_dataset, parts, batch_size=32,
                                         seed=5)
        algo = SPATL(model_fn, clients, lr=0.05, local_epochs=1, seed=0,
                     momentum=momentum,
                     selection_policy=StaticSaliencyPolicy(0.4))
        client = clients[1]
        rng = np.random.default_rng(7)
        c_i = algo._client_variate(client)
        for variate in (algo.c_global, c_i):   # so every term of Eq. 10 counts
            for name, value in variate.values.items():
                variate.values[name] = (0.01 * rng.standard_normal(
                    value.shape)).astype(value.dtype)
        c_old = {k: v.astype(np.float64) for k, v in c_i.values.items()}
        c = {k: v.astype(np.float64) for k, v in algo.c_global.values.items()}

        update = algo.local_update(client, 0)
        k_eta = heavy_ball_steps(update["steps"], momentum) * algo.lr
        assert update["steps"] > 1
        assert (update["eff_steps"] == update["steps"]) == (momentum == 0.0)
        trained = {k: p.data.astype(np.float64) for k, p in
                   algo._work.encoder.named_parameters()}

        # Eq. 10: c_i+ = c_i - c + (x - y_i) / (K eta)
        client_delta, tol = {}, {}
        for name, got in client.local_state["c_i"].values.items():
            d = (update["before"][name].astype(np.float64)
                 - trained[name]) / k_eta
            tol[name] = 8 * 2.0 ** -23 * (np.abs(c_old[name])
                                          + np.abs(c[name]) + np.abs(d))
            assert np.all(np.abs(got - (c_old[name] - c[name] + d))
                          <= tol[name]), name
            client_delta[name] = got.astype(np.float64) - c_old[name]

        # Eq. 11 summand, as the server folds it from the upload
        fold = algo.make_fold()
        fold.add(update)
        assert set(fold._c_acc) == set(client_delta)
        for name, acc in fold._c_acc.items():
            uploaded = np.zeros(acc.shape[:1] or (1,), dtype=bool)
            if name.endswith(".weight") and name[:-7] in update["salient"]:
                idx = update["salient"][name[:-7]][0]
                assert 0 < len(idx) < len(uploaded), name
                uploaded[idx] = True
            else:
                assert name in update["dense"], name
                uploaded[:] = True
            acc = acc.reshape(len(uploaded), -1)
            want = client_delta[name].reshape(len(uploaded), -1)
            bound = tol[name].reshape(len(uploaded), -1)
            assert np.all(np.abs(acc - want)[uploaded] <= bound[uploaded]), name
            assert not acc[~uploaded].any(), name

        # ... and the uplink carries parameter rows, their indices and the
        # dense parameters only: no entry for any variate
        salient = {f"{layer}.{part}" for layer in update["salient"]
                   for part in ("idx", "val")}
        assert set(algo.upload_payload(update)) \
            == salient | set(update["dense"])


def fednova_oracle(w_global, updates, gmf, momentum_buf):
    """FedNova's server step, one element at a time in float64:
    ``p_i = n_i / sum n``, ``tau_eff = sum p_i a_i``,
    ``step = tau_eff * sum p_i d_i``, through the server momentum
    ``buf <- gmf buf + step`` when ``gmf``, then ``w <- w - step``.
    Also returns the per-element sum of |terms| the float32 bound scales
    with."""
    total = float(sum(u["n"] for u in updates))
    p = [u["n"] / total for u in updates]
    tau_eff = sum(pi * u["a_i"] for pi, u in zip(p, updates))
    out, buf_out = {}, {}
    mass = {}
    for name, w in w_global.items():
        o = np.empty(w.shape)
        b = np.empty(w.shape)
        m = np.empty(w.shape)
        for at in np.ndindex(w.shape):
            combined = sum(pi * float(u["delta"][name][at])
                           for pi, u in zip(p, updates))
            step = tau_eff * combined
            m[at] = abs(float(w[at])) + tau_eff * sum(
                pi * abs(float(u["delta"][name][at]))
                for pi, u in zip(p, updates))
            if gmf:
                prior = float(momentum_buf[name][at])
                step = gmf * prior + step
                m[at] += gmf * abs(prior)
            b[at] = step
            o[at] = float(w[at]) - step
        out[name], buf_out[name], mass[name] = o, b, m
    return out, buf_out, mass


class TestFedNova:
    """FedNova's tau-normalisation (Wang et al. 2020): the client divides
    its progress by the heavy-ball path length ``a_i`` of its local steps,
    the server rescales the weighted mean by ``tau_eff = sum p_i a_i``.

    Stated bound, per element: the code's float32 arithmetic (client side:
    one subtraction, one division; server: float64 accumulation of float32
    terms, one rounding into the float32 parameter) sits within
    ``8 * 2**-23 * (sum of the |terms|)`` of the float64 oracle."""

    RHOS = [0.0, 0.5, 0.9]

    @pytest.mark.parametrize("rho", RHOS)
    def test_effective_steps_is_the_heavy_ball_path_length(self, rho):
        from repro.fl.fednova import FedNova
        algo = types.SimpleNamespace(momentum=rho)
        assert FedNova._effective_steps(algo, 0) == 0.0
        for tau in (1, 2, 3, 7, 50, 400):
            assert FedNova._effective_steps(algo, tau) == pytest.approx(
                heavy_ball_steps(tau, rho), rel=1e-12), tau

    @pytest.mark.parametrize("rho", RHOS)
    def test_client_progress_is_normalised_by_it(self, rho, tiny_dataset,
                                                 tiny_setting):
        from repro.fl.fednova import FedNova
        model_fn, parts = tiny_setting
        clients = make_federated_clients(tiny_dataset, parts, batch_size=32,
                                         seed=5)
        algo = FedNova(model_fn, clients, lr=0.05, local_epochs=1, seed=0,
                       momentum=rho)
        before = {n: p.data.astype(np.float64)
                  for n, p in algo.global_model.named_parameters()}
        update = algo.local_update(clients[1], 0)
        assert update["steps"] > 1
        # a_i: the path length, rounded once to the float32 the uplink carries
        assert update["a_i"] == float(np.float32(update["a_i"]))
        assert update["a_i"] == pytest.approx(
            heavy_ball_steps(update["steps"], rho), rel=2.0 ** -23)
        after = dict(algo._work.named_parameters())
        for name, x in before.items():
            y = after[name].data.astype(np.float64)
            want = (x - y) / update["a_i"]
            mass = (np.abs(x) + np.abs(y)) / update["a_i"]
            assert np.all(np.abs(update["delta"][name] - want)
                          <= F32 * mass), name

    @pytest.mark.parametrize("gmf", [0.0, 0.5])
    def test_server_step_matches_the_paper(self, gmf, tiny_setting):
        from repro.fl.fednova import FedNova
        from repro.fl.stub import StubClient
        model_fn, _ = tiny_setting
        algo = FedNova(model_fn, [StubClient(i) for i in range(3)], lr=0.05,
                       seed=0, gmf=gmf)
        rng = np.random.default_rng(8)
        params = dict(algo.global_model.named_parameters())
        buffers = dict(algo.global_model.named_buffers())
        for name, buf in algo._server_momentum.items():      # a warm buffer
            buf[...] = 0.01 * rng.standard_normal(buf.shape)
        updates = [{"delta": {n: (0.01 * rng.standard_normal(p.shape)).astype(
                        np.float32) for n, p in params.items()},
                    "a_i": a_i, "n": n, "buffers": buffers,
                    "momentum_state": {f"momentum.{n}": np.zeros_like(p.data)
                                       for n, p in params.items()}}
                   for a_i, n in ((3.0, 40), (7.5, 25), (12.25, 61))]
        w_before = {n: p.data.copy() for n, p in params.items()}
        m_before = {n: b.copy() for n, b in algo._server_momentum.items()}
        algo.aggregate(updates, 0)
        want, want_buf, mass = fednova_oracle(w_before, updates, gmf,
                                              m_before)
        for name, p in params.items():
            assert np.all(np.abs(p.data - want[name])
                          <= F32 * mass[name] + 1e-30), name
            if gmf:
                assert np.all(np.abs(algo._server_momentum[name]
                                     - want_buf[name])
                              <= F32 * mass[name] + 1e-30), name


def scaffold_oracle(x, c, buffers, updates, weights, n_all, server_lr):
    """SCAFFOLD's server step in float64 over the surviving uploads ``S``
    of ``N`` clients: ``x <- x + eta_g sum w_i dy_i / sum w_i``,
    ``c <- c + sum w_i dc_i / N``; float buffers take the ``w``-weighted
    mean, integer ones the first upload's value.  Also returns the
    per-element sum of |terms| the float32 bound scales with."""
    w_sum = sum(weights)
    want, mass = {}, {}
    for name, value in x.items():
        step = np.zeros(value.shape)
        size = np.zeros(value.shape)
        for w, u in zip(weights, updates):
            step = step + w * u["delta_w"][name].astype(np.float64)
            size = size + w * np.abs(u["delta_w"][name].astype(np.float64))
        want[name] = value + server_lr * step / w_sum
        mass[name] = np.abs(value) + server_lr * size / w_sum
    for name, value in c.items():
        step = np.zeros(value.shape)
        size = np.zeros(value.shape)
        for w, u in zip(weights, updates):
            step = step + w * u["delta_c"][name].astype(np.float64)
            size = size + w * np.abs(u["delta_c"][name].astype(np.float64))
        want["c." + name] = value + step / n_all
        mass["c." + name] = np.abs(value) + size / n_all
    for name, value in buffers.items():
        first = updates[0]["buffers"][name]
        if first.dtype.kind in "iu":
            want[name], mass[name] = first, np.zeros(first.shape)
            continue
        step = np.zeros(value.shape)
        size = np.zeros(value.shape)
        for w, u in zip(weights, updates):
            step = step + w * u["buffers"][name].astype(np.float64)
            size = size + w * np.abs(u["buffers"][name].astype(np.float64))
        want[name], mass[name] = step / w_sum, size / w_sum
    return want, mass


class TestScaffold:
    """SCAFFOLD's server step (Karimireddy et al. 2020, option II) with the
    async staleness discount ``w_i``: the model moves by the weighted mean
    of the surviving deltas and the variate by their discounted sum over
    all ``N`` clients, so a dropped client contributes nothing to either.

    Stated bound, per element: the code sums float32 terms in float32, so
    it sits within ``8 * 2**-23 * (sum of the |terms|)`` of the float64
    oracle."""

    @pytest.mark.parametrize("weights", [
        None, [staleness_weight(s, 0.5) for s in (0, 3, 1)]],
        ids=["unit", "staleness"])
    def test_server_step_matches_the_paper(self, weights, tiny_setting):
        from repro.fl.scaffold import Scaffold
        from repro.fl.stub import StubClient
        model_fn, _ = tiny_setting
        algo = Scaffold(model_fn, [StubClient(i) for i in range(5)], lr=0.05,
                        seed=0, server_lr=0.5)
        rng = np.random.default_rng(9)
        params = dict(algo.global_model.named_parameters())
        buffers = {n: np.array(b)
                   for n, b in algo.global_model.named_buffers()}
        for name, value in algo.c_global.items():     # a warm variate
            value[...] = 0.01 * rng.standard_normal(value.shape)

        def noise(shape):
            return (0.01 * rng.standard_normal(shape)).astype(np.float32)

        updates = [{"delta_w": {n: noise(p.shape) for n, p in params.items()},
                    "delta_c": {n: noise(p.shape) for n, p in params.items()},
                    "buffers": {n: (b + i if b.dtype.kind in "iu"
                                    else b + noise(b.shape))
                                for n, b in buffers.items()},
                    "n": n}
                   for i, n in enumerate((40, 25, 61))]
        want, mass = scaffold_oracle(
            {n: p.data.astype(np.float64) for n, p in params.items()},
            {n: v.astype(np.float64) for n, v in algo.c_global.items()},
            buffers, updates, weights or [1.0] * 3, 5, algo.server_lr)
        if weights is None:
            algo.aggregate(updates, 0)
        else:
            algo.aggregate_weighted(updates, weights, 0)

        got = {n: p.data for n, p in params.items()}
        got.update({"c." + n: v for n, v in algo.c_global.items()})
        got.update(algo.global_model.named_buffers())
        assert set(got) == set(want)
        for name, value in got.items():
            assert value.dtype == (buffers[name].dtype if name in buffers
                                   else np.float32), name
            assert np.all(np.abs(value - want[name])
                          <= F32 * mass[name] + 1e-30), name


class TestStalenessWeight:
    """``async_runtime.staleness_weight`` is FedBuff's ``1/(1+s)^alpha``:
    within one float64 rounding (``2**-52`` relative) of ``math.pow``,
    exactly 1 at ``s = 0`` whatever ``alpha``, and exactly 1 at
    ``alpha = 0`` whatever ``s``."""

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
    def test_matches_the_formula(self, alpha):
        import math
        for s in (0, 1, 2, 3, 10, 1000):
            want = 1.0 / math.pow(1.0 + s, alpha)
            got = staleness_weight(s, alpha)
            assert abs(got - want) <= 2.0 ** -52 * want, (s, alpha)
            assert 0.0 < got <= 1.0
            if s == 0 or alpha == 0.0:
                assert got == 1.0
        assert [staleness_weight(s, alpha) for s in range(6)] == sorted(
            (staleness_weight(s, alpha) for s in range(6)), reverse=True)

    def test_negative_staleness_is_refused(self):
        with pytest.raises(ValueError):
            staleness_weight(-1, 0.5)
