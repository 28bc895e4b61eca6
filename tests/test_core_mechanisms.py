"""Unit tests: SPATL's mechanisms — control variates, Eq. 12 aggregation,
selection policies, knowledge transfer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (ControlVariate, NoSelectionPolicy,
                        RandomSelectionPolicy, RLSelectionPolicy,
                        StaticSaliencyPolicy, salient_aggregate,
                        transfer_to_client)
from repro.core.gradient_control import (make_correction_hook,
                                         refresh_client_variate,
                                         server_variate_delta)
from repro.fl import Client
from repro.models import build_model
from repro.rl import SalientParameterAgent

R = np.random.default_rng(0)


class TestControlVariate:
    def _cv(self):
        return ControlVariate({"a": np.zeros((2, 2)), "b": np.zeros(3)})

    def test_zeros_and_names(self):
        cv = self._cv()
        assert set(cv.names()) == {"a", "b"}
        assert np.all(cv["a"] == 0)

    def test_copy_independent(self):
        cv = self._cv()
        cp = cv.copy()
        cp.values["a"] += 1
        assert np.all(cv["a"] == 0)

    def test_as_state_prefixes(self):
        state = self._cv().as_state("c.")
        assert set(state) == {"c.a", "c.b"}

    def test_nbytes(self):
        assert self._cv().nbytes() == (4 + 3) * 8

    def test_zeros_like_params(self):
        model = build_model("cnn2", input_size=28, width_mult=0.25, seed=0)
        cv = ControlVariate.zeros_like_params(
            model.encoder.named_parameters())
        assert set(cv.names()) == {n for n, _ in
                                   model.encoder.named_parameters()}


class TestCorrectionHook:
    def test_eq9_applied_to_encoder_only(self):
        c = ControlVariate({"w": np.zeros(2)})
        c.values["w"] = np.asarray([1.0, 1.0])
        c_i = ControlVariate({"w": np.zeros(2)})
        c_i.values["w"] = np.asarray([0.25, 0.25])
        hook = make_correction_hook(
            c, c_i, lambda n: n[8:] if n.startswith("encoder.") else None)
        g = np.zeros(2)
        np.testing.assert_allclose(hook("encoder.w", g), [0.75, 0.75])
        np.testing.assert_allclose(hook("predictor.w", g), [0.0, 0.0])

    def test_unknown_key_passthrough(self):
        c = ControlVariate({"w": np.zeros(1)})
        hook = make_correction_hook(c, c.copy())
        g = np.asarray([5.0])
        np.testing.assert_allclose(hook("ghost", g), [5.0])


class TestVariateRefresh:
    def test_eq10_exact(self):
        c = ControlVariate({"w": np.zeros(2)})
        c.values["w"] = np.asarray([0.5, 0.5])
        c_i = ControlVariate({"w": np.zeros(2)})
        c_i.values["w"] = np.asarray([0.1, 0.1])
        before = {"w": np.asarray([1.0, 1.0])}
        after = {"w": np.asarray([0.0, 2.0])}
        fresh = refresh_client_variate(c_i, c, before, after, steps=4, lr=0.5)
        # c_i - c + (x - y)/(K*eta) = 0.1 - 0.5 + ([1,-1])/2
        np.testing.assert_allclose(fresh["w"], [0.1, -0.9])

    def test_server_reconstruction_matches_client_delta(self):
        # delta c_i = c_i+ - c_i must equal the server's reconstruction
        # from uploaded parameters alone.
        c = ControlVariate({"w": np.asarray([0.3, -0.2])})
        c_i = ControlVariate({"w": np.asarray([1.0, 2.0])})
        before = {"w": np.asarray([5.0, 5.0])}
        after = {"w": np.asarray([4.0, 7.0])}
        fresh = refresh_client_variate(c_i, c, before, after, steps=10,
                                       lr=0.1)
        client_delta = fresh["w"] - c_i["w"]
        server_delta = server_variate_delta(c["w"], before["w"], after["w"],
                                            10 * 0.1)
        np.testing.assert_allclose(server_delta, client_delta, atol=1e-12)
        # row form: only the uploaded rows, bitwise the same arithmetic
        rows = server_variate_delta(c["w"], before["w"], after["w"][[1]],
                                    10 * 0.1, idx=np.asarray([1]))
        np.testing.assert_array_equal(rows, server_delta[[1]])


class TestSalientAggregate:
    def test_full_coverage_equals_mean(self):
        g = np.zeros((4, 2), dtype=np.float32)
        idx = np.arange(4)
        u1 = (idx, np.ones((4, 2), dtype=np.float32))
        u2 = (idx, np.full((4, 2), 3.0, dtype=np.float32))
        out = salient_aggregate(g, [u1, u2])
        np.testing.assert_allclose(out, np.full((4, 2), 2.0))

    def test_uncovered_rows_untouched(self):
        g = np.full((4, 2), 7.0, dtype=np.float32)
        out = salient_aggregate(g, [(np.asarray([1]),
                                     np.zeros((1, 2), dtype=np.float32))])
        np.testing.assert_allclose(out[0], [7.0, 7.0])
        np.testing.assert_allclose(out[1], [0.0, 0.0])
        np.testing.assert_allclose(out[2:], 7.0)

    def test_partial_overlap_counts(self):
        g = np.zeros(3, dtype=np.float32).reshape(3, 1)
        u1 = (np.asarray([0, 1]), np.asarray([[2.0], [2.0]], dtype=np.float32))
        u2 = (np.asarray([1, 2]), np.asarray([[4.0], [4.0]], dtype=np.float32))
        out = salient_aggregate(g, [u1, u2])
        np.testing.assert_allclose(out.ravel(), [2.0, 3.0, 4.0])

    def test_step_size_scales_movement(self):
        g = np.zeros((2, 1), dtype=np.float32)
        u = (np.asarray([0, 1]), np.ones((2, 1), dtype=np.float32))
        out = salient_aggregate(g, [u], step_size=0.5)
        np.testing.assert_allclose(out.ravel(), [0.5, 0.5])

    def test_4d_conv_weights(self):
        g = R.normal(size=(6, 3, 3, 3)).astype(np.float32)
        idx = np.asarray([0, 4])
        rows = R.normal(size=(2, 3, 3, 3)).astype(np.float32)
        out = salient_aggregate(g, [(idx, rows)])
        np.testing.assert_allclose(out[idx], rows, rtol=1e-6)
        untouched = np.setdiff1d(np.arange(6), idx)
        np.testing.assert_array_equal(out[untouched], g[untouched])

    def test_input_not_mutated(self):
        g = np.zeros((2, 1), dtype=np.float32)
        salient_aggregate(g, [(np.asarray([0]),
                               np.ones((1, 1), dtype=np.float32))])
        np.testing.assert_array_equal(g, np.zeros((2, 1)))

    def test_shape_mismatch_rejected(self):
        g = np.zeros((4, 2), dtype=np.float32)
        with pytest.raises(ValueError):
            salient_aggregate(g, [(np.asarray([0, 1]),
                                   np.ones((3, 2), dtype=np.float32))])

    def test_out_of_range_index_rejected(self):
        g = np.zeros((2, 1), dtype=np.float32)
        with pytest.raises(IndexError):
            salient_aggregate(g, [(np.asarray([5]),
                                   np.ones((1, 1), dtype=np.float32))])

    @given(st.integers(1, 5), st.integers(2, 10))
    @settings(max_examples=20, deadline=None)
    def test_property_result_in_convex_hull(self, n_clients, n_filters):
        # With step 1.0, every covered row ends up within [min, max] of the
        # values proposed for it (convexity of the mean-based update when
        # starting from the global value).
        rng = np.random.default_rng(n_clients * 100 + n_filters)
        g = rng.normal(size=(n_filters, 2)).astype(np.float32)
        uploads = []
        for _ in range(n_clients):
            k = rng.integers(1, n_filters + 1)
            idx = np.sort(rng.choice(n_filters, size=k, replace=False))
            uploads.append((idx, rng.normal(size=(k, 2)).astype(np.float32)))
        out = salient_aggregate(g, uploads)
        for f in range(n_filters):
            vals = [g[f]] + [rows[list(idx).index(f)]
                             for idx, rows in uploads if f in idx]
            lo = np.min(vals, axis=0) - 1e-5
            hi = np.max(vals, axis=0) + 1e-5
            assert np.all(out[f] >= lo) and np.all(out[f] <= hi)

class TestAggregationOracle:
    """The vectorized Eq. 12 must match the pre-PR scatter **bitwise**
    (DESIGN.md §11.3): golden-state byte identity across the repo rests
    on aggregation producing the exact same floats, not allclose ones."""

    SHAPES = [(16, 3, 3, 3),    # conv weight: wide rows, fancy-add path
              (32, 16),         # fc weight
              (12,),            # bias: narrow rows, np.add.at path
              (7, 1)]           # single-column edge

    @staticmethod
    def _random_uploads(rng, n_filters, tail, n_clients, duplicates):
        uploads = []
        for _ in range(n_clients):
            k = int(rng.integers(0, n_filters + 1))
            if duplicates and k:
                idx = rng.integers(0, n_filters, size=k)       # may repeat
            else:
                idx = rng.choice(n_filters, size=k, replace=False)
            rows = rng.normal(size=(k,) + tail).astype(np.float32)
            uploads.append((np.sort(idx), rows))
        return uploads

    @pytest.mark.parametrize("duplicates", [False, True],
                             ids=["unique", "duplicate-indices"])
    def test_bitwise_equal_to_reference(self, duplicates):
        from tests.reference_agg import reference_salient_aggregate
        rng = np.random.default_rng(42 + duplicates)
        for shape in self.SHAPES:
            for trial in range(25):
                g = rng.normal(size=shape).astype(np.float32)
                uploads = self._random_uploads(rng, shape[0], shape[1:],
                                               int(rng.integers(1, 6)),
                                               duplicates)
                step = float(rng.choice([1.0, 0.5, 0.1]))
                fast = salient_aggregate(g, uploads, step_size=step)
                ref = reference_salient_aggregate(g, uploads, step_size=step)
                assert fast.tobytes() == ref.tobytes(), \
                    f"shape={shape} trial={trial} step={step}"
                assert fast.dtype == ref.dtype == g.dtype

    def test_bitwise_equal_in_float64(self):
        from tests.reference_agg import reference_salient_aggregate
        rng = np.random.default_rng(7)
        g = rng.normal(size=(8, 4))
        uploads = self._random_uploads(rng, 8, (4,), 3, False)
        assert salient_aggregate(g, uploads).tobytes() \
            == reference_salient_aggregate(g, uploads).tobytes()

    def test_empty_uploads_bitwise(self):
        from tests.reference_agg import reference_salient_aggregate
        g = np.random.default_rng(1).normal(size=(5, 2)).astype(np.float32)
        assert salient_aggregate(g, []).tobytes() \
            == reference_salient_aggregate(g, []).tobytes()
        assert salient_aggregate(
            g, [(np.zeros(0, dtype=np.int64),
                 np.zeros((0, 2), dtype=np.float32))]).tobytes() \
            == g.astype(np.float64).astype(np.float32).tobytes()

    def test_reference_rejects_same_errors(self):
        from tests.reference_agg import reference_salient_aggregate
        g = np.zeros((4, 2), dtype=np.float32)
        for agg in (salient_aggregate, reference_salient_aggregate):
            with pytest.raises(ValueError):
                agg(g, [(np.asarray([0, 1]),
                         np.ones((3, 2), dtype=np.float32))])
            with pytest.raises(IndexError):
                agg(g, [(np.asarray([-1]),
                         np.ones((1, 2), dtype=np.float32))])
            with pytest.raises(IndexError):
                agg(g, [(np.asarray([4]),
                         np.ones((1, 2), dtype=np.float32))])


class TestSelectionPolicies:
    def _model(self):
        return build_model("resnet20", input_size=12, width_mult=0.25, seed=0)

    def _client(self, cid, data):
        return Client(client_id=cid, train_data=data, val_data=data)

    def test_no_selection_dense(self, tiny_dataset):
        policy = NoSelectionPolicy()
        sel = policy.select(self._model(), self._client(0, tiny_dataset), 0)
        assert sel.mean_keep() == pytest.approx(1.0)
        assert not policy.communicates_sparse()

    def test_static_policy_sparsity(self, tiny_dataset):
        policy = StaticSaliencyPolicy(0.4)
        sel = policy.select(self._model(), self._client(0, tiny_dataset), 0)
        assert sel.mean_sparsity() == pytest.approx(0.4, abs=0.15)
        assert policy.communicates_sparse()

    def test_static_policy_validates(self):
        with pytest.raises(ValueError):
            StaticSaliencyPolicy(1.5)

    def test_random_policy_differs_across_clients(self, tiny_dataset):
        policy = RandomSelectionPolicy(0.5, seed=0)
        s0 = policy.select(self._model(), self._client(0, tiny_dataset), 0)
        s1 = policy.select(self._model(), self._client(1, tiny_dataset), 0)
        same = all(np.array_equal(s0.indices[k], s1.indices[k])
                   for k in s0.indices)
        assert not same

    def test_rl_policy_caches_per_client_agents(self, tiny_dataset):
        agent = SalientParameterAgent(seed=0)
        policy = RLSelectionPolicy(agent, finetune_rounds=0,
                                   flops_target=0.8)
        model = self._model()
        val = tiny_dataset.subset(np.arange(64))
        clients = [self._client(3, val), self._client(5, val)]
        pretrained = agent.state_dict()
        for client in clients:
            policy.select(model, client, 0)
        # the agent is per-client *state*: the client's own copy of the
        # arrays plus its counters, not an object cached on the policy
        states = [client.local_state["agent"] for client in clients]
        for state in states:
            assert state["participations"] == 1 and state["updates"] == 0
            for name, value in pretrained.items():
                np.testing.assert_array_equal(state["policy"][name], value)
        assert not any(np.shares_memory(states[0]["policy"][name],
                                        states[1]["policy"][name])
                       for name in pretrained)
        assert not any(isinstance(v, dict) for v in vars(policy).values())


class TestTransfer:
    def test_predictor_only_update(self, tiny_clients, tiny_model_fn):
        model = tiny_model_fn()
        enc_before = {n: p.data.copy()
                      for n, p in model.encoder.named_parameters()}
        pred_before = {n: p.data.copy()
                       for n, p in model.predictor.named_parameters()}
        transfer_to_client(model, tiny_clients[0], epochs=1, lr=0.1)
        for n, p in model.encoder.named_parameters():
            np.testing.assert_array_equal(p.data, enc_before[n], err_msg=n)
        moved = any(not np.array_equal(p.data, pred_before[n])
                    for n, p in model.predictor.named_parameters())
        assert moved

    def test_full_finetune_moves_encoder(self, tiny_clients, tiny_model_fn):
        model = tiny_model_fn()
        enc_before = {n: p.data.copy()
                      for n, p in model.encoder.named_parameters()}
        transfer_to_client(model, tiny_clients[0], epochs=1, lr=0.1,
                           freeze_encoder=False)
        moved = any(not np.array_equal(p.data, enc_before[n])
                    for n, p in model.encoder.named_parameters())
        assert moved

    def test_transfer_improves_predictor_fit(self, tiny_clients,
                                             tiny_model_fn):
        model = tiny_model_fn()
        acc_before, _ = tiny_clients[0].evaluate(model,
                                                 tiny_clients[0].train_data)
        transfer_to_client(model, tiny_clients[0], epochs=3, lr=0.1)
        acc_after, _ = tiny_clients[0].evaluate(model,
                                                tiny_clients[0].train_data)
        assert acc_after >= acc_before
