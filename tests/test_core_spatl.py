"""Integration tests: the SPATL trainer end to end."""

import numpy as np
import pytest

from repro.core import SPATL

from tests import matrix


def _fresh(n_policy=0.3):
    algo = matrix.algorithm("spatl", sparsity=n_policy)
    return algo, algo.clients


class TestProtocol:
    def test_predictor_never_leaves_client(self):
        algo, clients = _fresh()
        down = algo.download_payload(clients[0])
        update = algo.local_update(clients[0], 0)
        up = algo.upload_payload(update)
        pred_keys = set(algo.global_model.predictor_state())
        for payload in (down, up):
            for key in payload:
                for pk in pred_keys:
                    assert not key.endswith("pred." + pk), key
            assert not any(k.startswith("pred.") for k in payload)

    def test_download_contains_encoder_and_variate(self):
        algo, clients = _fresh()
        state = algo.downlink_state()
        assert any(k.startswith("enc.") for k in state)
        assert any(k.startswith("c.") for k in state)
        down = algo.download_payload(clients[0])
        assert [k for k in down if k.startswith("enc.")] \
            == [k for k in state if k.startswith("enc.")]
        assert not any(k.startswith("c.") for k in down), (
            "c⁰ = 0 on the server and on a joining client alike: before "
            "Eq. 11 has moved it, no row of c travels (DESIGN.md §5.1)")
        algo.run_round(0)
        down = algo.download_payload(clients[0])
        assert any(k.startswith("c.") for k in down)   # the rows it moved

    def test_no_gradient_control_skips_variate_download(self):
        model_fn, clients = matrix.model_fn(), matrix.clients()
        algo = SPATL(model_fn, clients, use_gradient_control=False,
                     lr=0.05, local_epochs=1, seed=0)
        down = algo.download_payload(clients[0])
        assert not any(k.startswith("c.") for k in down)

    def test_upload_contains_indices_and_salient_rows(self):
        algo, clients = _fresh()
        update = algo.local_update(clients[0], 0)
        up = algo.upload_payload(update)
        idx_keys = [k for k in up if k.endswith(".idx")]
        val_keys = [k for k in up if k.endswith(".val")]
        assert len(idx_keys) == len(val_keys) == len(algo.prunable)
        for k in idx_keys:
            assert up[k].dtype == np.int32

    def test_upload_smaller_than_dense(self):
        from repro.fl.comm import payload_nbytes
        algo, clients = _fresh(n_policy=0.5)
        update = algo.local_update(clients[0], 0)
        up_bytes = payload_nbytes(algo.upload_payload(update))
        dense_bytes = payload_nbytes(
            {f"enc.{k}": v for k, v in
             algo.global_model.encoder_state().items()})
        assert up_bytes < dense_bytes

    def test_client_keeps_private_predictor(self):
        algo, clients = _fresh()
        algo.run_round(0)
        states = [c.local_state.get("predictor") for c in clients]
        participating = [s for s in states if s is not None]
        assert participating
        # different clients hold different predictor weights after training
        if len(participating) >= 2:
            k = next(iter(participating[0]))
            assert not np.array_equal(participating[0][k],
                                      participating[1][k])

    def test_client_variates_refresh(self):
        algo, clients = _fresh()
        algo.run_round(0)
        c_i = clients[0].local_state["c_i"]
        assert sum(float(np.abs(v).sum()) for v in c_i.values.values()) > 0

    def test_server_variate_updates(self):
        algo, clients = _fresh()
        algo.run_round(0)
        assert sum(float(np.abs(v).sum())
                   for v in algo.c_global.values.values()) > 0

    def test_aggregation_covers_all_when_dense(self):
        model_fn, clients = matrix.model_fn(), matrix.clients()
        algo = SPATL(model_fn, clients, use_selection=False, lr=0.05,
                     local_epochs=1, seed=0)
        before = {n: p.data.copy()
                  for n, p in algo.global_model.encoder.named_parameters()}
        algo.run_round(0)
        moved = [n for n, p in algo.global_model.encoder.named_parameters()
                 if not np.array_equal(p.data, before[n])]
        # dense selection: every encoder parameter must move
        assert len(moved) == len(before)

    def test_eval_model_composes_encoder_and_private_head(self):
        algo, clients = _fresh()
        algo.run_round(0)
        m = algo.client_eval_model(clients[0])
        pred_state = clients[0].local_state["predictor"]
        for k, v in m.predictor_state().items():
            np.testing.assert_array_equal(v, pred_state[k], err_msg=k)
        for k, v in m.encoder_state().items():
            np.testing.assert_array_equal(
                v, algo.global_model.encoder_state()[k], err_msg=k)


class TestBehaviour:
    def test_learns(self):
        algo, _ = _fresh()
        log = algo.run(rounds=6)
        assert log["val_acc"][-1] > log["val_acc"][0]
        assert log["val_acc"][-1] > 0.3

    def test_momentum_corrected_effective_steps(self):
        # SPATL keeps momentum by using FedNova-style effective steps in
        # the Eq. 10 denominator (unlike SCAFFOLD, which must drop it).
        algo, _ = _fresh()
        assert algo.momentum == 0.9
        tau, rho = 8, 0.9
        expected = (tau - rho * (1 - rho ** tau) / (1 - rho)) / (1 - rho)
        assert algo._effective_steps(tau) == pytest.approx(expected)
        assert algo._effective_steps(tau) > tau  # momentum amplifies
        model_fn, clients = matrix.model_fn(), matrix.clients()
        algo2 = SPATL(model_fn, clients, seed=0, lr=0.05, momentum=0.0)
        assert algo2._effective_steps(7) == 7.0

    def test_cheaper_than_scaffold_per_round(self):
        from repro.fl import Scaffold
        algo, _ = _fresh(n_policy=0.5)
        algo.run_round(0)
        model_fn, clients = matrix.model_fn(), matrix.clients()
        sc = Scaffold(model_fn, clients, lr=0.05, local_epochs=1, seed=0)
        sc.run_round(0)
        assert algo.ledger.round_bytes(0) < sc.ledger.round_bytes(0)

    def test_inference_report(self):
        algo, _ = _fresh()
        algo.run_round(0)
        rep = algo.inference_report()
        assert rep
        for stats in rep.values():
            assert 0.0 < stats["flops_ratio"] <= 1.0
            assert 0.0 < stats["params_ratio"] <= 1.0

    def test_ablation_no_transfer_shares_predictor(self):
        model_fn, clients = matrix.model_fn(), matrix.clients()
        algo = SPATL(model_fn, clients, use_transfer=False, lr=0.05,
                     local_epochs=1, seed=0)
        down = algo.download_payload(clients[0])
        assert any(k.startswith("pred.") for k in down)
        update = algo.local_update(clients[0], 0)
        assert update["predictor_state"] is not None
        algo.run_round(1)
        # predictor head aggregated globally, no private copies needed
        m = algo.client_eval_model(clients[0])
        for k, v in m.predictor_state().items():
            np.testing.assert_array_equal(
                v, algo.global_model.predictor_state()[k])
