"""Unit + integration tests: FedAvg, FedProx, FedNova, SCAFFOLD semantics."""

import numpy as np
import pytest

from repro.fl import FedAvg, FedProx, Scaffold

from tests import matrix


class TestFedAvg:
    def test_aggregate_is_weighted_mean(self):
        model_fn, clients = matrix.model_fn(), matrix.clients()
        algo = FedAvg(model_fn, clients, lr=0.05, local_epochs=1, seed=0)
        u1 = {"state": {"w": np.asarray([1.0], dtype=np.float32)}, "n": 1}
        u2 = {"state": {"w": np.asarray([4.0], dtype=np.float32)}, "n": 3}
        from repro.fl.local import weighted_average_states
        avg = weighted_average_states([u1["state"], u2["state"]],
                                      [u1["n"], u2["n"]])
        np.testing.assert_allclose(avg["w"], [3.25])

    def test_single_client_roundtrip_equals_local(self):
        # With one client at full participation, one FedAvg round must equal
        # plain local training of the global model.
        model_fn, clients = matrix.model_fn(), matrix.clients()
        algo = FedAvg(model_fn, clients[:1], lr=0.05, local_epochs=1, seed=0)
        reference = model_fn()
        from repro.fl.local import train_local
        train_local(reference, clients[0], 0, epochs=1, lr=0.05,
                    momentum=algo.momentum)
        algo.run_round(0)
        for (n, p_ref), (_, p_glob) in zip(
                reference.named_parameters(),
                algo.global_model.named_parameters()):
            np.testing.assert_allclose(p_ref.data, p_glob.data, atol=1e-6,
                                       err_msg=n)

    def test_symmetric_cost(self):
        uplink, downlink = matrix.reference("resume/fedavg-sync").ledger
        up = sum(uplink[0].values())
        down = sum(downlink[0].values())
        assert up == down  # full model both ways


class TestFedProx:
    def test_mu_zero_matches_fedavg(self):
        model_fn, clients_a = matrix.model_fn(), matrix.clients()
        clients_b = matrix.clients()
        fa = FedAvg(model_fn, clients_a, lr=0.05, local_epochs=1, seed=0)
        fp = FedProx(model_fn, clients_b, lr=0.05, local_epochs=1, seed=0,
                     mu=0.0)
        fa.run_round(0)
        fp.run_round(0)
        for (n, p1), (_, p2) in zip(fa.global_model.named_parameters(),
                                    fp.global_model.named_parameters()):
            np.testing.assert_allclose(p1.data, p2.data, atol=1e-6,
                                       err_msg=n)

    def test_prox_term_restricts_drift(self):
        model_fn, clients_a = matrix.model_fn(), matrix.clients()
        clients_b = matrix.clients()
        small = FedProx(model_fn, clients_a, lr=0.05, local_epochs=2, seed=0,
                        mu=0.0)
        large = FedProx(model_fn, clients_b, lr=0.05, local_epochs=2, seed=0,
                        mu=10.0)
        init = {n: p.data.copy()
                for n, p in small.global_model.named_parameters()}

        def drift(algo):
            return sum(float(np.abs(p.data - init[n]).sum())
                       for n, p in algo.global_model.named_parameters())

        small.run_round(0)
        large.run_round(0)
        assert drift(large) < drift(small)

    def test_negative_mu_rejected(self):
        with pytest.raises(ValueError):
            matrix.algorithm("fedprox", mu=-1.0)


class TestFedNova:
    def test_effective_steps_momentum_formula(self):
        algo = matrix.algorithm("fednova", momentum=0.9)
        # closed form: a = (tau - rho(1-rho^tau)/(1-rho)) / (1-rho)
        tau, rho = 5, 0.9
        expected = (tau - rho * (1 - rho ** tau) / (1 - rho)) / (1 - rho)
        assert algo._effective_steps(tau) == pytest.approx(expected)

    def test_effective_steps_no_momentum(self):
        algo = matrix.algorithm("fednova", momentum=0.0)
        assert algo._effective_steps(7) == 7.0

    def test_uplink_carries_momentum_2x(self):
        nova = matrix.algorithm("fednova")
        nova.run_round(0)
        avg = matrix.algorithm("fedavg")
        avg.run_round(0)
        ratio = (nova.ledger.round_bytes(0) / avg.ledger.round_bytes(0))
        assert 1.7 < ratio < 2.3  # ~2x FedAvg per round, as in Table I

    def test_improves_over_rounds(self):
        algo = matrix.algorithm("fednova", local_epochs=2)
        log = algo.run(rounds=4)
        assert log["val_acc"][-1] > log["val_acc"][0] - 0.05


class TestScaffold:
    def test_defaults_to_vanilla_sgd(self):
        assert matrix.algorithm("scaffold").momentum == 0.0

    def test_first_round_matches_fedavg_sgd(self, tiny_dataset, tiny_setting):
        # c = c_i = 0 initially, so round 0 must equal FedAvg with plain SGD.
        # SCAFFOLD averages clients *unweighted*, so use equal-size shards.
        from repro.data import iid_partition
        from repro.fl import make_federated_clients
        model_fn, _ = tiny_setting
        parts = iid_partition(tiny_dataset.y, 4, seed=0)
        clients_a = make_federated_clients(tiny_dataset, parts, seed=5)
        clients_b = make_federated_clients(tiny_dataset, parts, seed=5)
        sc = Scaffold(model_fn, clients_a, lr=0.05, local_epochs=1, seed=0)
        fa = FedAvg(model_fn, clients_b, lr=0.05, local_epochs=1, seed=0,
                    momentum=0.0)
        sc.run_round(0)
        fa.run_round(0)
        for (n, p1), (_, p2) in zip(sc.global_model.named_parameters(),
                                    fa.global_model.named_parameters()):
            np.testing.assert_allclose(p1.data, p2.data, atol=1e-5,
                                       err_msg=n)

    def test_variate_refresh_equation(self):
        # After one local update: c_i+ = c_i - c + (x - y)/(K*eta)
        model_fn, clients = matrix.model_fn(), matrix.clients()
        algo = Scaffold(model_fn, clients, lr=0.05, local_epochs=1, seed=0)
        client = clients[0]
        x = {n: p.data.copy()
             for n, p in algo.global_model.named_parameters()}
        update = algo.local_update(client, 0)
        steps = update["steps"]
        name = next(iter(update["delta_w"]))
        expected = -(update["delta_w"][name]) / (steps * algo.lr)
        np.testing.assert_allclose(client.local_state["c_i"][name], expected,
                                   atol=1e-6)

    def test_cost_is_2x_fedavg(self):
        """Read off the resume matrix's two-round sync references."""
        def round_bytes(name, r):
            return sum(sum(direction[r].values()) for direction in
                       matrix.reference(f"resume/{name}-sync").ledger)

        first = round_bytes("scaffold", 0) / round_bytes("fedavg", 0)
        assert 1.3 < first < 1.7, (
            "round 0, model M: c⁰ = 0 on both sides is not sent (DESIGN.md "
            "§5.1), so SCAFFOLD moves M down + (dw + dc = 2M) up against "
            f"FedAvg's M + M: 3M / 2M = 1.5x, got {first:.3f}")
        steady = round_bytes("scaffold", 1) / round_bytes("fedavg", 1)
        assert 1.7 < steady < 2.3, (
            "from round 1 on every row of c has moved: (M + c) down + 2M up "
            f"against M + M = 2x (Table I), got {steady:.3f}")

    def test_server_variate_moves(self):
        model_fn, clients = matrix.model_fn(), matrix.clients()
        algo = Scaffold(model_fn, clients, lr=0.05, local_epochs=1, seed=0)
        algo.run_round(0)
        total = sum(float(np.abs(v).sum()) for v in algo.c_global.values())
        assert total > 0.0


_UPLINK_NAMES = ["fedavg", "fedprox", "fednova", "scaffold", "fedtopk",
                 "salientgrads", "ssfl", "spatl"]


@pytest.mark.parametrize("name,bits", [
    *(pytest.param(n, None, id=n) for n in _UPLINK_NAMES),
    *(pytest.param(n, b, id=f"{n}-int{b}")
      for b in (8, 4) for n in _UPLINK_NAMES)])
def test_fold_reads_only_what_the_uplink_carries(name, bits):
    """The server folds the update; the wire carries ``upload_payload``.

    They agree because every tensor of the payload is the update's own
    array: the receiver's decode, written back through the payload the
    way ``quantize_update`` writes it, is what the fold then reads.  Over
    the lossless wire (``bits=None``) folding the written-back updates
    equals folding the originals.  Quantized, after ``_train`` the
    payload is bitwise the dequantized wire dict — an uplink that
    gathers a copy (SSFL's and SalientGrads' masked values) would leave
    the update holding the values before quantization.
    """
    from repro.experiments.configs import (config_for, make_algorithm,
                                           make_setting)
    from repro.fl import state_fingerprint, wire
    from repro.fl.quant import (QUANT_SUFFIX, QUANT_WIRE_KEY,
                                dequantize_payload)

    cfg = config_for("tiny", n_clients=2, n_samples=96, sample_ratio=1.0,
                     local_epochs=1, seed=0, quant_bits=bits or 32)

    if bits is not None:
        model_fn, clients = make_setting(cfg)
        algo = make_algorithm(name, cfg, model_fn, clients)
        for client in clients:
            algo._download(client, 0)
            update = algo._train(client, 0)
            decoded = dequantize_payload(update[QUANT_WIRE_KEY])
            payload = algo.upload_payload(update)
            assert list(payload) == list(decoded)
            assert any(k.endswith(QUANT_SUFFIX)
                       for k in update[QUANT_WIRE_KEY])   # not vacuous
            for key, value in decoded.items():
                got = np.asarray(payload[key])
                assert (got.dtype, got.shape) == (value.dtype, value.shape)
                assert got.tobytes() == value.tobytes(), key
        algo.close()
        return

    def fold(through_the_wire: bool) -> int:
        model_fn, clients = make_setting(cfg)
        algo = make_algorithm(name, cfg, model_fn, clients)
        updates = []
        for client in clients:
            algo._download(client, 0)
            update = algo.local_update(client, 0)
            if through_the_wire:
                payload = algo.upload_payload(update)
                blob = wire.serialize(payload)
                for key, value in wire.deserialize(blob).items():
                    np.copyto(payload[key], value)
            updates.append(update)
        algo.aggregate(updates, 0)
        algo.close()
        return state_fingerprint(algo.global_model.state_dict())

    assert fold(True) == fold(False)
