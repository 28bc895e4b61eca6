"""Unit + property tests: saliency criteria, selection, pruning baselines."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import SyntheticCIFAR10, train_val_split
from repro.models import build_model
from repro.pruning import (dense_selection, filter_saliency,
                           geometric_median_saliency, l1_saliency,
                           l2_saliency, prune_dsa, prune_fpgm,
                           prune_magnitude, prune_random, prune_sfp,
                           select_salient, selection_from_sparsity)
from repro.pruning.baselines import evaluate, finetune

R = np.random.default_rng(0)


class TestSaliency:
    def test_l1_orders_by_magnitude(self):
        w = np.zeros((3, 2, 3, 3))
        w[0] = 5.0
        w[1] = 1.0
        w[2] = 3.0
        s = l1_saliency(w)
        assert s[0] > s[2] > s[1]

    def test_l2_scale(self):
        w = np.zeros((2, 1, 1, 1))
        w[0, 0, 0, 0] = 3.0
        w[1, 0, 0, 0] = 4.0
        np.testing.assert_allclose(l2_saliency(w), [3.0, 4.0])

    def test_geometric_median_marks_outliers_salient(self):
        # 5 nearly identical filters + 1 outlier: outlier farthest from
        # the geometric median -> most salient
        w = np.ones((6, 2, 3, 3)) + R.normal(0, 0.01, size=(6, 2, 3, 3))
        w[5] = -3.0
        s = geometric_median_saliency(w)
        assert s.argmax() == 5

    def test_dispatch(self):
        w = R.normal(size=(4, 2, 3, 3))
        np.testing.assert_allclose(filter_saliency(w, "l1"), l1_saliency(w))
        with pytest.raises(KeyError, match="l1"):
            filter_saliency(w, "nope")

    @given(st.integers(2, 16))
    @settings(max_examples=15, deadline=None)
    def test_saliency_nonnegative(self, out_c):
        w = np.random.default_rng(out_c).normal(size=(out_c, 3, 3, 3))
        for crit in ("l1", "l2", "geometric_median"):
            assert (filter_saliency(w, crit) >= 0).all()


class TestSelection:
    def _enc(self):
        return build_model("resnet20", input_size=16, width_mult=0.25,
                           seed=0).encoder

    def test_keep_fraction_matches(self):
        enc = self._enc()
        sel = selection_from_sparsity(
            enc, {n: 0.5 for n in enc.prunable_layers()})
        for name, keep in sel.keep.items():
            out_c = sel.masks[name].size
            assert abs(keep - 0.5) <= 1.0 / out_c + 1e-9

    def test_masks_and_indices_consistent(self):
        enc = self._enc()
        sel = selection_from_sparsity(
            enc, {n: 0.3 for n in enc.prunable_layers()})
        for name in sel.indices:
            np.testing.assert_array_equal(np.flatnonzero(sel.masks[name]),
                                          sel.indices[name])

    def test_selects_most_salient(self):
        enc = self._enc()
        layer = enc.prunable_layers()[0]
        w = dict(enc.named_parameters())[layer + ".weight"]
        w.data[...] = 0.01
        w.data[2] = 5.0  # one clearly salient filter
        sel = selection_from_sparsity(enc, {layer: 0.75}, min_keep=1)
        assert 2 in sel.indices[layer]

    def test_min_keep(self):
        enc = self._enc()
        sel = selection_from_sparsity(
            enc, {n: 1.0 for n in enc.prunable_layers()}, min_keep=1)
        assert all(len(idx) >= 1 for idx in sel.indices.values())

    def test_sequence_sparsity_accepted(self):
        enc = self._enc()
        n = len(enc.prunable_layers())
        sel = selection_from_sparsity(enc, np.full(n, 0.25))
        assert len(sel.keep) == n

    def test_wrong_length_rejected(self):
        enc = self._enc()
        with pytest.raises(ValueError):
            selection_from_sparsity(enc, [0.5])

    def test_dense_selection_keeps_all(self):
        sel = dense_selection(self._enc())
        assert sel.mean_keep() == pytest.approx(1.0)
        assert sel.mean_sparsity() == pytest.approx(0.0)

    def test_select_salient_extracts_rows(self):
        enc = self._enc()
        sel = selection_from_sparsity(
            enc, {n: 0.5 for n in enc.prunable_layers()})
        payload = select_salient(enc, sel)
        params = dict(enc.named_parameters())
        for name, (idx, rows) in payload.items():
            np.testing.assert_array_equal(
                rows, params[name + ".weight"].data[idx])

    def test_n_selected_counts(self):
        enc = self._enc()
        sel = dense_selection(enc)
        total_filters = sum(s.out_channels for s in enc.conv_specs())
        assert sel.n_selected() == total_filters

    @given(st.floats(0.0, 0.95))
    @settings(max_examples=15, deadline=None)
    def test_property_keep_plus_sparsity(self, s):
        enc = build_model("cnn2", input_size=28, width_mult=0.5,
                          seed=0).encoder
        sel = selection_from_sparsity(
            enc, {n: s for n in enc.prunable_layers()})
        for name, keep in sel.keep.items():
            assert 0.0 < keep <= 1.0
            assert len(sel.indices[name]) == round(keep * sel.masks[name].size)


@pytest.fixture(scope="module")
def trained_tiny_model():
    ds = SyntheticCIFAR10(n_samples=900, size=12, seed=21)
    train, val = train_val_split(ds, 0.25, seed=0)
    model = build_model("resnet20", input_size=12, width_mult=0.25, seed=3)
    finetune(model, train, epochs=3, lr=0.05, seed=0)
    return model.state_dict(), train, val


def _restore(state):
    model = build_model("resnet20", input_size=12, width_mult=0.25, seed=3)
    model.load_state_dict(state)
    return model


class TestBaselines:
    @pytest.mark.parametrize("fn", [prune_magnitude, prune_random,
                                    prune_fpgm])
    def test_runs_and_reports(self, fn, trained_tiny_model):
        state, train, val = trained_tiny_model
        res = fn(_restore(state), train, val, sparsity=0.25,
                 finetune_epochs=1, seed=0)
        assert 0.0 <= res.acc_pruned <= 1.0
        assert 0.0 < res.flops_ratio < 1.0
        assert res.mean_sparsity == pytest.approx(0.25, abs=0.1)

    def test_sfp_runs(self, trained_tiny_model):
        state, train, val = trained_tiny_model
        res = prune_sfp(_restore(state), train, val, sparsity=0.25, epochs=2,
                        finetune_epochs=1, seed=0)
        assert res.method == "sfp"
        assert res.flops_reduction > 0

    def test_dsa_hits_flops_budget(self, trained_tiny_model):
        state, train, val = trained_tiny_model
        res = prune_dsa(_restore(state), train, val, flops_target=0.7,
                        finetune_epochs=0, seed=0)
        assert res.flops_ratio == pytest.approx(0.7, abs=0.12)

    def test_saliency_beats_random_at_high_sparsity(self, trained_tiny_model):
        # aggregate over the fixed checkpoint: informed selection should
        # not be materially worse than random (usually clearly better)
        state, train, val = trained_tiny_model
        mag = prune_magnitude(_restore(state), train, val, sparsity=0.5,
                              finetune_epochs=0, seed=0)
        rnd = prune_random(_restore(state), train, val, sparsity=0.5,
                           finetune_epochs=0, seed=0)
        assert mag.acc_pruned >= rnd.acc_pruned - 0.1

    def test_masks_cleared_after_prune(self, trained_tiny_model):
        state, train, val = trained_tiny_model
        model = _restore(state)
        prune_magnitude(model, train, val, sparsity=0.3, finetune_epochs=0)
        assert not model.encoder._channel_masks

    def test_evaluate_bounds(self, trained_tiny_model):
        state, _, val = trained_tiny_model
        acc = evaluate(_restore(state), val)
        assert 0.0 <= acc <= 1.0

    def test_evaluate_builds_no_graph(self, trained_tiny_model, monkeypatch):
        """The Eq. 7 reward evaluator runs under ``no_grad``: on a masked
        model it creates no graph node, and — masks being a tensor
        multiply — returns the accuracy the graph-building forward did."""
        from repro.tensor import Tensor
        state, _, val = trained_tiny_model
        model = _restore(state)
        layers = model.encoder.prunable_layers()
        selection_from_sparsity(model.encoder,
                                [0.5] * len(layers)).apply_to(model.encoder)
        model.eval()
        logits = model(Tensor(val.x))                       # with grad on
        assert logits.requires_grad
        with_grad = int((logits.data.argmax(axis=1) == val.y).sum()) / len(val)
        made = []
        make = Tensor._make

        def spy(*args, **kwargs):
            out = make(*args, **kwargs)
            made.append(out.requires_grad)
            return out

        monkeypatch.setattr(Tensor, "_make", staticmethod(spy))
        assert evaluate(model, val) == with_grad
        assert made and not any(made)          # ops ran, none joined a graph
        assert model.training                  # evaluate() restores train mode
