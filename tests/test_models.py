"""Unit tests: model zoo, encoder/predictor split, channel masks."""

import numpy as np
import pytest

from repro.models import (build_model, make_resnet20, make_two_layer_cnn,
                          make_vgg11, paper_model_size_mb, MODEL_REGISTRY)
from repro.models.vgg import VGGEncoder
from repro.nn import BatchNorm2d, Conv2d
from repro.tensor import Tensor


def _x(model, n=2):
    enc = model.encoder
    return Tensor(np.random.default_rng(0).normal(
        size=(n, enc.in_channels, enc.input_size, enc.input_size)
    ).astype(np.float32))


class TestForwardShapes:
    @pytest.mark.parametrize("name,size,classes", [
        ("resnet20", 16, 10), ("resnet32", 16, 10), ("resnet56", 16, 10),
        ("resnet18", 16, 10), ("vgg11", 32, 10), ("cnn2", 28, 62)])
    def test_logits_shape(self, name, size, classes):
        m = build_model(name, num_classes=classes, input_size=size,
                        width_mult=0.25, seed=0)
        out = m(_x(m))
        assert out.shape == (2, classes)

    def test_embed_matches_output_dim(self):
        m = build_model("resnet20", input_size=16, width_mult=0.25, seed=0)
        z = m.embed(_x(m))
        assert z.shape == (2, m.encoder.output_dim())

    def test_vgg_too_small_input_rejected(self):
        with pytest.raises(ValueError):
            make_vgg11(input_size=16)


class TestSplit:
    def test_state_partition_disjoint_and_complete(self):
        m = build_model("resnet20", input_size=16, width_mult=0.25, seed=0)
        enc = set(m.encoder_state())
        pred = set(m.predictor_state())
        # separate namespaces; together they cover all parameters
        n_enc = sum(np.asarray(v).size for k, v in m.encoder_state().items())
        n_pred = sum(np.asarray(v).size for k, v in m.predictor_state().items())
        n_all = m.num_parameters() + sum(
            b.size for _, b in m.encoder.named_buffers())
        assert n_enc + n_pred == n_all
        assert enc and pred

    def test_load_encoder_only_leaves_predictor(self):
        m1 = build_model("resnet20", input_size=16, width_mult=0.25, seed=0)
        m2 = build_model("resnet20", input_size=16, width_mult=0.25, seed=99)
        pred_before = {k: v.copy() for k, v in m2.predictor_state().items()}
        m2.load_encoder_state(m1.encoder_state())
        for k, v in m2.predictor_state().items():
            np.testing.assert_array_equal(v, pred_before[k])
        for k, v in m2.encoder_state().items():
            np.testing.assert_array_equal(v, m1.encoder_state()[k])

    def test_param_counts(self):
        m = build_model("resnet20", input_size=16, width_mult=0.25, seed=0)
        assert m.num_encoder_parameters() > m.num_predictor_parameters()
        assert (m.num_encoder_parameters() + m.num_predictor_parameters()
                == m.num_parameters())


class TestDeterminism:
    def test_same_seed_same_weights(self):
        a = build_model("vgg11", width_mult=0.125, seed=7)
        b = build_model("vgg11", width_mult=0.125, seed=7)
        for (n1, p1), (_, p2) in zip(a.named_parameters(),
                                     b.named_parameters()):
            np.testing.assert_array_equal(p1.data, p2.data, err_msg=n1)

    def test_different_seed_differs(self):
        a = build_model("resnet20", width_mult=0.25, input_size=16, seed=1)
        b = build_model("resnet20", width_mult=0.25, input_size=16, seed=2)
        same = all(np.array_equal(p1.data, p2.data)
                   for (_, p1), (_, p2) in zip(a.named_parameters(),
                                               b.named_parameters()))
        assert not same


class TestChannelMasks:
    @pytest.mark.parametrize("name,size", [("resnet20", 16), ("vgg11", 32),
                                           ("cnn2", 28)])
    def test_zero_mask_silences_channels(self, name, size):
        m = build_model(name, input_size=size, width_mult=0.25, seed=0)
        enc = m.encoder
        layers = enc.prunable_layers()
        specs = {s.name: s for s in enc.conv_specs()}
        masks = {n: np.ones(specs[n].out_channels, dtype=np.float32)
                 for n in layers}
        out_dense = m(_x(m)).data
        m.encoder.set_channel_masks(masks)
        out_masked_same = m(_x(m)).data
        np.testing.assert_allclose(out_dense, out_masked_same, atol=1e-5)
        # now actually zero something — output must change
        masks[layers[0]][:] = 0
        enc.set_channel_masks(masks)
        out_zero = m(_x(m)).data
        assert not np.allclose(out_dense, out_zero)
        enc.clear_channel_masks()
        np.testing.assert_allclose(m(_x(m)).data, out_dense, atol=1e-5)

    def test_unknown_mask_layer_rejected(self):
        m = build_model("resnet20", input_size=16, width_mult=0.25, seed=0)
        with pytest.raises(KeyError):
            m.encoder.set_channel_masks({"ghost": np.ones(4)})

    def test_prunable_layers_exist_as_params(self):
        for name, size in [("resnet20", 16), ("vgg11", 32), ("cnn2", 28)]:
            m = build_model(name, input_size=size, width_mult=0.25, seed=0)
            params = dict(m.encoder.named_parameters())
            for layer in m.encoder.prunable_layers():
                assert layer + ".weight" in params


def _perturb_batch_norms(module, seed=1):
    """Non-zero beta, gamma != 1 and running statistics away from (0, 1):
    what a trained network's batch norms hold."""
    rng = np.random.default_rng(seed)
    for _name, mod in module.named_modules():
        if isinstance(mod, BatchNorm2d):
            n = mod.weight.data.shape[0]
            mod.weight.data[...] = rng.uniform(0.5, 1.5, n)
            mod.bias.data[...] = rng.uniform(0.2, 1.0, n)
            mod.set_buffer("running_mean",
                           rng.normal(size=n).astype(np.float32))
            mod.set_buffer("running_var",
                           rng.uniform(0.5, 2.0, n).astype(np.float32))


def _half_masks(encoder, seed=2):
    rng = np.random.default_rng(seed)
    specs = {s.name: s for s in encoder.conv_specs()}
    masks = {}
    for name in encoder.prunable_layers():
        keep = rng.permutation(specs[name].out_channels) % 2
        masks[name] = keep.astype(np.float32)
    return masks


class TestVGGMaskedBlocks:
    """A VGG channel mask silences its filter's whole block: conv, batch
    norm and ReLU.  Masking the conv output alone would let the channel
    leave the block as ``relu(beta)`` in train mode and ``relu(beta -
    gamma * mu / sigma)`` in eval mode."""

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("plan", [[8], [8, "M", 6], [8, 8, "M", 6, 6]])
    def test_masked_channels_leave_the_block_as_zero(self, plan, training):
        enc = VGGEncoder(plan, input_size=8, rng=np.random.default_rng(0))
        _perturb_batch_norms(enc)
        masks = _half_masks(enc)
        enc.set_channel_masks(masks)
        enc.train(training)
        x = Tensor(np.random.default_rng(3).normal(
            size=(4, 3, 8, 8)).astype(np.float32))
        out = enc(x).data.reshape(4, enc.final_channels, -1)
        last = masks[enc.prunable_layers()[-1]]
        assert (out[:, last == 0] == 0).all()
        assert (out[:, last == 1] != 0).any()

    @pytest.mark.parametrize("training", [True, False])
    def test_masked_logits_equal_zeroed_filters(self, training):
        masked = make_vgg11(input_size=32, width_mult=0.25, seed=0)
        _perturb_batch_norms(masked)
        zeroed = make_vgg11(input_size=32, width_mult=0.25, seed=0)
        zeroed.load_state_dict(masked.state_dict())
        masks = _half_masks(masked.encoder)
        masked.encoder.set_channel_masks(masks)
        # the masked filters' conv rows and their batch norms' gamma/beta
        layers = list(zeroed.encoder.features)
        for name, keep in masks.items():
            i = int(name.split(".")[1])
            conv, bn = layers[i], layers[i + 1]
            assert isinstance(conv, Conv2d) and isinstance(bn, BatchNorm2d)
            conv.weight.data[keep == 0] = 0
            bn.weight.data[keep == 0] = 0
            bn.bias.data[keep == 0] = 0
        masked.train(training)
        zeroed.train(training)
        x = _x(masked, n=4)
        np.testing.assert_array_equal(masked(x).data, zeroed(x).data)


class TestRegistry:
    def test_unknown_model_raises_with_known_list(self):
        with pytest.raises(KeyError, match="resnet20"):
            build_model("alexnet")

    def test_registry_complete(self):
        assert set(MODEL_REGISTRY) == {"resnet20", "resnet32", "resnet56",
                                       "resnet18", "vgg11", "cnn2"}

    def test_paper_sizes_sane(self):
        # full-size encoder payloads: ResNet-20 ~1MB, VGG-11 tens of MB
        assert 0.5 < paper_model_size_mb("resnet20") < 2.0
        assert paper_model_size_mb("resnet32") > paper_model_size_mb("resnet20")
        assert paper_model_size_mb("vgg11") > 20


class TestResNetSpecifics:
    def test_depths(self):
        # 3 stages x n blocks, one prunable conv per block
        assert len(make_resnet20(width_mult=0.25, input_size=16, seed=0)
                   .encoder.prunable_layers()) == 9
        assert len(build_model("resnet32", width_mult=0.25, input_size=16,
                               seed=0).encoder.prunable_layers()) == 15
        assert len(build_model("resnet56", width_mult=0.25, input_size=16,
                               seed=0).encoder.prunable_layers()) == 27

    def test_option_a_shortcut_shapes(self):
        m = make_resnet20(width_mult=0.25, input_size=16, seed=0)
        out = m(_x(m))  # crossing two stride-2 stage boundaries
        assert out.shape == (2, 10)

    def test_gradients_flow_to_all_params(self):
        m = make_resnet20(width_mult=0.25, input_size=16, seed=0)
        out = m(_x(m))
        out.sum().backward(None) if out.size == 1 else out.sum().backward()
        missing = [n for n, p in m.named_parameters() if p.grad is None]
        assert missing == []


def test_cnn2_femnist_shape():
    m = make_two_layer_cnn(num_classes=62, input_size=28, width_mult=0.5,
                           seed=0)
    x = Tensor(np.zeros((3, 1, 28, 28), dtype=np.float32))
    assert m(x).shape == (3, 62)
