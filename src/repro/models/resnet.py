"""CIFAR-style ResNets (He et al.): ResNet-20/32/56 and a ResNet-18 variant.

Architecture follows the original CIFAR formulation: a 3x3 stem conv, three
stages of ``n`` basic blocks with widths (16, 32, 64) and stride-2
transitions, global average pooling, then the classifier.  ResNet-20/32/56
use ``n`` = 3/5/9.  Shortcuts use the parameter-free "option A" (stride-2
subsample + zero channel padding), as in the reference implementations the
Non-IID benchmark builds on.

The *first* conv of each basic block is prunable (its width is internal to
the block), which is the standard channel-pruning granularity for residual
networks and what the GNN-RL pruning line of work the paper's agent builds
on uses.  The stem and second convs keep full width so residual adds stay
shape-consistent.
"""

from __future__ import annotations

import numpy as np

from repro.models.split import ConvSpec, EncoderBase, SplitModel
from repro.nn import BatchNorm2d, Conv2d, Linear, Sequential
from repro.nn.module import Module, ModuleList
from repro.tensor.tensor import Tensor
from repro.tensor.tensor import concatenate


class BasicBlock(Module):
    """Two 3x3 convs with an identity (option-A) shortcut."""

    def __init__(self, in_planes: int, planes: int, stride: int,
                 rng: np.random.Generator):
        super().__init__()
        self.in_planes = in_planes
        self.planes = planes
        self.stride = stride
        self.conv1 = Conv2d(in_planes, planes, 3, stride=stride, padding=1,
                            bias=False, rng=rng)
        self.bn1 = BatchNorm2d(planes)
        self.conv2 = Conv2d(planes, planes, 3, stride=1, padding=1,
                            bias=False, rng=rng)
        self.bn2 = BatchNorm2d(planes)
        self.needs_projection = stride != 1 or in_planes != planes

    def _shortcut(self, x: Tensor) -> Tensor:
        if not self.needs_projection:
            return x
        # Option A: spatial subsample + zero-pad the new channels.
        out = x[:, :, ::self.stride, ::self.stride] if self.stride != 1 else x
        pad_c = self.planes - self.in_planes
        if pad_c > 0:
            n, _, h, w = out.shape
            zeros = Tensor(np.zeros((n, pad_c, h, w), dtype=out.dtype))
            out = concatenate([out, zeros], axis=1)
        return out

    def forward(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        # Conv outputs, batch-norm outputs and the residual sum are read by
        # nothing but the next op, which may write over them (DESIGN.md
        # §10.2); ``x`` is read again by the shortcut and conv1's backward.
        h = self.bn1(self.conv1(x), donate=True).relu(donate=True)
        if mask is not None:
            h = h * Tensor(mask.reshape(1, -1, 1, 1))
        h = self.bn2(self.conv2(h), donate=True)
        return (h + self._shortcut(x)).relu(donate=True)


class ResNetEncoder(EncoderBase):
    """Stem + three residual stages + global average pooling."""

    def __init__(self, num_blocks: tuple[int, int, int],
                 widths: tuple[int, int, int] = (16, 32, 64),
                 in_channels: int = 3, input_size: int = 32,
                 width_mult: float = 1.0,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.input_size = input_size
        self.in_channels = in_channels
        w = [max(1, int(round(x * width_mult))) for x in widths]
        self.widths = tuple(w)
        self.conv1 = Conv2d(in_channels, w[0], 3, padding=1, bias=False, rng=rng)
        self.bn1 = BatchNorm2d(w[0])
        blocks: list[BasicBlock] = []
        self._prunable: list[str] = []
        self._specs_template: list[dict] = []
        in_planes = w[0]
        size = input_size
        i = 0
        for stage, (n_blocks, planes) in enumerate(zip(num_blocks, w)):
            for b in range(n_blocks):
                stride = 2 if (stage > 0 and b == 0) else 1
                block = BasicBlock(in_planes, planes, stride, rng)
                blocks.append(block)
                out_size = size // stride
                self._prunable.append(f"blocks.{i}.conv1")
                self._specs_template.append(dict(
                    name=f"blocks.{i}.conv1", in_channels=in_planes,
                    out_channels=planes, kernel_size=3, stride=stride,
                    padding=1, in_size=size, out_size=out_size))
                in_planes = planes
                size = out_size
                i += 1
        self.blocks = ModuleList(blocks)
        self.final_channels = in_planes
        self.final_size = size

    def forward(self, x: Tensor) -> Tensor:
        h = self.bn1(self.conv1(x), donate=True).relu(donate=True)
        for i, block in enumerate(self.blocks):
            mask = self._channel_masks.get(f"blocks.{i}.conv1")
            h = block(h, mask=mask)
        return h.mean(axis=(2, 3))

    def prunable_layers(self) -> list[str]:
        return list(self._prunable)

    def conv_specs(self, input_hw: tuple[int, int] | None = None) -> list[ConvSpec]:
        h, _ = input_hw or (self.input_size, self.input_size)
        scale = h / self.input_size
        specs = []
        for t in self._specs_template:
            si = max(1, int(t["in_size"] * scale))
            so = max(1, int(t["out_size"] * scale))
            specs.append(ConvSpec(
                name=t["name"], in_channels=t["in_channels"],
                out_channels=t["out_channels"], kernel_size=t["kernel_size"],
                stride=t["stride"], padding=t["padding"],
                in_hw=(si, si), out_hw=(so, so)))
        return specs

    def output_dim(self) -> int:
        return self.final_channels


def _make_resnet(num_blocks: tuple[int, int, int], name: str, num_classes: int,
                 widths: tuple[int, int, int], input_size: int,
                 width_mult: float, seed: int | None) -> SplitModel:
    rng = np.random.default_rng(seed)
    encoder = ResNetEncoder(num_blocks, widths=widths, input_size=input_size,
                            width_mult=width_mult, rng=rng)
    predictor = Sequential(Linear(encoder.output_dim(), num_classes, rng=rng))
    return SplitModel(encoder, predictor, name=name)


def make_resnet20(num_classes: int = 10, input_size: int = 32,
                  width_mult: float = 1.0, seed: int | None = None) -> SplitModel:
    """ResNet-20 (0.27M params full-size; 2.1 MB/round in the paper)."""
    return _make_resnet((3, 3, 3), "resnet20", num_classes, (16, 32, 64),
                        input_size, width_mult, seed)


def make_resnet32(num_classes: int = 10, input_size: int = 32,
                  width_mult: float = 1.0, seed: int | None = None) -> SplitModel:
    """ResNet-32 (0.46M params full-size)."""
    return _make_resnet((5, 5, 5), "resnet32", num_classes, (16, 32, 64),
                        input_size, width_mult, seed)


def make_resnet56(num_classes: int = 10, input_size: int = 32,
                  width_mult: float = 1.0, seed: int | None = None) -> SplitModel:
    """ResNet-56 — the network the RL agent is pre-trained on (§V-A)."""
    return _make_resnet((9, 9, 9), "resnet56", num_classes, (16, 32, 64),
                        input_size, width_mult, seed)


def make_resnet18(num_classes: int = 10, input_size: int = 32,
                  width_mult: float = 1.0, seed: int | None = None) -> SplitModel:
    """CIFAR-adapted ResNet-18: three stages of 3 wide blocks.

    Used by the agent-transfer ablation (Fig. 6): pre-train on ResNet-56,
    fine-tune on ResNet-18.  We keep the 3-stage CIFAR topology (the paper's
    agent consumes the computational-graph topology, which is what changes
    between the two networks).
    """
    return _make_resnet((3, 3, 3), "resnet18", num_classes, (64, 128, 256),
                        input_size, width_mult, seed)
