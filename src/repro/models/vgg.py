"""VGG for CIFAR-scale inputs (Simonyan & Zisserman, paper's VGG-11).

The encoder is the convolutional feature stack (with batch norm, as in the
Non-IID benchmark's VGG implementation); the predictor is the MLP
classifier head.  ``width_mult`` scales every channel count so the same
architecture shape runs on CPU-scale experiment configs.
"""

from __future__ import annotations

import numpy as np

from repro.models.split import ConvSpec, EncoderBase, SplitModel
from repro.nn import (BatchNorm2d, Conv2d, Dropout, Linear, MaxPool2d, ReLU,
                      Sequential)
from repro.tensor.tensor import Tensor

# Channel plans: integers are conv output widths, "M" is a 2x2 max-pool.
VGG_PLANS: dict[str, list] = {
    "vgg11": [64, "M", 128, "M", 256, 256, "M", 512, 512, "M", 512, 512, "M"],
    "vgg13": [64, 64, "M", 128, 128, "M", 256, 256, "M", 512, 512, "M", 512, 512, "M"],
    "vgg16": [64, 64, "M", 128, 128, "M", 256, 256, 256, "M",
              512, 512, 512, "M", 512, 512, 512, "M"],
}


class VGGEncoder(EncoderBase):
    """Conv feature extractor of a VGG network, flattening its output."""

    def __init__(self, plan: list, in_channels: int = 3, input_size: int = 32,
                 width_mult: float = 1.0, batch_norm: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.plan = list(plan)
        self.input_size = input_size
        self.in_channels = in_channels
        layers: list = []
        self._prunable: list[str] = []
        self._specs_template: list[dict] = []
        c_in = in_channels
        size = input_size
        idx = 0
        for item in plan:
            if item == "M":
                if size < 2:
                    raise ValueError(
                        f"input_size {input_size} too small for plan {plan}")
                layers.append(MaxPool2d(2))
                size //= 2
                idx += 1
                continue
            c_out = max(1, int(round(item * width_mult)))
            conv = Conv2d(c_in, c_out, 3, padding=1, bias=not batch_norm, rng=rng)
            layers.append(conv)
            conv_name = f"features.{idx}"
            self._prunable.append(conv_name)
            self._specs_template.append(dict(
                name=conv_name, in_channels=c_in, out_channels=c_out,
                kernel_size=3, stride=1, padding=1, size=size))
            idx += 1
            if batch_norm:
                layers.append(BatchNorm2d(c_out))
                idx += 1
            layers.append(ReLU())
            idx += 1
            c_in = c_out
        self.features = Sequential(*layers)
        self.final_size = size
        self.final_channels = c_in

    def forward(self, x: Tensor) -> Tensor:
        mask_for = {name.split(".", 1)[1]: name for name in self._prunable}
        pending = None
        for child_name, layer in self.features._modules.items():
            # A batch norm's input (a conv output) and a ReLU's (a
            # batch-norm or conv output) are read by nothing else, so both
            # layers may write over them (DESIGN.md §10.2).
            if isinstance(layer, (BatchNorm2d, ReLU)):
                x = layer(x, donate=True)
            else:
                x = layer(x)
            pending = mask_for.get(child_name, pending)
            if isinstance(layer, ReLU) and pending is not None:
                # A conv's channel mask applies to its block's output: a
                # masked filter leaves the block as 0, not as relu(beta).
                x = self._apply_mask(pending, x)
                pending = None
        return x.flatten_from(1)

    def prunable_layers(self) -> list[str]:
        return list(self._prunable)

    def conv_specs(self, input_hw: tuple[int, int] | None = None) -> list[ConvSpec]:
        h, w = input_hw or (self.input_size, self.input_size)
        specs = []
        scale_h = h / self.input_size
        scale_w = w / self.input_size
        for t in self._specs_template:
            sh = max(1, int(t["size"] * scale_h))
            sw = max(1, int(t["size"] * scale_w))
            specs.append(ConvSpec(
                name=t["name"], in_channels=t["in_channels"],
                out_channels=t["out_channels"], kernel_size=t["kernel_size"],
                stride=t["stride"], padding=t["padding"],
                in_hw=(sh, sw), out_hw=(sh, sw)))
        return specs

    def output_dim(self) -> int:
        return self.final_channels * self.final_size * self.final_size


def make_vgg(plan_name: str, num_classes: int = 10, in_channels: int = 3,
             input_size: int = 32, width_mult: float = 1.0,
             head_width: int = 512, dropout: float = 0.0,
             seed: int | None = None) -> SplitModel:
    """Build a split VGG; the head MLP is the private predictor."""
    rng = np.random.default_rng(seed)
    encoder = VGGEncoder(VGG_PLANS[plan_name], in_channels=in_channels,
                         input_size=input_size, width_mult=width_mult, rng=rng)
    hw = max(8, int(round(head_width * width_mult)))
    head: list = [Linear(encoder.output_dim(), hw, rng=rng), ReLU()]
    if dropout > 0:
        head.append(Dropout(dropout, seed=seed))
    head.append(Linear(hw, num_classes, rng=rng))
    predictor = Sequential(*head)
    return SplitModel(encoder, predictor, name=plan_name)


def make_vgg11(num_classes: int = 10, input_size: int = 32,
               width_mult: float = 1.0, seed: int | None = None) -> SplitModel:
    """VGG-11, the largest model in the paper's evaluation (42 MB/round)."""
    return make_vgg("vgg11", num_classes=num_classes, input_size=input_size,
                    width_mult=width_mult, seed=seed)
