"""Analytic FLOPs / parameter counting.

Used for the paper's inference-acceleration evaluation (§V-D): "instead of
recording the actual run time ... we calculated the FLOPs".  The counter
walks a model symbolically with a given input shape, dispatching on layer
type, and returns both a total and a per-layer breakdown so the pruning
experiments can report per-layer reductions.

Convention (matching common FLOPs counters incl. the one used by the AMC /
GNN-RL pruning line of work the paper builds on): one multiply-accumulate
counts as 2 FLOPs; batch-norm, activations and pooling count one FLOP per
output element.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.nn.conv import Conv2d
from repro.nn.dropout import Dropout
from repro.nn.linear import Linear
from repro.nn.module import Module, Sequential
from repro.nn.norm import BatchNorm1d, BatchNorm2d, LayerNorm
from repro.nn.pooling import AvgPool2d, GlobalAvgPool2d, MaxPool2d
from repro.nn.activation import LeakyReLU, ReLU, Sigmoid, Tanh


@dataclass
class FlopsReport:
    """Total FLOPs plus a per-named-layer breakdown."""

    total: int = 0
    params: int = 0
    by_layer: dict = field(default_factory=dict)

    def add(self, name: str, flops: int, params: int = 0) -> None:
        self.total += int(flops)
        self.params += int(params)
        self.by_layer[name] = self.by_layer.get(name, 0) + int(flops)


def _conv_out_hw(h: int, w: int, k: int, s: int, p: int) -> tuple[int, int]:
    return (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1


def count_params(module: Module) -> int:
    """Total trainable parameter count."""
    return module.num_parameters()


def count_flops(model: Module,
                input_shape: tuple[int, int, int]) -> FlopsReport:
    """Count forward-pass FLOPs of ``model`` for a single input.

    ``input_shape`` is ``(C, H, W)`` for conv models or ``(F,)`` for MLPs.
    The count is a module walk: the layers it knows are counted, and
    containers thread the shape through their children in order.
    """
    report = FlopsReport()
    _walk(model, "", input_shape, report)
    return report


def forward_flops(module: Module, x) -> int:
    """Analytic FLOPs of one ``module`` forward on the batch ``x``: the
    per-sample count of :func:`count_flops` times the batch size."""
    report = FlopsReport()
    _walk(module, "", tuple(x.shape[1:]), report)
    return report.total * (x.shape[0] if x.ndim > 1 else 1)


def _numel(shape) -> int:
    n = 1
    for s in shape:
        n *= s
    return n


def _walk(module: Module, prefix: str, shape, report: FlopsReport):
    """Symbolically execute ``module``, returning the output shape."""
    if isinstance(module, Conv2d):
        c, h, w = shape
        ho, wo = _conv_out_hw(h, w, module.kernel_size, module.stride, module.padding)
        macs = module.out_channels * ho * wo * module.in_channels * module.kernel_size ** 2
        flops = 2 * macs + (module.out_channels * ho * wo if module.bias is not None else 0)
        params = module.weight.size + (module.bias.size if module.bias is not None else 0)
        report.add(prefix or "conv", flops, params)
        return (module.out_channels, ho, wo)
    if isinstance(module, Linear):
        feat = shape[-1] if isinstance(shape, tuple) else shape
        macs = module.out_features * module.in_features
        flops = 2 * macs + (module.out_features if module.bias is not None else 0)
        params = module.weight.size + (module.bias.size if module.bias is not None else 0)
        report.add(prefix or "linear", flops, params)
        return (module.out_features,)
    if isinstance(module, (BatchNorm2d, BatchNorm1d, LayerNorm)):
        n = _numel(shape)
        p = sum(q.size for q in module.parameters())
        report.add(prefix or "norm", 2 * n, p)
        return shape
    if isinstance(module, (ReLU, Tanh, Sigmoid, LeakyReLU)):
        report.add(prefix or "act", _numel(shape))
        return shape
    if isinstance(module, MaxPool2d):
        c, h, w = shape
        ho = (h - module.kernel_size) // module.stride + 1
        wo = (w - module.kernel_size) // module.stride + 1
        report.add(prefix or "maxpool", c * ho * wo * module.kernel_size ** 2)
        return (c, ho, wo)
    if isinstance(module, AvgPool2d):
        c, h, w = shape
        ho = (h - module.kernel_size) // module.stride + 1
        wo = (w - module.kernel_size) // module.stride + 1
        report.add(prefix or "avgpool", c * ho * wo * module.kernel_size ** 2)
        return (c, ho, wo)
    if isinstance(module, GlobalAvgPool2d):
        c, h, w = shape
        report.add(prefix or "gap", c * h * w)
        return (c,)
    if isinstance(module, Dropout):
        return shape
    if isinstance(module, Sequential) or module._modules:
        # containers: thread the shape through children.
        # A "Flatten point" between conv stacks and classifiers is detected
        # when a Linear follows a 3-d shape.
        for name, child in module._modules.items():
            key = f"{prefix}.{name}" if prefix else name
            if isinstance(child, Linear) and isinstance(shape, tuple) and len(shape) == 3:
                shape = (_numel(shape),)
            shape = _walk(child, key, shape, report)
        return shape
    return shape
