"""Encoder → simplified computational graph.

One :class:`GraphNode` per feature map; directed edges carry the ML-level
operation that produced the target map.  Prunable nodes correspond to the
conv layers whose output filters the RL agent may sparsify; every node
records which prunable layer (if any) scales its output and input channel
counts (``out_ctrl`` / ``in_ctrl``), which makes pruned-FLOPs computation a
pure function of the graph (``CompGraph.flops_ratio``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.models.cnn import TwoLayerCNNEncoder
from repro.models.resnet import ResNetEncoder
from repro.models.split import EncoderBase
from repro.models.vgg import VGGEncoder

if TYPE_CHECKING:   # imported for real in to_networkx, its only user
    import networkx as nx

NODE_KINDS = ("input", "conv", "pool", "gap")
EDGE_OPS = ("conv3x3", "conv5x5", "convkxk", "pool", "skip", "gap")


@dataclass
class GraphNode:
    """One feature map in the simplified computational graph."""

    name: str
    kind: str
    out_channels: int
    kernel_size: int = 0
    stride: int = 1
    flops: int = 0
    params: int = 0
    prunable: bool = False
    out_ctrl: str | None = None  # prunable layer scaling this node's outputs
    in_ctrl: str | None = None   # prunable layer scaling this node's inputs


@dataclass
class CompGraph:
    """Node list + (src, dst, op) edges, with FLOPs algebra."""

    nodes: list[GraphNode]
    edges: list[tuple[int, int, str]]
    prunable_names: list[str] = field(default_factory=list)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def prunable_indices(self) -> list[int]:
        index = {node.name: i for i, node in enumerate(self.nodes)}
        return [index[name] for name in self.prunable_names]

    def total_flops(self) -> int:
        return sum(node.flops for node in self.nodes)

    def flops_ratio(self, keep: dict[str, float]) -> float:
        """FLOPs of the sub-network keeping fraction ``keep[l]`` of each
        prunable layer's filters, relative to the dense network."""
        total = 0
        kept = 0.0
        for node in self.nodes:
            total += node.flops
            factor = 1.0
            if node.out_ctrl is not None:
                factor *= float(keep.get(node.out_ctrl, 1.0))
            if node.in_ctrl is not None:
                factor *= float(keep.get(node.in_ctrl, 1.0))
            kept += node.flops * factor
        return kept / total if total else 1.0

    def params_ratio(self, keep: dict[str, float]) -> float:
        """Same as :meth:`flops_ratio` but over parameter counts."""
        total = 0
        kept = 0.0
        for node in self.nodes:
            total += node.params
            factor = 1.0
            if node.out_ctrl is not None:
                factor *= float(keep.get(node.out_ctrl, 1.0))
            if node.in_ctrl is not None:
                factor *= float(keep.get(node.in_ctrl, 1.0))
            kept += node.params * factor
        return kept / total if total else 1.0


def _conv_node(name: str, spec, prunable: bool, in_ctrl: str | None) -> GraphNode:
    return GraphNode(
        name=name, kind="conv", out_channels=spec.out_channels,
        kernel_size=spec.kernel_size, stride=spec.stride, flops=spec.flops,
        params=spec.weight_numel, prunable=prunable,
        out_ctrl=spec.name if prunable else None, in_ctrl=in_ctrl)


def build_graph(encoder: EncoderBase,
                input_hw: tuple[int, int] | None = None) -> CompGraph:
    """Build the simplified computational graph of a registered encoder."""
    if isinstance(encoder, ResNetEncoder):
        return _build_resnet_graph(encoder, input_hw)
    if isinstance(encoder, (VGGEncoder, TwoLayerCNNEncoder)):
        return _build_chain_graph(encoder, input_hw)
    return _build_chain_graph(encoder, input_hw)  # generic fallback


def _build_chain_graph(encoder: EncoderBase,
                       input_hw: tuple[int, int] | None) -> CompGraph:
    """Sequential encoders (VGG, 2-layer CNN): a path graph of conv nodes.

    Every prunable conv's output feeds the next conv's input, so node ``i``
    has ``out_ctrl = layer_i`` and ``in_ctrl = layer_{i-1}``.
    """
    specs = encoder.conv_specs(input_hw)
    nodes = [GraphNode(name="input", kind="input",
                       out_channels=getattr(encoder, "in_channels", 3))]
    edges: list[tuple[int, int, str]] = []
    prev_ctrl: str | None = None
    for i, spec in enumerate(specs):
        nodes.append(_conv_node(spec.name, spec, prunable=True,
                                in_ctrl=prev_ctrl))
        op = f"conv{spec.kernel_size}x{spec.kernel_size}"
        edges.append((len(nodes) - 2, len(nodes) - 1, op))
        prev_ctrl = spec.name
    nodes.append(GraphNode(name="head", kind="gap",
                           out_channels=nodes[-1].out_channels,
                           in_ctrl=prev_ctrl))
    edges.append((len(nodes) - 2, len(nodes) - 1, "gap"))
    return CompGraph(nodes, edges, prunable_names=[s.name for s in specs])


def _build_resnet_graph(encoder: ResNetEncoder,
                        input_hw: tuple[int, int] | None) -> CompGraph:
    """ResNet: stem, then per block (conv1 -> conv2+add) with a skip edge.

    Only each block's first conv is prunable; its keep fraction scales both
    conv1's outputs and conv2's inputs, leaving the residual-add width
    intact (option-A shortcuts force equal widths on the add).
    """
    specs = encoder.conv_specs(input_hw)
    hw = input_hw or (encoder.input_size, encoder.input_size)
    stem_flops = 2 * encoder.widths[0] * hw[0] * hw[1] * encoder.in_channels * 9
    nodes = [
        GraphNode(name="input", kind="input", out_channels=encoder.in_channels),
        GraphNode(name="conv1", kind="conv", out_channels=encoder.widths[0],
                  kernel_size=3, stride=1, flops=stem_flops,
                  params=encoder.conv1.weight.size),
    ]
    edges: list[tuple[int, int, str]] = [(0, 1, "conv3x3")]
    block_in = 1  # node index of the block's input feature map
    for spec in specs:
        # conv1 of the block — prunable
        nodes.append(_conv_node(spec.name, spec, prunable=True, in_ctrl=None))
        conv1_idx = len(nodes) - 1
        edges.append((block_in, conv1_idx, "conv3x3"))
        # conv2 + residual add — same spatial size as conv1's output,
        # full width out, pruned width in
        ho, wo = spec.out_hw
        conv2_flops = 2 * spec.out_channels * ho * wo * spec.out_channels * 9
        conv2_params = spec.out_channels * spec.out_channels * 9
        nodes.append(GraphNode(
            name=spec.name.replace("conv1", "conv2"), kind="conv",
            out_channels=spec.out_channels, kernel_size=3, stride=1,
            flops=conv2_flops, params=conv2_params, in_ctrl=spec.name))
        conv2_idx = len(nodes) - 1
        edges.append((conv1_idx, conv2_idx, "conv3x3"))
        edges.append((block_in, conv2_idx, "skip"))
        block_in = conv2_idx
    nodes.append(GraphNode(name="gap", kind="gap",
                           out_channels=encoder.final_channels))
    edges.append((block_in, len(nodes) - 1, "gap"))
    return CompGraph(nodes, edges, prunable_names=[s.name for s in specs])


def to_networkx(graph: CompGraph) -> nx.DiGraph:
    """Export to a networkx DiGraph (analysis, tests, visualisation).

    The only user of ``networkx``, imported here so that no training run
    pays for it (20 MB of RSS per process, pool workers included)."""
    import networkx as nx
    g = nx.DiGraph()
    for i, node in enumerate(graph.nodes):
        g.add_node(i, **vars(node))
    for src, dst, op in graph.edges:
        g.add_edge(src, dst, op=op)
    return g
