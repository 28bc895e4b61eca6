#!/usr/bin/env python
"""Train the GNN+PPO salient-parameter agent and transfer it across models.

Walks the paper's agent lifecycle (§IV-B, §V-F4):

1. train a ResNet-56 on synthetic CIFAR;
2. pre-train the PPO agent on the network-pruning task (reward = accuracy
   of the selected sub-network, Eq. 7);
3. transfer the agent to a ResNet-18, fine-tuning only its MLP heads;
4. one-shot propose a selection and report FLOPs / accuracy trade-off
   against magnitude and random pruning.

Usage::

    python examples/salient_pruning_agent.py [--updates N]
"""

import argparse
import time

import numpy as np

from repro.data import SyntheticCIFAR10, train_val_split
from repro.graph import build_graph
from repro.models import build_model
from repro.pruning import prune_magnitude, prune_random
from repro.pruning.baselines import evaluate, finetune
from repro.rl import pretrain_agent


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--updates", type=int, default=8,
                        help="PPO policy updates per phase")
    parser.add_argument("--flops-target", type=float, default=0.75)
    args = parser.parse_args()

    ds = SyntheticCIFAR10(n_samples=2000, size=16, seed=7)
    train, val = train_val_split(ds, 0.25, seed=0)

    print("== 1. train the source model (ResNet-56, scaled) ==")
    source = build_model("resnet56", input_size=16, width_mult=0.25, seed=1)
    finetune(source, train, epochs=4, lr=0.05, seed=0)
    print(f"dense accuracy: {evaluate(source, val):.3f}")

    print("\n== 2. pre-train the agent on the pruning task ==")
    t0 = time.perf_counter()
    agent, history = pretrain_agent(source, train, val,
                                    updates=args.updates,
                                    episodes_per_update=4,
                                    flops_target=args.flops_target, seed=0)
    print("reward per update:", [round(r, 3) for r in history])
    print(f"({time.perf_counter() - t0:.1f}s; agent size "
          f"{agent.policy.memory_bytes()} bytes)")

    print("\n== 3. transfer to ResNet-18 (MLP heads only) ==")
    target = build_model("resnet18", input_size=16, width_mult=0.1, seed=2)
    finetune(target, train, epochs=4, lr=0.05, seed=0)
    acc_dense = evaluate(target, val)
    ft_history = agent.finetune(target, val, updates=args.updates,
                                episodes_per_update=4,
                                flops_target=args.flops_target)
    print("fine-tune reward per update:", [round(r, 3) for r in ft_history])

    print("\n== 4. one-shot selection vs classical pruning ==")
    t0 = time.perf_counter()
    selection, info = agent.propose(target,
                                    flops_target=args.flops_target)
    propose_ms = (time.perf_counter() - t0) * 1000
    graph = build_graph(target.encoder)
    selection.apply_to(target.encoder)
    acc_agent = evaluate(target, val)
    target.encoder.clear_channel_masks()
    print(f"agent    : acc {acc_dense:.3f} -> {acc_agent:.3f}, "
          f"FLOPs x{graph.flops_ratio(selection.keep):.2f} "
          f"(proposed in {propose_ms:.1f} ms)")

    for fn, label in ((prune_magnitude, "magnitude"), (prune_random, "random")):
        model = build_model("resnet18", input_size=16, width_mult=0.1, seed=2)
        model.load_state_dict(_dense_state(target))
        res = fn(model, train, val, sparsity=selection.mean_sparsity(),
                 finetune_epochs=0, seed=0)
        print(f"{label:9s}: acc {res.acc_dense:.3f} -> {res.acc_pruned:.3f}, "
              f"FLOPs x{res.flops_ratio:.2f}")


def _dense_state(model):
    return model.state_dict()


if __name__ == "__main__":
    main()
