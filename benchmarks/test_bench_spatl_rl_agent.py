"""SPATL with the full RL pipeline in the loop (§IV-B inside Fig. 1).

The other benches drive SPATL with the static-saliency policy for CPU
economy; this one runs the complete paper pipeline — pre-train the PPO
agent on a pruning task, clone per client, fine-tune the MLP heads online
during the first rounds, one-shot selection afterwards — and checks it
trains while honouring the FLOPs budget.
"""

import json

import numpy as np

from benchmarks.conftest import bench_config
from repro.core import RLSelectionPolicy, SPATL
from repro.data.datasets import train_val_split
from repro.experiments.configs import make_dataset, make_setting
from repro.pruning.baselines import finetune
from repro.rl import pretrain_agent


def test_spatl_with_rl_agent(once, benchmark):
    cfg = bench_config(model="resnet20", n_clients=4, sample_ratio=1.0,
                       rounds=5, n_samples=1200, flops_target=0.8)

    def run():
        # pre-train the agent on a centrally trained model (paper: ResNet-56
        # pruning task; here the same scaled family for CPU economy)
        ds = make_dataset(cfg.scaled(seed=cfg.seed + 100))
        pt_train, pt_val = train_val_split(ds, 0.25, seed=0)
        from repro.models import build_model
        pretrain_model = build_model("resnet20", input_size=cfg.input_size,
                                     width_mult=cfg.width_mult, seed=9)
        finetune(pretrain_model, pt_train, epochs=3, lr=cfg.lr, seed=0)
        agent, pre_hist = pretrain_agent(pretrain_model, pt_train, pt_val,
                                         updates=4, episodes_per_update=3,
                                         flops_target=cfg.flops_target,
                                         seed=cfg.seed)
        model_fn, clients = make_setting(cfg)
        policy = RLSelectionPolicy(agent, flops_target=cfg.flops_target,
                                   finetune_rounds=1, finetune_updates=1,
                                   episodes_per_update=2, probe_size=96)
        algo = SPATL(model_fn, clients, selection_policy=policy,
                     lr=cfg.lr, local_epochs=cfg.local_epochs,
                     sample_ratio=cfg.sample_ratio, seed=cfg.seed)
        log = algo.run(cfg.rounds)
        return algo, log, pre_hist

    algo, log, pre_hist = once(run)
    accs = [round(a, 3) for a in log["val_acc"]]
    print("\n=== SPATL + RL agent in the loop ===")
    print("pretrain rewards:", [round(r, 3) for r in pre_hist])
    print("accs:", accs)
    report = algo.inference_report()
    ratios = [r["flops_ratio"] for r in report.values()]
    print("final per-client FLOPs ratios:", [round(r, 3) for r in ratios])
    benchmark.extra_info["accs"] = json.dumps(accs)
    benchmark.extra_info["flops_ratios"] = json.dumps(
        [round(r, 4) for r in ratios])

    assert log["val_acc"][-1] > log["val_acc"][0]
    assert all(r <= cfg.flops_target + 1e-6 for r in ratios)
