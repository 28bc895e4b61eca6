"""Experiment configuration: datasets, partitions, models, algorithms.

The paper's settings (§V-A) are preserved structurally — Dirichlet(0.5)
CIFAR-10 splits, LEAF-style FEMNIST, 10-100 clients, sample ratios 0.4-1.0,
10 local epochs — while three *scales* control how much compute a run
costs:

- ``tiny``   — CI-friendly: 16x16 inputs, width 0.25, ~1-2k samples.
- ``small``  — bench default: 16x16, width 0.25-0.5, more data/rounds.
- ``paper``  — full-size 32x32 width-1.0 models and paper round counts
  (provided for completeness; hours-to-days on one CPU).

All experiment modules accept an :class:`ExperimentConfig` so the same
code produces every scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from repro.core import SPATL, RLSelectionPolicy, StaticSaliencyPolicy
from repro.data import (SyntheticCIFAR10, SyntheticFEMNIST, by_writer_partition,
                        dirichlet_partition)
from repro.fl import (ALGORITHMS, Client, FaultModel, RetryPolicy,
                      make_executor, make_federated_clients,
                      make_quant_config)
from repro.models import build_model
from repro.rl import SalientParameterAgent


@dataclass(frozen=True)
class ExperimentConfig:
    """One FL experiment setting."""

    model: str = "resnet20"
    dataset: str = "cifar10"
    n_clients: int = 10
    sample_ratio: float = 1.0
    beta: float = 0.5              # Dirichlet concentration (paper: 0.5)
    n_samples: int = 2000
    input_size: int = 16
    width_mult: float = 0.25
    num_classes: int = 10
    local_epochs: int = 3          # paper: 10
    batch_size: int = 32
    lr: float = 0.05
    momentum: float = 0.9
    rounds: int = 20
    seed: int = 0
    # SPATL knobs
    selection_sparsity: float = 0.3
    flops_target: float = 0.75
    use_rl_policy: bool = False    # RL agent (True) vs static saliency policy
    # Fault-injection knobs (all zero => fault path disabled entirely, so
    # default runs stay byte-identical to the fault-free protocol).
    fault_drop_prob: float = 0.0
    fault_corrupt_prob: float = 0.0
    fault_straggler_prob: float = 0.0
    fault_slowdown: float = 4.0
    fault_timeout: float | None = None   # server deadline in epoch-units
    fault_crash_prob: float = 0.0
    fault_retries: int = 2
    fault_seed: int | None = None        # defaults to `seed` when faults on
    min_clients: int = 1                 # round-commit quorum
    # Round-execution engine (DESIGN.md §9/§14): 1 = in-process serial
    # executor, N>1 fans per-client exchanges over N worker processes.
    # Results are byte-identical across both engines.
    workers: int = 1
    # Trace-and-replay step compiler (DESIGN.md §15): capture each local
    # training step once per (model, batch-signature) and replay it with
    # static memory planning.  Byte-identical to eager execution; off by
    # default so baseline runs keep the untouched eager loop.
    compile: bool = False
    # Low-bit quantized uplink transport (DESIGN.md §16): stochastic
    # int8/int4 codec with per-client error feedback.  ``quant_bits=32``
    # keeps the dense fp32 wire byte-identical to the unquantized path;
    # 16 casts through fp16 records; 8/4 run the stochastic codec.
    # ``quant_block=0`` means one scale per tensor, else values/scale.
    quant_bits: int = 32
    quant_block: int = 0
    quant_ef: bool = True
    # Kept fraction per tensor for the sparse-at-init algorithms
    # (salientgrads / ssfl).
    mask_density: float = 0.3

    def scaled(self, **overrides) -> "ExperimentConfig":
        return replace(self, **overrides)

    @property
    def faults_enabled(self) -> bool:
        return (self.fault_drop_prob > 0 or self.fault_corrupt_prob > 0
                or self.fault_crash_prob > 0 or self.fault_timeout is not None)


SCALES: dict[str, dict] = {
    "tiny": dict(n_samples=1500, input_size=16, width_mult=0.25,
                 local_epochs=2, rounds=10),
    "small": dict(n_samples=3000, input_size=16, width_mult=0.25,
                  local_epochs=3, rounds=25),
    "paper": dict(n_samples=50_000, input_size=32, width_mult=1.0,
                  local_epochs=10, rounds=400),
}


def config_for(scale: str = "tiny", **overrides) -> ExperimentConfig:
    """Config at a named scale with per-experiment overrides."""
    if scale not in SCALES:
        raise KeyError(f"unknown scale {scale!r}; known: {sorted(SCALES)}")
    return ExperimentConfig(**{**SCALES[scale], **overrides})


def make_dataset(cfg: ExperimentConfig):
    """Instantiate the config's dataset (synthetic CIFAR-10 or FEMNIST)."""
    if cfg.dataset == "cifar10":
        return SyntheticCIFAR10(n_samples=cfg.n_samples, size=cfg.input_size,
                                seed=cfg.seed, num_classes=cfg.num_classes)
    if cfg.dataset == "femnist":
        per_writer = max(20, cfg.n_samples // max(cfg.n_clients * 5, 1))
        return SyntheticFEMNIST(n_writers=cfg.n_clients * 5,
                                samples_per_writer=per_writer,
                                size=cfg.input_size, seed=cfg.seed,
                                num_classes=cfg.num_classes)
    raise KeyError(f"unknown dataset {cfg.dataset!r}")


def make_setting(cfg: ExperimentConfig) -> tuple[Callable, list[Client]]:
    """(model_fn, clients) for a config — the inputs every algorithm takes."""
    ds = make_dataset(cfg)
    if cfg.dataset == "femnist":
        parts = by_writer_partition(ds.writer_ids, cfg.n_clients, seed=cfg.seed)
    else:
        parts = dirichlet_partition(ds.y, cfg.n_clients, beta=cfg.beta,
                                    seed=cfg.seed)
    clients = make_federated_clients(ds, parts, batch_size=cfg.batch_size,
                                     seed=cfg.seed)
    return make_model_fn(cfg), clients


def make_model_fn(cfg: ExperimentConfig) -> Callable:
    """The config's model factory: every call builds the same fresh model."""

    def model_fn():
        return build_model(cfg.model, num_classes=cfg.num_classes,
                           input_size=cfg.input_size,
                           width_mult=cfg.width_mult, seed=cfg.seed + 1)

    return model_fn


def make_fault_model(cfg: ExperimentConfig) -> FaultModel | None:
    """Config's fault model, or ``None`` when fault injection is off."""
    if not cfg.faults_enabled:
        return None
    return FaultModel(
        drop_prob=cfg.fault_drop_prob,
        straggler_prob=cfg.fault_straggler_prob,
        slowdown=cfg.fault_slowdown,
        timeout=math.inf if cfg.fault_timeout is None else cfg.fault_timeout,
        corrupt_prob=cfg.fault_corrupt_prob,
        crash_prob=cfg.fault_crash_prob,
        seed=cfg.seed if cfg.fault_seed is None else cfg.fault_seed,
    )


def make_spatl_policy(cfg: ExperimentConfig):
    """SPATL's selection policy per config: RL agent or static saliency."""
    if cfg.use_rl_policy:
        return RLSelectionPolicy(SalientParameterAgent(seed=cfg.seed),
                                 flops_target=cfg.flops_target,
                                 finetune_rounds=2, finetune_updates=1)
    return StaticSaliencyPolicy(cfg.selection_sparsity)


def make_algorithm(name: str, cfg: ExperimentConfig, model_fn, clients,
                   **overrides):
    """Instantiate any algorithm (baseline or SPATL) for a setting.

    All methods share the config's lr / local epochs / sampling so the
    comparison isolates the algorithm, as in the Non-IID benchmark.
    """
    common = dict(lr=cfg.lr, local_epochs=cfg.local_epochs,
                  sample_ratio=cfg.sample_ratio, momentum=cfg.momentum,
                  seed=cfg.seed)
    quant = make_quant_config(cfg.quant_bits, cfg.quant_block, cfg.quant_ef)
    if quant is not None:
        common["quant"] = quant
    if cfg.workers != 1:
        common["executor"] = make_executor(cfg.workers)
    if cfg.compile:
        common["compile_steps"] = True
    fault_model = make_fault_model(cfg)
    if fault_model is not None:
        common.update(fault_model=fault_model,
                      retry_policy=RetryPolicy(max_retries=cfg.fault_retries),
                      min_clients=cfg.min_clients)
    common.update(overrides)
    if name == "spatl":
        policy = common.pop("selection_policy", None) or \
            make_spatl_policy(cfg)
        return SPATL(model_fn, clients, selection_policy=policy, **common)
    if name in ALGORITHMS:
        if name == "scaffold":
            common.pop("momentum", None)  # scaffold manages its own default
        if name in ("salientgrads", "ssfl"):
            common.setdefault("density", cfg.mask_density)
        return ALGORITHMS[name](model_fn, clients, **common)
    raise KeyError(f"unknown algorithm {name!r}")
