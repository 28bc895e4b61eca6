"""The paper's claims: one table over shared runs (EXPERIMENTS.md).

Every paper shape the reproduction checks (who wins, by what factor) is
a row of :data:`CLAIMS`: a claim id, its artifact, the measured quantity
as named operands, and the bound over them.  An artifact
(:data:`ARTIFACTS`: a table or figure, with its paper section) declares
the runs it reads and reduces them with the reader the ``repro`` CLI
prints through (``repro.experiments``), so both compute each number with
the same code.

Runs are shared.  A run is keyed by its config without rounds, its
method, its overrides and its setting (:class:`Key`); it trains once
(:func:`repro.experiments.train`), to the most rounds any read asks of
it, or, when every read of it stops by one rule, until that rule stops
it.  A log read gets the log of the first ``r`` rounds, cut where its
stop rule fires (Table I's target, Table II's patience); a state read
gets the algorithm at exactly ``r`` rounds, served in ascending ``r``.
That is sound because a run's first ``r`` rounds do not depend on how
many follow (``tests/test_run_prefix.py``).

A bound is the check itself, evaluated over the operands its row
records, so a record re-checks on its own: the floors judge every claim
of this table against a record's rows, and a claim without a row fails.

    python benchmarks/bench_claims.py --check    # every claim, ~10 min

One scale, tiny at seed 0: ``--smoke`` runs the same table.  A smaller
one would be a second configuration of every claim, and shrinking data
until a claim holds is what this table exists to prevent.
"""

import dataclasses
import functools
import time
from typing import Any, Callable

from _harness import SEED, Bench

import numpy as np

from repro.core import RandomSelectionPolicy, RLSelectionPolicy
from repro.data import train_val_split
from repro.experiments import (config_for, pruning_comparison_table,
                               rl_finetune_figure, train)
from repro.experiments.ablation import stability
from repro.experiments.communication import cost_rows, target_rounds
from repro.experiments.configs import make_dataset
from repro.experiments.fault_tolerance import fault_config, fault_row
from repro.experiments.inference import inference_stats
from repro.experiments.learning_efficiency import converge_accuracy_summary
from repro.experiments.local_accuracy import client_accuracy_stats
from repro.experiments.transfer import holdout_split, transfer_row
from repro.models import build_model
from repro.pruning.baselines import finetune
from repro.rl import pretrain_agent
from repro.utils.metrics import rounds_to_converge, rounds_to_target

SCALE = "tiny"
FIVE = ("fedavg", "fedprox", "fednova", "scaffold", "spatl")


def _cfg(**overrides):
    """A run's config: the table's scale and seed, rounds left to reads."""
    return config_for(SCALE, seed=SEED, rounds=0, **overrides)


# ------------------------------------------------------------------ runs
@dataclasses.dataclass(frozen=True)
class Key:
    """One run, trained once however many reads share it."""
    cfg: Any
    method: str
    #: sorted ``(name, value)`` pairs; a selection policy goes by name
    #: (:data:`POLICIES`), so equal runs have equal keys
    overrides: tuple = ()
    #: Table III's setting: this fraction of the data held out of FL
    holdout: float | None = None


@dataclasses.dataclass(frozen=True)
class Read:
    key: Key
    rounds: int
    #: log read: the stop rule that may end the run within its first
    #: ``rounds`` rounds, as ``train`` takes it (``target_accuracy`` or
    #: ``patience``), as ``(name, value)`` pairs
    stop: tuple = ()
    #: state read: the reader of the run at exactly ``rounds`` rounds
    state: Callable | None = None


def log(cfg, method, rounds, stop=None, **overrides) -> Read:
    return Read(Key(cfg, method, tuple(sorted(overrides.items()))), rounds,
                stop=tuple((stop or {}).items()))


def _stop_round(series, target_accuracy=None, patience=None):
    """The round at which ``train(target_accuracy=, patience=)`` stops
    within ``series``, or ``None`` where it does not."""
    if target_accuracy is not None:
        return rounds_to_target(series, target_accuracy)
    return rounds_to_converge(series, patience)


def state(cfg, method, rounds, reader, holdout=None, **overrides) -> Read:
    return Read(Key(cfg, method, tuple(sorted(overrides.items())), holdout),
                rounds, state=reader)


def _pretrained_rl_policy(cfg):
    """The full §IV-B pipeline's policy: an agent pre-trained on a
    centrally trained model of the same family, cloned per client and
    fine-tuned online in the first round."""
    ds = make_dataset(cfg.scaled(seed=cfg.seed + 100))
    pt_train, pt_val = train_val_split(ds, 0.25, seed=0)
    pretrain_model = build_model("resnet20", input_size=cfg.input_size,
                                 width_mult=cfg.width_mult, seed=9)
    finetune(pretrain_model, pt_train, epochs=3, lr=cfg.lr, seed=0)
    agent, _ = pretrain_agent(pretrain_model, pt_train, pt_val, updates=4,
                              episodes_per_update=3,
                              flops_target=cfg.flops_target, seed=cfg.seed)
    return RLSelectionPolicy(agent, flops_target=cfg.flops_target,
                             finetune_rounds=1, finetune_updates=1,
                             episodes_per_update=2, probe_size=96)


POLICIES = {
    "random": lambda cfg: RandomSelectionPolicy(0.3, seed=cfg.seed),
    "pretrained-rl": _pretrained_rl_policy,
}

_split = functools.cache(holdout_split)


def _train(key: Key, rounds: int, at: dict, stop: dict):
    overrides = dict(key.overrides)
    if "selection_policy" in overrides:
        overrides["selection_policy"] = \
            POLICIES[overrides["selection_policy"]](key.cfg)
    setting = None if key.holdout is None else \
        _split(key.cfg, key.holdout).setting(key.cfg)
    return train(key.cfg, key.method, rounds, setting=setting, at=at,
                 **stop, **overrides)


def label(key: Key) -> str:
    base = _cfg()
    fields = [f"{f.name}={getattr(key.cfg, f.name)}"
              for f in dataclasses.fields(base)
              if getattr(key.cfg, f.name) != getattr(base, f.name)]
    fields += [f"{name}={value}" for name, value in key.overrides]
    if key.holdout is not None:
        fields.append(f"holdout={key.holdout}")
    return f"{key.method}[{' '.join(fields)}]"


# ------------------------------------------------------------- artifacts
# Each returns ``(reads, reader)``: ``{label: Read}`` and the reducer of
# ``{label: served value}`` into what its claims measure.

def policy_source():
    cfg = _cfg(model="resnet20", n_clients=6, sample_ratio=1.0)
    reads = {"saliency": log(cfg, "spatl", 8),
             "random": log(cfg, "spatl", 8, selection_policy="random")}
    return reads, converge_accuracy_summary


def agg_step():
    cfg = _cfg(model="resnet20", n_clients=6, sample_ratio=1.0)
    reads = {"eta_half": log(cfg, "spatl", 8, aggregation_step=0.5),
             "eta_one": log(cfg, "spatl", 8)}
    return reads, converge_accuracy_summary


FAULT_RATES = (0.0, 0.3)


def fault_degradation():
    cfg = _cfg(n_clients=8, sample_ratio=0.75, min_clients=2)
    reads = {(m, p): state(fault_config(cfg, p, 0.05), m, 6, fault_row)
             for m in ("fedavg", "spatl") for p in FAULT_RATES}
    return reads, lambda got: got


def fig5b():
    cfg = _cfg(model="resnet20", n_clients=8, sample_ratio=0.5, beta=0.3)
    reads = {"with": log(cfg, "spatl", 12, momentum=0.0),
             "without": log(cfg, "spatl", 12, momentum=0.0,
                            use_gradient_control=False)}
    return reads, lambda got: {
        "summary": converge_accuracy_summary(got),
        "stability": {k: stability(v["val_acc"]) for k, v in got.items()}}


def fig4():
    cfg = _cfg(model="resnet20", n_clients=6, sample_ratio=1.0)
    reads = {"with": log(cfg, "spatl", 10),
             "without": log(cfg, "spatl", 10, use_selection=False)}
    return reads, lambda got: {
        "summary": converge_accuracy_summary(got),
        "mb": {k: v.meta["per_round_per_client_mb"] for k, v in got.items()}}


def fig5a():
    cfg = _cfg(model="resnet20", n_clients=8, sample_ratio=1.0, beta=0.2)
    reads = {"with": log(cfg, "spatl", 10),
             "without": log(cfg, "spatl", 10, use_transfer=False)}
    return reads, converge_accuracy_summary


def femnist():
    cfg = _cfg(model="cnn2", dataset="femnist", num_classes=10,
               input_size=16, n_clients=6, sample_ratio=1.0, n_samples=1800)
    return ({m: log(cfg, m, 8) for m in ("fedavg", "fedprox", "spatl")},
            converge_accuracy_summary)


def fig3():
    cfg = _cfg(model="resnet20", n_clients=6, sample_ratio=0.7)
    return {m: log(cfg, m, 10) for m in FIVE}, lambda got: {
        "summary": converge_accuracy_summary(got),
        # the figure's curves, as printed: 4 decimals
        "stability": {m: stability([round(a, 4) for a in v["val_acc"]])
                      for m, v in got.items()}}


def local_acc():
    cfg = _cfg(model="resnet20", n_clients=8, sample_ratio=1.0, beta=0.3)
    reader = lambda run: client_accuracy_stats(run.algo)  # noqa: E731
    return ({m: state(cfg, m, 10, reader) for m in ("spatl", "scaffold")},
            lambda got: got)


def fig6():
    cfg = _cfg(model="resnet56", n_samples=1200, flops_target=0.75)
    return {}, lambda got: rl_finetune_figure(cfg, "resnet56", "resnet18",
                                              8, 8, 4, 3, 0.1)


def train_rounds():
    cfg = _cfg(model="resnet20", n_clients=6, sample_ratio=0.7)
    reads = {m: log(cfg, m, 12)
             for m in ("fedavg", "fedprox", "scaffold", "spatl")}
    return reads, lambda got: target_rounds(got, (0.4, 0.5, 0.6))


def _steady_round_mb(run) -> float:
    """Round 1's bytes per client: the steady state (round 0 is a cold
    start, where the delta downlink does not send a first contact the
    ``c⁰ = 0`` it already holds)."""
    ledger = run.algo.ledger
    n = len(set(ledger.uplink[1]) | set(ledger.downlink[1]))
    return ledger.round_bytes(1) / n / 2 ** 20


def arch_sweep():
    configs = {
        "resnet32": _cfg(model="resnet32", n_clients=4, sample_ratio=1.0,
                         n_samples=1000, local_epochs=1),
        "vgg11": _cfg(model="vgg11", n_clients=4, sample_ratio=1.0,
                      n_samples=1000, local_epochs=1, input_size=32,
                      width_mult=0.125)}
    reads = {(model, m): state(cfg, m, 2, _steady_round_mb)
             for model, cfg in configs.items()
             for m in ("fedavg", "scaffold", "spatl")}
    return reads, lambda got: got


def rl_agent():
    cfg = _cfg(model="resnet20", n_clients=4, sample_ratio=1.0,
               n_samples=1200, flops_target=0.8)

    def reader(run):
        return {"accs": list(run.log["val_acc"]),
                "flops_ratios": [r["flops_ratio"] for r in
                                 run.algo.inference_report().values()],
                "flops_target": cfg.flops_target}

    return ({"spatl": state(cfg, "spatl", 5, reader,
                            selection_policy="pretrained-rl")},
            lambda got: got["spatl"])


def table1():
    cfg = _cfg(model="resnet20", n_clients=6, sample_ratio=1.0)
    reads = {m: log(cfg, m, 14, stop={"target_accuracy": 0.6})
             for m in FIVE}
    return reads, lambda got: cost_rows(cfg, got, target=0.6)


def table2():
    cfg = _cfg(model="resnet20", n_clients=10, sample_ratio=0.4, beta=0.3)
    reads = {m: log(cfg, m, 12, stop={"patience": 6})
             for m in ("fedavg", "fednova", "scaffold", "spatl")}
    return reads, lambda got: cost_rows(cfg, got, target=None)


def inference():
    cfg = _cfg(model="resnet20", n_clients=6, sample_ratio=1.0,
               selection_sparsity=0.3)
    return ({"spatl": state(cfg, "spatl", 8,
                            lambda run: inference_stats(cfg, run))},
            lambda got: got["spatl"])


def table4():
    cfg = _cfg(model="resnet20", flops_target=0.75, n_samples=1600)
    return {}, lambda got: {r.method: r for r in pruning_comparison_table(
        cfg, 0.25, 5, 1, 6)}


def table3():
    cfg = _cfg(model="resnet20", n_clients=6, sample_ratio=1.0)

    def reader(run):
        return transfer_row(cfg, run, _split(cfg, 0.25), 3)

    return ({m: state(cfg, m, 8, reader, holdout=0.25)
             for m in ("fedavg", "scaffold", "spatl")}, lambda got: got)


#: artifact -> (paper section, its runs and reader)
ARTIFACTS = {
    "table1": ("§V-C Table I", table1),
    "table2": ("§V-C Table II", table2),
    "table3": ("§V-E Table III", table3),
    "table4": ("§V-F1 Table IV", table4),
    "inference": ("§V-D", inference),
    "fig3": ("§V-B Fig. 3", fig3),
    "femnist": ("§V-B", femnist),
    "local_acc": ("§V-B", local_acc),
    "train_rounds": ("§V-C", train_rounds),
    "arch_sweep": ("§V-C Tables I/II", arch_sweep),
    "fig4": ("§V-F1 Fig. 4", fig4),
    "fig5a": ("§V-F2 Fig. 5a", fig5a),
    "fig5b": ("§V-F3 Fig. 5b", fig5b),
    "fig6": ("§V-F4 Fig. 6", fig6),
    "rl_agent": ("§IV-B", rl_agent),
    "policy_source": ("DESIGN.md §6", policy_source),
    "agg_step": ("Eq. 12", agg_step),
    "fault_degradation": ("beyond the paper: unreliable clients",
                          fault_degradation),
}


# ---------------------------------------------------------------- claims
@dataclasses.dataclass(frozen=True)
class Claim:
    id: str
    artifact: str
    #: the artifact's result -> ``{operand: value}``, the measured quantity
    measure: Callable[[Any], dict]
    #: the check, over those operands, as its assert wrote it
    bound: str


def holds(claim: Claim, measured: dict) -> bool:
    """The bound evaluated over the operands: names, arithmetic and
    comparisons only, so no builtin is in reach."""
    return bool(eval(claim.bound, {"__builtins__": {}}, dict(measured)))


def _fault(method, rate, *fields):
    return lambda r: {f: r[(method, rate)][f] for f in fields}


def _fault_loss(method):
    return lambda r: {"clean_acc": r[(method, 0.0)]["final_acc"],
                      "faulty_acc": r[(method, 0.3)]["final_acc"]}


def _by_method(rows):
    return {row.method: row for row in rows}


def _arch(model, *methods):
    return lambda r: {f"{m}_mb": r[(model, m)] for m in methods}


def _train_rounds(target):
    def measure(table):
        others = [table[m][target] for m in ("fedavg", "fedprox", "scaffold")
                  if table[m][target] is not None]
        return {"spatl": table["spatl"][target],
                "slowest_baseline": max(others) if others else None}
    return measure


def _transfer(m):
    return lambda r: {"transfer_acc": r[m]["transfer_acc"],
                      "zero_shot_acc": r[m]["zero_shot_acc"]}


def _table1_cheapest(rows):
    by = _by_method(rows)
    reached = [r for r in rows if r.reached_target]
    return {"spatl_reached": by["spatl"].reached_target,
            "n_reached": len(reached), "spatl_gb": by["spatl"].total_gb,
            "cheapest_gb": (min(reached, key=lambda r: r.total_gb).total_gb
                            if reached else None)}


CLAIMS = [
    # Table I (§V-C): per-round cost by protocol, SPATL's cost to target
    Claim("table1.scaffold_2x", "table1",
          lambda rows: {"scaffold_mb": _by_method(rows)["scaffold"]
                        .mb_per_round_client,
                        "fedavg_mb": _by_method(rows)["fedavg"]
                        .mb_per_round_client},
          "1.6 < scaffold_mb / fedavg_mb < 2.4"),
    Claim("table1.fednova_2x", "table1",
          lambda rows: {"fednova_mb": _by_method(rows)["fednova"]
                        .mb_per_round_client,
                        "fedavg_mb": _by_method(rows)["fedavg"]
                        .mb_per_round_client},
          "1.6 < fednova_mb / fedavg_mb < 2.4"),
    Claim("table1.spatl_under_scaffold", "table1",
          lambda rows: {"spatl_mb": _by_method(rows)["spatl"]
                        .mb_per_round_client,
                        "scaffold_mb": _by_method(rows)["scaffold"]
                        .mb_per_round_client},
          "spatl_mb < scaffold_mb"),
    Claim("table1.spatl_cheapest_to_target", "table1", _table1_cheapest,
          "not (spatl_reached and n_reached > 1) "
          "or spatl_gb <= cheapest_gb * 1.6"),
    # Table II (§V-C): converged accuracy vs FedAvg, the 2x protocols
    Claim("table2.spatl_vs_fedavg", "table2",
          lambda rows: {"spatl_delta": _by_method(rows)["spatl"]
                        .acc_delta_vs_fedavg},
          "spatl_delta >= -0.05"),
    Claim("table2.scaffold_2x", "table2",
          lambda rows: {"scaffold_mb": _by_method(rows)["scaffold"]
                        .mb_per_round_client,
                        "fedavg_mb": _by_method(rows)["fedavg"]
                        .mb_per_round_client},
          "scaffold_mb > 1.6 * fedavg_mb"),
    # Table III (§V-E): transfer helps every method; SPATL at parity
    Claim("table3.fedavg.transfer_helps", "table3", _transfer("fedavg"),
          "transfer_acc >= zero_shot_acc - 0.05"),
    Claim("table3.scaffold.transfer_helps", "table3", _transfer("scaffold"),
          "transfer_acc >= zero_shot_acc - 0.05"),
    Claim("table3.spatl.transfer_helps", "table3", _transfer("spatl"),
          "transfer_acc >= zero_shot_acc - 0.05"),
    Claim("table3.spatl_parity", "table3",
          lambda r: {"spatl": r["spatl"]["transfer_acc"],
                     "best_baseline": max(v["transfer_acc"]
                                          for m, v in r.items()
                                          if m != "spatl")},
          "spatl >= best_baseline - 0.15"),
    # Table IV (§V-F1): the agent against the classical criteria
    Claim("table4.agent_prunes", "table4",
          lambda r: {"agent_reduction":
                     r["rl-agent (SPATL)"].flops_reduction},
          "agent_reduction > 0.1"),
    Claim("table4.agent_competitive", "table4",
          lambda r: {"agent_acc": r["rl-agent (SPATL)"].acc_pruned,
                     "best_classical": max(
                         r[m].acc_pruned
                         for m in ("magnitude-l2", "sfp", "fpgm", "dsa"))},
          "agent_acc >= best_classical - 0.25"),
    Claim("table4.agent_beats_random", "table4",
          lambda r: {"agent_acc": r["rl-agent (SPATL)"].acc_pruned,
                     "random_acc": r["random"].acc_pruned},
          "agent_acc >= random_acc - 0.15"),
    # §V-D: the salient sub-networks' FLOPs
    Claim("inference.avg_reduction", "inference",
          lambda r: {"avg_reduction": r["avg_flops_reduction"]},
          "avg_reduction > 0.10"),
    Claim("inference.max_over_avg", "inference",
          lambda r: {"max_reduction": r["max_flops_reduction"],
                     "avg_reduction": r["avg_flops_reduction"]},
          "max_reduction >= avg_reduction"),
    Claim("inference.keeps_fewer", "inference",
          lambda r: {"keep_ratio": r["avg_keep_ratio"]},
          "keep_ratio < 1.0"),
    Claim("inference.still_trains", "inference",
          lambda r: {"final_acc": r["final_acc"]}, "final_acc > 0.3"),
    # Fig. 3 (§V-B): learning efficiency
    Claim("fig3.spatl_converges", "fig3",
          lambda r: {"spatl": r["summary"]["spatl"],
                     "min_baseline": min(v for k, v in r["summary"].items()
                                         if k != "spatl")},
          "spatl >= min_baseline - 0.05"),
    Claim("fig3.spatl_smoother", "fig3",
          lambda r: {"spatl_stability": r["stability"]["spatl"],
                     "fedavg_stability": r["stability"]["fedavg"]},
          "spatl_stability <= fedavg_stability + 0.05"),
    # §V-B: FEMNIST, the paper's negative case
    Claim("femnist.all_train", "femnist",
          lambda s: {"min_converged": min(s.values())},
          "min_converged > 0.2"),
    Claim("femnist.spatl_within_reach", "femnist",
          lambda s: {"spatl": s["spatl"],
                     "best_baseline": max(v for k, v in s.items()
                                          if k != "spatl")},
          "spatl >= best_baseline - 0.25"),
    # §V-B: per-client accuracy
    Claim("local_acc.mean", "local_acc",
          lambda r: {"spatl_mean": r["spatl"]["mean"],
                     "scaffold_mean": r["scaffold"]["mean"]},
          "spatl_mean >= scaffold_mean - 0.02"),
    Claim("local_acc.worst_client", "local_acc",
          lambda r: {"spatl_min": r["spatl"]["min"],
                     "scaffold_min": r["scaffold"]["min"]},
          "spatl_min >= scaffold_min - 0.05"),
    # §V-C: rounds to target
    Claim("train_rounds.target_40", "train_rounds", _train_rounds(0.4),
          "spatl is None or slowest_baseline is None "
          "or spatl <= slowest_baseline + 2"),
    Claim("train_rounds.target_50", "train_rounds", _train_rounds(0.5),
          "spatl is None or slowest_baseline is None "
          "or spatl <= slowest_baseline + 2"),
    # §V-C, Tables I/II's architecture rows: steady-round bytes per client
    Claim("arch_sweep.resnet32.scaffold_2x", "arch_sweep",
          _arch("resnet32", "scaffold", "fedavg"),
          "scaffold_mb > 1.6 * fedavg_mb"),
    Claim("arch_sweep.resnet32.spatl_under_scaffold", "arch_sweep",
          _arch("resnet32", "spatl", "scaffold"), "spatl_mb < scaffold_mb"),
    Claim("arch_sweep.vgg11.scaffold_2x", "arch_sweep",
          _arch("vgg11", "scaffold", "fedavg"),
          "scaffold_mb > 1.6 * fedavg_mb"),
    Claim("arch_sweep.vgg11.spatl_under_scaffold", "arch_sweep",
          _arch("vgg11", "spatl", "scaffold"), "spatl_mb < scaffold_mb"),
    Claim("arch_sweep.vgg_saves_more", "arch_sweep",
          lambda r: {f"{model}_ratio": r[(model, "spatl")]
                     / r[(model, "scaffold")]
                     for model in ("resnet32", "vgg11")},
          "vgg11_ratio <= resnet32_ratio + 0.05"),
    # Fig. 4 (§V-F1): selection keeps accuracy and uploads less
    Claim("fig4.selection_keeps_accuracy", "fig4",
          lambda r: {"with_selection": r["summary"]["with"],
                     "without_selection": r["summary"]["without"]},
          "with_selection >= without_selection - 0.1"),
    Claim("fig4.selection_uploads_less", "fig4",
          lambda r: {"with_mb": r["mb"]["with"],
                     "without_mb": r["mb"]["without"]},
          "with_mb < without_mb"),
    # Fig. 5a (§V-F2): the private predictor matters
    Claim("fig5a.transfer_helps", "fig5a",
          lambda s: {"with_transfer": s["with"],
                     "without_transfer": s["without"]},
          "with_transfer > without_transfer - 0.02"),
    # Fig. 5b (§V-F3): gradient control helps accuracy or smoothness
    Claim("fig5b.control_helps", "fig5b",
          lambda r: {"with_acc": r["summary"]["with"],
                     "without_acc": r["summary"]["without"],
                     "with_stability": r["stability"]["with"],
                     "without_stability": r["stability"]["without"]},
          "with_acc >= without_acc - 0.02 "
          "or with_stability <= without_stability + 0.01"),
    # Fig. 6 (§V-F4): the agent transfers and is tiny
    Claim("fig6.rewards_finite", "fig6",
          lambda r: {"pretrain_finite":
                     bool(all(np.isfinite(r["pretrain_rewards"]))),
                     "finetune_finite":
                     bool(all(np.isfinite(r["finetune_rewards"])))},
          "pretrain_finite and finetune_finite"),
    Claim("fig6.transfer_reward", "fig6",
          lambda r: {"finetune_tail": float(np.mean(
                         r["finetune_rewards"][-3:])),
                     "pretrain_tail": float(np.mean(
                         r["pretrain_rewards"][-3:]))},
          "finetune_tail >= pretrain_tail - 0.25"),
    Claim("fig6.tiny_agent", "fig6",
          lambda r: {"agent_bytes": r["agent_memory_bytes"]},
          "agent_bytes < 100_000"),
    # §IV-B: SPATL with the full RL pipeline in the loop
    Claim("rl_agent.trains", "rl_agent",
          lambda r: {"last_acc": r["accs"][-1], "first_acc": r["accs"][0]},
          "last_acc > first_acc"),
    Claim("rl_agent.within_budget", "rl_agent",
          lambda r: {"max_flops_ratio": max(r["flops_ratios"]),
                     "flops_target": r["flops_target"]},
          "max_flops_ratio <= flops_target + 1e-6"),
    # DESIGN.md §6: the policy matters, not merely uploading less
    Claim("policy_source.saliency_vs_random", "policy_source",
          lambda s: {"saliency": s["saliency"], "random": s["random"]},
          "saliency >= random - 0.12"),
    Claim("policy_source.random_trains", "policy_source",
          lambda s: {"random": s["random"]}, "random > 0.2"),
    # Eq. 12: the FedAvg-consistent step
    Claim("agg_step.one_vs_half", "agg_step",
          lambda s: {"eta_one": s["eta_one"], "eta_half": s["eta_half"]},
          "eta_one >= eta_half - 0.1"),
    Claim("agg_step.both_train", "agg_step",
          lambda s: {"min_eta": min(s.values())}, "min_eta > 0.2"),
    # unreliable clients: every run completes, faults fire, loss bounded
    Claim("fault_degradation.fedavg.clean_completes", "fault_degradation",
          _fault("fedavg", 0.0, "rounds_run"), "rounds_run == 6"),
    Claim("fault_degradation.fedavg.faulty_completes", "fault_degradation",
          _fault("fedavg", 0.3, "rounds_run"), "rounds_run == 6"),
    Claim("fault_degradation.fedavg.clean_is_fault_free", "fault_degradation",
          _fault("fedavg", 0.0, "n_dropped", "n_corrupt"),
          "n_dropped == 0 and n_corrupt == 0"),
    Claim("fault_degradation.fedavg.clean_has_no_retries", "fault_degradation",
          _fault("fedavg", 0.0, "n_retries"), "n_retries == 0"),
    Claim("fault_degradation.fedavg.drops_fire", "fault_degradation",
          _fault("fedavg", 0.3, "n_dropped"), "n_dropped > 0"),
    Claim("fault_degradation.fedavg.corruption_detected", "fault_degradation",
          _fault("fedavg", 0.3, "n_corrupt", "n_retries"),
          "n_corrupt > 0 or n_retries > 0"),
    Claim("fault_degradation.fedavg.bounded_loss", "fault_degradation",
          _fault_loss("fedavg"), "clean_acc - faulty_acc <= 0.20"),
    Claim("fault_degradation.spatl.clean_completes", "fault_degradation",
          _fault("spatl", 0.0, "rounds_run"), "rounds_run == 6"),
    Claim("fault_degradation.spatl.faulty_completes", "fault_degradation",
          _fault("spatl", 0.3, "rounds_run"), "rounds_run == 6"),
    Claim("fault_degradation.spatl.clean_is_fault_free", "fault_degradation",
          _fault("spatl", 0.0, "n_dropped", "n_corrupt"),
          "n_dropped == 0 and n_corrupt == 0"),
    Claim("fault_degradation.spatl.clean_has_no_retries", "fault_degradation",
          _fault("spatl", 0.0, "n_retries"), "n_retries == 0"),
    Claim("fault_degradation.spatl.drops_fire", "fault_degradation",
          _fault("spatl", 0.3, "n_dropped"), "n_dropped > 0"),
    Claim("fault_degradation.spatl.corruption_detected", "fault_degradation",
          _fault("spatl", 0.3, "n_corrupt", "n_retries"),
          "n_corrupt > 0 or n_retries > 0"),
    Claim("fault_degradation.spatl.bounded_loss", "fault_degradation",
          _fault_loss("spatl"), "clean_acc - faulty_acc <= 0.20"),
]


# ----------------------------------------------------------------- serve
@functools.cache
def _plans() -> dict:
    return {name: make() for name, (_section, make) in ARTIFACTS.items()}


@functools.cache
def _served() -> tuple[dict, list[dict]]:
    """Every artifact's reads, each run trained once; and a row per run."""
    by_key: dict[Key, list] = {}
    for name, (reads, _reader) in _plans().items():
        for what, read in reads.items():
            by_key.setdefault(read.key, []).append((name, what, read))
    got = {name: {} for name in ARTIFACTS}
    rows = []
    for key, reads in by_key.items():
        at: dict[int, list] = {}
        for name, what, read in reads:
            if read.state is not None:
                at.setdefault(read.rounds, []).append((name, what, read))

        def serve(run, items):
            for name, what, read in items:
                got[name][what] = read.state(run)

        # a run every read of which stops by one rule stops by it, as the
        # run of that read alone would
        rules = {read.stop for *_, read in reads}
        stop = dict(rules.pop()) if len(rules) == 1 and not at else {}
        t0 = time.perf_counter()
        run = _train(key, max(read.rounds for *_, read in reads),
                     {r: functools.partial(serve, items=items)
                      for r, items in at.items()}, stop)
        for name, what, read in reads:
            if read.state is None:
                rounds = _stop_round(run.log["val_acc"][:read.rounds],
                                     **dict(read.stop)) or read.rounds
                got[name][what] = run.upto(rounds)
        rows.append({"name": label(key), "rounds": run.log.meta["rounds_run"],
                     "wall_s": round(time.perf_counter() - t0, 3),
                     "reads": sorted({name for name, *_ in reads})})
    return got, rows


@functools.cache
def _results() -> tuple[dict, list[dict]]:
    got, _ = _served()
    results, rows = {}, []
    for name, (reads, reader) in _plans().items():
        t0 = time.perf_counter()
        results[name] = reader({what: got[name][what] for what in reads})
        rows.append({"name": name, "section": ARTIFACTS[name][0],
                     "reader_s": round(time.perf_counter() - t0, 3),
                     "reads": sorted(f"{label(read.key)}@{read.rounds}"
                                     for read in reads.values())})
    return results, rows


def run_rows(size: dict):
    yield from _served()[1]


def artifact_rows(size: dict):
    yield from _results()[1]


def claim_rows(size: dict):
    results, _ = _results()
    reads = {row["name"]: row["reads"] for row in _results()[1]}
    for claim in CLAIMS:
        measured = claim.measure(results[claim.artifact])
        yield {"name": claim.id, "artifact": claim.artifact,
               "section": ARTIFACTS[claim.artifact][0],
               "reads": reads[claim.artifact], "measured": measured,
               "bound": claim.bound, "holds": holds(claim, measured)}


def floors(record: dict) -> list[str]:
    """Every claim of the table, judged on the record's own operands."""
    rows = {row["name"]: row for row in record["rows"]
            if row["case"] == "claims"}
    failures = []
    for claim in CLAIMS:
        row = rows.get(claim.id)
        if row is None:
            failures.append(f"{claim.id}: no row in the record")
        elif not holds(claim, row["measured"]):
            failures.append(f"{claim.id} ({claim.artifact}): "
                            f"{claim.bound} is false for {row['measured']}")
    return failures


BENCH = Bench(
    name="claims", doc=__doc__,
    cases=(("runs", run_rows), ("artifacts", artifact_rows),
           ("claims", claim_rows)),
    full=dict(scale=SCALE, seed=SEED), smoke=dict(scale=SCALE, seed=SEED),
    floors=floors)


def main(argv=None) -> int:
    return BENCH.main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
