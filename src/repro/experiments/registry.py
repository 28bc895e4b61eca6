"""The paper's artifacts: one registry of tables and figures over shared runs.

An artifact (:data:`ARTIFACTS`: a table or figure, with its paper
section) declares the runs it reads and the reader that reduces them to
what the paper reports.  ``repro <artifact>`` prints that value, and
``benchmarks/bench_claims.py`` checks the paper's claims on it, so both
compute each number from the same declaration.

Every artifact's config is built from one :class:`Base`: a scale, a
seed, and the fields a shrink sets over every artifact's own (the CLI's
``--clients`` or ``--rounds``).  A shrink's ``rounds`` is a cap: every
count an artifact runs (rounds, epochs, agent updates) is cut to it.

Runs are shared.  A run is keyed by its config without rounds, its
method, its overrides and its setting (:class:`Key`); it trains once
(:func:`repro.experiments.train`), to the most rounds any read asks of
it, or, when every read of it stops by one rule, until that rule stops
it.  A log read gets the log of the first ``r`` rounds, cut where its
stop rule fires (Table I's target, Table II's patience); a state read
gets the algorithm at exactly ``r`` rounds, served in ascending ``r``.
That is sound because a run's first ``r`` rounds do not depend on how
many follow (``tests/test_run_prefix.py``).
"""

from __future__ import annotations

import dataclasses
import functools
import time
from typing import Any, Callable

from repro.core import RandomSelectionPolicy, RLSelectionPolicy
from repro.data import train_val_split
from repro.experiments.ablation import stability
from repro.experiments.communication import cost_rows, target_rounds
from repro.experiments.configs import config_for, make_dataset
from repro.experiments.fault_tolerance import fault_config, fault_row
from repro.experiments.harness import train
from repro.experiments.inference import inference_stats
from repro.experiments.learning_efficiency import converge_accuracy_summary
from repro.experiments.local_accuracy import client_accuracy_stats
from repro.experiments.pruning_compare import pruning_comparison_table
from repro.experiments.rl_finetune import rl_finetune_figure
from repro.experiments.transfer import holdout_split, transfer_row
from repro.models import build_model
from repro.pruning.baselines import finetune
from repro.rl import pretrain_agent
from repro.utils.metrics import rounds_to_converge, rounds_to_target

FIVE = ("fedavg", "fedprox", "fednova", "scaffold", "spatl")


@dataclasses.dataclass(frozen=True)
class Base:
    """Where every artifact runs: a scale, a seed, and the shrink."""

    scale: str = "tiny"
    seed: int = 0
    #: sorted ``(field, value)`` pairs set over every artifact's config
    shrink: tuple = ()

    def cfg(self, **fields):
        """An artifact's config: its ``fields``, then the shrink; rounds
        are left to its reads (0) unless the shrink caps them."""
        return config_for(self.scale, **{"seed": self.seed, "rounds": 0,
                                         **fields, **dict(self.shrink)})


def _upto(cfg, *counts) -> list[int]:
    """An artifact's own counts, each cut to the shrink's rounds."""
    return [min(n, cfg.rounds or n) for n in counts]


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
    """What an artifact reads of a run, and at how many rounds."""
    key: Key
    rounds: int
    #: log read: the stop rule that may end the run within its first
    #: ``rounds`` rounds, as ``train`` takes it (``target_accuracy`` or
    #: ``patience``), as ``(name, value)`` pairs
    stop: tuple = ()
    #: state read: the reader of the run at exactly ``rounds`` rounds
    state: Callable | None = None


def log(cfg, method, rounds, stop=None, **overrides) -> Read:
    """A read of the run's log over its first ``rounds`` rounds."""
    return Read(Key(cfg, method, tuple(sorted(overrides.items()))),
                _upto(cfg, rounds)[0], stop=tuple((stop or {}).items()))


def state(cfg, method, rounds, reader, holdout=None, **overrides) -> Read:
    """A read of the run's algorithm at exactly ``rounds`` rounds."""
    return Read(Key(cfg, method, tuple(sorted(overrides.items())), holdout),
                _upto(cfg, rounds)[0], state=reader)


def _stop_round(series, target_accuracy=None, patience=None):
    """The round at which ``train(target_accuracy=, patience=)`` stops
    within ``series``, or ``None`` where it does not."""
    if target_accuracy is not None:
        return rounds_to_target(series, target_accuracy)
    return rounds_to_converge(series, patience)


def _pretrained_rl_policy(cfg):
    """The full §IV-B pipeline's policy: an agent pre-trained on a
    centrally trained model of the same family, cloned per client and
    fine-tuned online in the first round."""
    epochs, updates, episodes = _upto(cfg, 3, 4, 3)
    ds = make_dataset(cfg.scaled(seed=cfg.seed + 100))
    pt_train, pt_val = train_val_split(ds, 0.25, seed=0)
    pretrain_model = build_model("resnet20", input_size=cfg.input_size,
                                 width_mult=cfg.width_mult, seed=9)
    finetune(pretrain_model, pt_train, epochs=epochs, lr=cfg.lr, seed=0)
    agent, _ = pretrain_agent(pretrain_model, pt_train, pt_val,
                              updates=updates, episodes_per_update=episodes,
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


def label(key: Key, base: Base) -> str:
    """The run's method and what sets it apart from ``base``'s config."""
    plain = base.cfg()
    fields = [f"{f.name}={getattr(key.cfg, f.name)}"
              for f in dataclasses.fields(plain)
              if getattr(key.cfg, f.name) != getattr(plain, f.name)]
    fields += [f"{name}={value}" for name, value in key.overrides]
    if key.holdout is not None:
        fields.append(f"holdout={key.holdout}")
    return f"{key.method}[{' '.join(fields)}]"


# ------------------------------------------------------------- artifacts
# Each takes the Base and returns ``(reads, reader)``: ``{label: Read}``
# and the reducer of ``{label: served value}`` into what the paper shows.

def policy_source(base):
    """SPATL selecting by saliency against selecting at random."""
    cfg = base.cfg(model="resnet20", n_clients=6, sample_ratio=1.0)
    reads = {"saliency": log(cfg, "spatl", 8),
             "random": log(cfg, "spatl", 8, selection_policy="random")}
    return reads, converge_accuracy_summary


def agg_step(base):
    """SPATL's Eq. 12 step at eta = 1 against eta = 0.5."""
    cfg = base.cfg(model="resnet20", n_clients=6, sample_ratio=1.0)
    reads = {"eta_half": log(cfg, "spatl", 8, aggregation_step=0.5),
             "eta_one": log(cfg, "spatl", 8)}
    return reads, converge_accuracy_summary


def fault_degradation(base):
    """Accuracy, bytes and fault counters, clean and at 30 % drops."""
    cfg = base.cfg(n_clients=8, sample_ratio=0.75, min_clients=2)
    reads = {(m, p): state(fault_config(cfg, p, 0.05), m, 6, fault_row)
             for m in ("fedavg", "spatl") for p in (0.0, 0.3)}
    return reads, lambda got: got


def fig5b(base):
    """SPATL with and without gradient control, both without momentum."""
    cfg = base.cfg(model="resnet20", n_clients=8, sample_ratio=0.5, beta=0.3)
    reads = {"with": log(cfg, "spatl", 12, momentum=0.0),
             "without": log(cfg, "spatl", 12, momentum=0.0,
                            use_gradient_control=False)}
    return reads, lambda got: {
        "summary": converge_accuracy_summary(got),
        "stability": {k: stability(v["val_acc"]) for k, v in got.items()}}


def fig4(base):
    """SPATL with and without salient parameter selection."""
    cfg = base.cfg(model="resnet20", n_clients=6, sample_ratio=1.0)
    reads = {"with": log(cfg, "spatl", 10),
             "without": log(cfg, "spatl", 10, use_selection=False)}
    return reads, lambda got: {
        "summary": converge_accuracy_summary(got),
        "mb": {k: v.meta["per_round_per_client_mb"] for k, v in got.items()}}


def fig5a(base):
    """SPATL with private predictors (transfer) against a shared one."""
    cfg = base.cfg(model="resnet20", n_clients=8, sample_ratio=1.0, beta=0.2)
    reads = {"with": log(cfg, "spatl", 10),
             "without": log(cfg, "spatl", 10, use_transfer=False)}
    return reads, converge_accuracy_summary


def femnist(base):
    """Converged accuracy on writer-partitioned FEMNIST."""
    cfg = base.cfg(model="cnn2", dataset="femnist", num_classes=10,
                   input_size=16, n_clients=6, sample_ratio=1.0,
                   n_samples=1800)
    return ({m: log(cfg, m, 8) for m in ("fedavg", "fedprox", "spatl")},
            converge_accuracy_summary)


def fig3(base):
    """Converged accuracy and smoothness of the five methods' curves."""
    cfg = base.cfg(model="resnet20", n_clients=6, sample_ratio=0.7)
    return {m: log(cfg, m, 10) for m in FIVE}, lambda got: {
        "summary": converge_accuracy_summary(got),
        # the figure's curves, as printed: 4 decimals
        "stability": {m: stability([round(a, 4) for a in v["val_acc"]])
                      for m, v in got.items()}}


def local_acc(base):
    """Each client's accuracy under SPATL and SCAFFOLD."""
    cfg = base.cfg(model="resnet20", n_clients=8, sample_ratio=1.0, beta=0.3)
    reader = lambda run: client_accuracy_stats(run.algo)  # noqa: E731
    return ({m: state(cfg, m, 10, reader) for m in ("spatl", "scaffold")},
            lambda got: got)


def fig6(base):
    """The agent's rewards pre-training on resnet56, then on resnet18."""
    cfg = base.cfg(model="resnet56", n_samples=1200, flops_target=0.75)
    return {}, lambda got: rl_finetune_figure(
        cfg, "resnet56", "resnet18", *_upto(cfg, 8, 8, 4, 3), 0.1)


def train_rounds(base):
    """Rounds each method takes to 40, 50 and 60 % accuracy."""
    cfg = base.cfg(model="resnet20", n_clients=6, sample_ratio=0.7)
    reads = {m: log(cfg, m, 12)
             for m in ("fedavg", "fedprox", "scaffold", "spatl")}
    return reads, lambda got: target_rounds(got, (0.4, 0.5, 0.6))


def _steady_round_mb(run) -> float:
    """The last round's bytes per client: the steady state from round 1
    on (round 0 is a cold start, where the delta downlink does not send
    a first contact the ``c⁰ = 0`` it already holds)."""
    ledger, last = run.algo.ledger, run.algo.rounds_completed - 1
    n = len(set(ledger.uplink[last]) | set(ledger.downlink[last]))
    return ledger.round_bytes(last) / n / 2 ** 20


def arch_sweep(base):
    """Steady-round MB per client on resnet32 and vgg11."""
    configs = {
        "resnet32": base.cfg(model="resnet32", n_clients=4, sample_ratio=1.0,
                             n_samples=1000, local_epochs=1),
        "vgg11": base.cfg(model="vgg11", n_clients=4, sample_ratio=1.0,
                          n_samples=1000, local_epochs=1, input_size=32,
                          width_mult=0.125)}
    reads = {(model, m): state(cfg, m, 2, _steady_round_mb)
             for model, cfg in configs.items()
             for m in ("fedavg", "scaffold", "spatl")}
    return reads, lambda got: got


def rl_agent(base):
    """SPATL with the pre-trained agent selecting, within its budget."""
    cfg = base.cfg(model="resnet20", n_clients=4, sample_ratio=1.0,
                   n_samples=1200, flops_target=0.8)

    def reader(run):
        return {"accs": list(run.log["val_acc"]),
                "flops_ratios": [r["flops_ratio"] for r in
                                 run.algo.inference_report().values()],
                "flops_target": cfg.flops_target}

    return ({"spatl": state(cfg, "spatl", 5, reader,
                            selection_policy="pretrained-rl")},
            lambda got: got["spatl"])


def table1(base):
    """The five methods' cost to a 60 % target."""
    cfg = base.cfg(model="resnet20", n_clients=6, sample_ratio=1.0)
    reads = {m: log(cfg, m, 14, stop={"target_accuracy": 0.6})
             for m in FIVE}
    return reads, lambda got: cost_rows(cfg, got, target=0.6)


def table2(base):
    """Cost and accuracy trained to convergence (patience 6)."""
    cfg = base.cfg(model="resnet20", n_clients=10, sample_ratio=0.4,
                   beta=0.3)
    reads = {m: log(cfg, m, 12, stop={"patience": 6})
             for m in ("fedavg", "fednova", "scaffold", "spatl")}
    return reads, lambda got: cost_rows(cfg, got, target=None)


def inference(base):
    """FLOPs cut of the clients' salient sub-networks."""
    cfg = base.cfg(model="resnet20", n_clients=6, sample_ratio=1.0,
                   selection_sparsity=0.3)
    return ({"spatl": state(cfg, "spatl", 8,
                            lambda run: inference_stats(cfg, run))},
            lambda got: got["spatl"])


def table4(base):
    """The agent against the classical pruning criteria."""
    cfg = base.cfg(model="resnet20", flops_target=0.75, n_samples=1600)
    return {}, lambda got: {r.method: r for r in pruning_comparison_table(
        cfg, 0.25, *_upto(cfg, 5, 1, 6))}


def table3(base):
    """Zero-shot and fine-tuned accuracy on held-out data."""
    cfg = base.cfg(model="resnet20", n_clients=6, sample_ratio=1.0)

    def reader(run):
        return transfer_row(cfg, run, _split(cfg, 0.25), _upto(cfg, 3)[0])

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


# ----------------------------------------------------------------- serve
def serve(base: Base, names=None) -> tuple[dict, list[dict], list[dict]]:
    """The artifacts ``names`` (default: all) at ``base``, every run
    trained once: ``{artifact: reader's value}``, a row per run and a row
    per artifact."""
    plans = {name: ARTIFACTS[name][1](base) for name in names or ARTIFACTS}
    by_key: dict[Key, list] = {}
    for name, (reads, _reader) in plans.items():
        for what, read in reads.items():
            by_key.setdefault(read.key, []).append((name, what, read))
    got = {name: {} for name in plans}
    run_rows = []
    for key, reads in by_key.items():
        at: dict[int, list] = {}
        for name, what, read in reads:
            if read.state is not None:
                at.setdefault(read.rounds, []).append((name, what, read))

        def serve_at(run, items):
            for name, what, read in items:
                got[name][what] = read.state(run)

        # a run every read of which stops by one rule stops by it, as the
        # run of that read alone would
        rules = {read.stop for *_, read in reads}
        stop = dict(rules.pop()) if len(rules) == 1 and not at else {}
        t0 = time.perf_counter()
        run = _train(key, max(read.rounds for *_, read in reads),
                     {r: functools.partial(serve_at, items=items)
                      for r, items in at.items()}, stop)
        for name, what, read in reads:
            if read.state is None:
                rounds = _stop_round(run.log["val_acc"][:read.rounds],
                                     **dict(read.stop)) or read.rounds
                got[name][what] = run.upto(rounds)
        run_rows.append({"name": label(key, base),
                         "rounds": run.log.meta["rounds_run"],
                         "wall_s": round(time.perf_counter() - t0, 3),
                         "reads": sorted({name for name, *_ in reads})})
    results, artifact_rows = {}, []
    for name, (reads, reader) in plans.items():
        t0 = time.perf_counter()
        results[name] = reader({what: got[name][what] for what in reads})
        artifact_rows.append({
            "name": name, "section": ARTIFACTS[name][0],
            "reader_s": round(time.perf_counter() - t0, 3),
            "reads": sorted(f"{label(read.key, base)}@{read.rounds}"
                            for read in reads.values())})
    _split.cache_clear()        # the held-out data lives one serve long
    return results, run_rows, artifact_rows
