"""The paper's claims: one table over the artifacts' shared runs.

Every paper shape the reproduction checks (who wins, by what factor) is
a row of :data:`CLAIMS`: a claim id, its artifact (the registry
``repro <artifact>`` prints from, :mod:`repro.experiments.registry`),
the measured quantity as named operands, and the bound over them.  The
table serves every artifact at one ``Base``, each run trained once.

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
from typing import Any, Callable

from _harness import SEED, Bench

import numpy as np

from repro.experiments.registry import ARTIFACTS, Base, serve

BASE = Base("tiny", SEED)


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


def _mb(*methods):
    return lambda rows: {f"{m}_mb": _by_method(rows)[m].mb_per_round_client
                         for m in methods}


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
    Claim("table1.scaffold_2x", "table1", _mb("scaffold", "fedavg"),
          "1.6 < scaffold_mb / fedavg_mb < 2.4"),
    Claim("table1.fednova_2x", "table1", _mb("fednova", "fedavg"),
          "1.6 < fednova_mb / fedavg_mb < 2.4"),
    Claim("table1.spatl_under_scaffold", "table1", _mb("spatl", "scaffold"),
          "spatl_mb < scaffold_mb"),
    Claim("table1.spatl_cheapest_to_target", "table1", _table1_cheapest,
          "not (spatl_reached and n_reached > 1) "
          "or spatl_gb <= cheapest_gb * 1.6"),
    # Table II (§V-C): converged accuracy vs FedAvg, the 2x protocols
    Claim("table2.spatl_vs_fedavg", "table2",
          lambda rows: {"spatl_delta": _by_method(rows)["spatl"]
                        .acc_delta_vs_fedavg},
          "spatl_delta >= -0.05"),
    Claim("table2.scaffold_2x", "table2", _mb("scaffold", "fedavg"),
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
#: every artifact's value, a row per run and a row per artifact; once
_served = functools.cache(functools.partial(serve, BASE))


def run_rows(size: dict):
    yield from _served()[1]


def artifact_rows(size: dict):
    yield from _served()[2]


def claim_rows(size: dict):
    results, _, artifacts = _served()
    reads = {row["name"]: row["reads"] for row in artifacts}
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
    full=dict(scale=BASE.scale, seed=SEED),
    smoke=dict(scale=BASE.scale, seed=SEED),
    floors=floors)


def main(argv=None) -> int:
    return BENCH.main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
