"""Command-line entry point: run any paper experiment by name.

Usage::

    python -m repro.cli list
    python -m repro.cli learning-efficiency --scale tiny --model resnet20
    python -m repro.cli table1 --target 0.6 --clients 6
    python -m repro.cli ablation-gradctl --rounds 12
    python -m repro.cli all --scale tiny          # everything, sequentially

Each command prints the same rows/series its paper counterpart reports and
exits non-zero on failure, so the CLI doubles as a smoke harness.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.experiments import (ablation_gradient_control, ablation_selection,
                               ablation_transfer, async_convergence,
                               config_for, fault_degradation_curve,
                               inference_acceleration_table,
                               learning_efficiency_curves,
                               local_accuracy_figure,
                               pruning_comparison_table, render_fault_table,
                               rl_finetune_figure,
                               render_async_table, rounds_to_target_figure,
                               table1_target_cost, table2_convergence,
                               transferability_table)
from repro.fl import AsyncConfig, AsyncFederatedRunner, AsyncProfile
from repro.experiments.communication import render_cost_table
from repro.experiments.configs import (make_algorithm, make_dataset,
                                       make_setting)
from repro.experiments.inference import render_inference_table
from repro.experiments.learning_efficiency import converge_accuracy_summary
from repro.experiments.pruning_compare import render_pruning_table
from repro.obs import (MetricsRegistry, Tracer, downlink_line, get_registry,
                       get_tracer, hotspot_table, round_timeline_table,
                       set_registry, set_tracer, step_compiler_line,
                       transfer_byte_totals)


def _cfg(args, **extra):
    overrides = dict(model=args.model, n_clients=args.clients,
                     sample_ratio=args.sample_ratio, seed=args.seed,
                     fault_drop_prob=args.fault_drop,
                     fault_corrupt_prob=args.fault_corrupt,
                     fault_straggler_prob=args.fault_straggler,
                     fault_slowdown=args.fault_slowdown,
                     fault_timeout=args.fault_timeout,
                     fault_crash_prob=args.fault_crash,
                     fault_retries=args.fault_retries,
                     fault_seed=args.fault_seed,
                     min_clients=args.min_clients,
                     workers=args.workers,
                     compile=args.compile,
                     quant_bits=args.quant_bits, quant_block=args.quant_block,
                     quant_ef=not args.no_quant_ef,
                     mask_density=args.mask_density)
    if args.rounds:
        overrides["rounds"] = args.rounds
    overrides.update(extra)
    return config_for(args.scale, **overrides)


def cmd_learning_efficiency(args) -> None:
    """Fig. 3: accuracy-vs-round curves for all methods."""
    cfg = _cfg(args)
    results = learning_efficiency_curves(cfg)
    print(json.dumps({m: [round(a, 4) for a in log["val_acc"]]
                      for m, log in results.items()}, indent=2))
    print("converged:", {k: round(v, 4) for k, v in
                         converge_accuracy_summary(results).items()})


def cmd_table1(args) -> None:
    """Table I: cost to reach a target accuracy."""
    cfg = _cfg(args)
    rows = table1_target_cost(cfg, target=args.target)
    print(render_cost_table(rows, f"Table I: cost to {args.target:.0%}"))


def cmd_table2(args) -> None:
    """Table II: train-to-convergence cost and accuracy."""
    cfg = _cfg(args)
    rows = table2_convergence(cfg, patience=args.patience)
    print(render_cost_table(rows, "Table II: train to convergence"))


def cmd_train_rounds(args) -> None:
    """Rounds-to-target figure."""
    cfg = _cfg(args)
    print(json.dumps({m: {str(t): v for t, v in hits.items()}
                      for m, hits in rounds_to_target_figure(cfg).items()},
                     indent=2))


def cmd_local_accuracy(args) -> None:
    """Per-client accuracy figure (SPATL vs SCAFFOLD)."""
    cfg = _cfg(args)
    print(json.dumps(local_accuracy_figure(cfg), indent=2))


def cmd_inference(args) -> None:
    """Inference-acceleration (FLOPs) table."""
    cfg = _cfg(args)
    result = inference_acceleration_table(cfg)
    print(render_inference_table([result]))


def cmd_transfer(args) -> None:
    """Table III: transferability to held-out data."""
    cfg = _cfg(args)
    print(json.dumps(transferability_table(cfg), indent=2))


def cmd_pruning(args) -> None:
    """Table IV: pruning-method comparison."""
    cfg = _cfg(args)
    print(render_pruning_table(pruning_comparison_table(cfg)))


def cmd_ablation_selection(args) -> None:
    """Fig. 4 ablation: selection on/off."""
    _print_ablation(ablation_selection(_cfg(args)))


def cmd_ablation_transfer(args) -> None:
    """Fig. 5(a) ablation: transfer on/off."""
    _print_ablation(ablation_transfer(_cfg(args, beta=0.2)))


def cmd_ablation_gradctl(args) -> None:
    """Fig. 5(b) ablation: gradient control on/off."""
    _print_ablation(ablation_gradient_control(_cfg(args, sample_ratio=0.5)))


def cmd_fault_tolerance(args) -> None:
    """Degradation experiment: accuracy vs injected failure rate."""
    cfg = _cfg(args)
    rates = tuple(args.fault_rates) if args.fault_rates else (0.0, 0.1, 0.3)
    results = fault_degradation_curve(cfg, drop_probs=rates,
                                      corrupt_prob=args.fault_corrupt or 0.02)
    print(render_fault_table(results))


def cmd_rl_finetune(args) -> None:
    """Fig. 6: agent pretrain/finetune rewards."""
    cfg = _cfg(args, model="resnet56")
    result = rl_finetune_figure(cfg)
    print("pretrain rewards:",
          [round(r, 3) for r in result["pretrain_rewards"]])
    print("finetune rewards:",
          [round(r, 3) for r in result["finetune_rewards"]])


def _async_profile(args) -> AsyncProfile:
    """Build the seeded latency/availability profile from CLI flags."""
    return AsyncProfile(
        mean_latency=args.async_latency, jitter=args.async_jitter,
        straggler_prob=args.async_straggler, slowdown=args.async_slowdown,
        arrival_spread=args.async_spread, churn_prob=args.async_churn,
        crash_prob=args.async_crash, duplicate_prob=args.async_duplicate,
        seed=args.async_seed if args.async_seed is not None else args.seed)


def _async_config(args, n_clients: int) -> AsyncConfig:
    """Build the async server config from CLI flags (cohort-sized caps)."""
    return AsyncConfig(
        buffer_k=(args.buffer_k if args.buffer_k is not None
                  else max(2, n_clients // 4)),
        staleness_alpha=args.staleness_alpha,
        max_inflight=(args.max_inflight if args.max_inflight is not None
                      else n_clients),
        max_queue=args.max_queue if args.max_queue is not None else n_clients,
        commit_deadline=args.commit_deadline)


def cmd_async_convergence(args) -> None:
    """Sync vs async convergence against virtual wall-time (DESIGN.md §12)."""
    cfg = _cfg(args)
    result = async_convergence(
        cfg, algorithm=args.algorithm, profile=_async_profile(args),
        async_config=_async_config(args, cfg.n_clients),
        max_steps=args.async_steps)
    print(render_async_table(result))
    print("async summary:",
          json.dumps(result["async"]["summary"], indent=2))


def cmd_scale(args) -> None:
    """Population-scale rounds: virtual clients over a spill-to-disk
    client-state store and streaming fold aggregation (DESIGN.md §13).
    Byte-identical to the materialized baseline round loop, under
    ``--fault-*`` / ``--min-clients`` too."""
    import tempfile

    from repro.data import dirichlet_partition
    from repro.fl import (ClientStateStore, ScaleRunner,
                          ShardedClientFactory, VirtualClientPool)
    from repro.models import build_model
    from repro.obs import observe_peak_rss

    cfg = _cfg(args, n_clients=args.population)
    ds = make_dataset(cfg)
    parts = dirichlet_partition(ds.y, args.population, beta=cfg.beta,
                                seed=cfg.seed)
    store_dir = args.store_dir or tempfile.mkdtemp(prefix="repro-scale-")
    store = ClientStateStore(store_dir)
    pool = VirtualClientPool(
        ShardedClientFactory(dataset=ds, parts=parts,
                             batch_size=cfg.batch_size, seed=cfg.seed),
        args.population, store, resident_limit=args.resident)
    del ds      # the samples are in the store directory now
    in_size = cfg.input_size

    def model_fn():
        return build_model(cfg.model, num_classes=cfg.num_classes,
                           input_size=in_size, width_mult=cfg.width_mult,
                           seed=cfg.seed + 1)

    algo = make_algorithm(args.algorithm, cfg, model_fn, pool.clients())
    # Full (per-client) evaluation is O(population) forward passes;
    # large populations report loss only.
    eval_mode = "full" if args.population <= 256 else "none"
    runner = ScaleRunner(algo, pool=pool, eval_mode=eval_mode)
    try:
        for r in runner.run(cfg.rounds):
            line = (f"round {r.round_idx:3d}  loss={r.avg_train_loss:.4f}  "
                    f"acc={r.avg_val_acc:.4f}  updates={r.n_participants}  "
                    f"bytes={r.round_bytes}")
            if algo.fault_model is not None:
                line += (f"  dropped={r.n_dropped}  retries={r.n_retries}  "
                         f"corrupt={r.n_corrupt}  resamples={r.n_resamples}  "
                         f"committed={r.committed}")
            print(line)
    finally:
        algo.close()
    counters = get_registry().snapshot()["counters"]
    faults = ({"fault_totals": algo.fault_stats.as_dict()}
              if algo.fault_model is not None else {})
    print(json.dumps({
        "population": args.population,
        "store_dir": store.root, "store_entries": len(store),
        "store_bytes": store.nbytes, "resident_clients": pool.resident,
        "materializations": counters.get("scale.materializations", 0),
        "evictions": counters.get("scale.evictions", 0),
        "peak_rss_bytes": observe_peak_rss(), **faults,
    }, indent=2))


def _ledger_sum(direction: dict[int, dict[int, int]]) -> int:
    """Bytes of one ledger direction (``{round: {client: bytes}}``)."""
    return sum(sum(per_client.values()) for per_client in direction.values())


def cmd_profile(args) -> None:
    """Trace + profile a few rounds; print timeline and hotspot tables.

    The run records into a registry of its own, so the tables cover this
    run alone (pool workers' ops included); it is merged into the global
    registry afterwards.  The arena columns are this process's deltas.
    """
    from repro.tensor import workspace
    cfg = _cfg(args, rounds=args.rounds or 2)
    tracer = get_tracer()
    own_tracer = not tracer.enabled   # under `all --trace-out` reuse outer
    previous = None
    if own_tracer:
        tracer = Tracer()
        previous = set_tracer(tracer)
    registry = MetricsRegistry()
    outer_registry = set_registry(registry)
    ws_before = workspace.stats_snapshot()
    algo = None
    try:
        model_fn, clients = make_setting(cfg)
        algo = make_algorithm(args.algorithm, cfg, model_fn, clients)
        if args.use_async:
            runner = AsyncFederatedRunner(algo, _async_profile(args),
                                          _async_config(args, cfg.n_clients))
            runner.run(steps=args.async_steps or cfg.rounds)
            runner.finalize()
        else:
            algo.run(cfg.rounds)
    finally:
        if algo is not None:
            algo.close()
        set_registry(outer_registry)
        outer_registry.merge(registry)
        if own_tracer:
            set_tracer(previous)
    snapshot = registry.snapshot()
    print(round_timeline_table(tracer))
    print()
    print(hotspot_table(snapshot, n=12,
                        workspace=workspace.stats_since(ws_before)))
    counters = snapshot["counters"]
    if cfg.compile:
        print(step_compiler_line(tracer, counters))
    print(downlink_line(counters))
    spans = transfer_byte_totals(tracer)
    ledger = {"download": algo.ledger.downlink, "upload": algo.ledger.uplink}
    print("transfer bytes: " + " ".join(
        f"{d}={int(spans[d])} (ledger {_ledger_sum(ledger[d])})"
        for d in ("download", "upload")))
    held = {**workspace.resident_bytes(), **workspace.shared_bytes()}
    top = sorted(held, key=held.get, reverse=True)
    print(f"arena MB resident ({workspace.transient.nbytes / 1e6:.1f} in the "
          f"transient stack): "
          + " ".join(f"{k}={held[k] / 1e6:.1f}" for k in top))
    if own_tracer:
        if args.trace_out:
            _export_trace(tracer, args.trace_out)
        if args.metrics_out:
            _export_metrics(args.metrics_out)


def _export_trace(tracer, path: str) -> None:
    """Write a trace as Chrome trace-event JSON (or JSONL for ``.jsonl``)."""
    if str(path).endswith(".jsonl"):
        tracer.save_jsonl(path)
    else:
        tracer.save_chrome_trace(path)
    print(f"trace written to {path}", file=sys.stderr)


def _export_metrics(path: str) -> None:
    """Dump the global metrics registry snapshot as JSON.

    Folds the workspace-arena hit/miss/bytes-saved counters into the
    registry first, so exported metrics always carry the arena traffic
    of the run (DESIGN.md §10).
    """
    from repro.tensor import workspace
    workspace.publish_metrics(get_registry())
    with open(path, "w") as fh:
        fh.write(get_registry().to_json() + "\n")
    print(f"metrics written to {path}", file=sys.stderr)


def _print_ablation(results) -> None:
    for name, log in results.items():
        print(f"{name:26s} {[round(a, 3) for a in log['val_acc']]}")


COMMANDS = {
    "learning-efficiency": cmd_learning_efficiency,
    "table1": cmd_table1,
    "table2": cmd_table2,
    "train-rounds": cmd_train_rounds,
    "local-accuracy": cmd_local_accuracy,
    "inference": cmd_inference,
    "transfer": cmd_transfer,
    "pruning": cmd_pruning,
    "ablation-selection": cmd_ablation_selection,
    "ablation-transfer": cmd_ablation_transfer,
    "ablation-gradctl": cmd_ablation_gradctl,
    "rl-finetune": cmd_rl_finetune,
    "fault-tolerance": cmd_fault_tolerance,
    "async-convergence": cmd_async_convergence,
    "scale": cmd_scale,
    "profile": cmd_profile,
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (one subcommand per experiment)."""
    parser = argparse.ArgumentParser(prog="repro",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("command", choices=list(COMMANDS) + ["list", "all"])
    parser.add_argument("--scale", default="tiny",
                        choices=["tiny", "small", "paper"])
    parser.add_argument("--model", default="resnet20")
    parser.add_argument("--clients", type=int, default=6)
    parser.add_argument("--sample-ratio", type=float, default=0.7)
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--target", type=float, default=0.6)
    parser.add_argument("--patience", type=int, default=5)
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for the per-client round loop "
                             "(1 = in-process serial executor; N>1 fans "
                             "clients over N processes, byte-identical "
                             "results — see DESIGN.md §9/§14)")
    parser.add_argument("--compile", action="store_true",
                        help="trace-and-replay step compiler (DESIGN.md "
                             "§15): capture each local training step once "
                             "per (model, batch-signature), then replay it "
                             "with static memory planning and fused "
                             "elementwise kernels.  Byte-identical to the "
                             "eager loop; unsupported steps fall back "
                             "automatically.")
    quant = parser.add_argument_group(
        "quantized transport",
        "Low-bit stochastic uplink codec with per-client error feedback "
        "(DESIGN.md §16); the default --quant-bits 32 keeps the dense "
        "fp32 wire byte-identical to the unquantized path.")
    quant.add_argument("--quant-bits", type=int, default=32,
                       choices=[32, 16, 8, 4],
                       help="uplink bits per value: 32 = off, 16 = fp16 "
                            "records, 8/4 = stochastic integer codec "
                            "(int4 nibble-packed two values per byte)")
    quant.add_argument("--quant-block", type=int, default=0,
                       help="values per quantization scale block "
                            "(0 = one float32 scale per tensor)")
    quant.add_argument("--no-quant-ef", action="store_true",
                       help="disable error feedback (per-client residuals "
                            "of the rounding error, folded into the next "
                            "round's upload)")
    quant.add_argument("--mask-density", type=float, default=0.3,
                       help="kept fraction per tensor for the "
                            "sparse-at-init algorithms (salientgrads, "
                            "ssfl)")
    faults = parser.add_argument_group(
        "fault injection",
        "Seeded failure simulation; all defaults leave the fault path off "
        "entirely (runs stay byte-identical to the fault-free protocol).")
    faults.add_argument("--fault-drop", type=float, default=0.0,
                        help="per-attempt client drop probability")
    faults.add_argument("--fault-corrupt", type=float, default=0.0,
                        help="per-transfer bit-corruption probability")
    faults.add_argument("--fault-straggler", type=float, default=0.0,
                        help="per-attempt straggler probability")
    faults.add_argument("--fault-slowdown", type=float, default=4.0,
                        help="max straggler slowdown factor")
    faults.add_argument("--fault-timeout", type=float, default=None,
                        help="server deadline in epoch-units (off by default)")
    faults.add_argument("--fault-crash", type=float, default=0.0,
                        help="mid-training crash probability")
    faults.add_argument("--fault-retries", type=int, default=2,
                        help="extra attempts per client before dropping it")
    faults.add_argument("--fault-seed", type=int, default=None,
                        help="fault RNG seed (defaults to --seed)")
    faults.add_argument("--min-clients", type=int, default=1,
                        help="quorum: min surviving updates to commit a round")
    faults.add_argument("--fault-rates", type=float, nargs="+", default=None,
                        help="drop rates swept by the fault-tolerance command")
    asyn = parser.add_argument_group(
        "asynchronous runtime",
        "Event-driven buffered-aggregation server on a deterministic "
        "virtual clock (DESIGN.md §12); used by the async-convergence "
        "command and by profile when --async is given.")
    asyn.add_argument("--async", dest="use_async", action="store_true",
                      help="profile the async runtime instead of the "
                           "synchronous round loop")
    asyn.add_argument("--buffer-k", type=int, default=None,
                      help="updates buffered before a commit (default "
                           "cohort/4; == cohort reproduces sync bitwise)")
    asyn.add_argument("--staleness-alpha", type=float, default=0.5,
                      help="staleness discount exponent in 1/(1+s)^alpha")
    asyn.add_argument("--max-inflight", type=int, default=None,
                      help="admission control: max concurrent client jobs "
                           "(default: cohort size)")
    asyn.add_argument("--max-queue", type=int, default=None,
                      help="arrivals parked beyond max-inflight before "
                           "rejection (default: cohort size)")
    asyn.add_argument("--commit-deadline", type=float, default=None,
                      help="virtual time from first buffered update to a "
                           "forced commit (off by default)")
    asyn.add_argument("--async-steps", type=int, default=None,
                      help="server commits to run (default: matches the "
                           "sync run's update count)")
    asyn.add_argument("--async-latency", type=float, default=1.0,
                      help="mean virtual seconds per local epoch")
    asyn.add_argument("--async-jitter", type=float, default=0.2,
                      help="+/- uniform fraction on each job duration")
    asyn.add_argument("--async-straggler", type=float, default=0.3,
                      help="per-job straggler probability")
    asyn.add_argument("--async-slowdown", type=float, default=6.0,
                      help="max straggler slowdown factor")
    asyn.add_argument("--async-spread", type=float, default=0.5,
                      help="first arrivals spread uniformly in [0, spread]")
    asyn.add_argument("--async-churn", type=float, default=0.0,
                      help="per-upload churn probability (client leaves)")
    asyn.add_argument("--async-crash", type=float, default=0.0,
                      help="per-job mid-flight crash probability")
    asyn.add_argument("--async-duplicate", type=float, default=0.0,
                      help="per-upload duplicate-delivery probability")
    asyn.add_argument("--async-seed", type=int, default=None,
                      help="async profile RNG seed (defaults to --seed)")
    scale = parser.add_argument_group(
        "population scale",
        "Virtual-client simulation over a spill-to-disk state store with "
        "streaming fold aggregation (DESIGN.md §13); used by the scale "
        "command.  Byte-identical to the materialized round loop.")
    scale.add_argument("--population", type=int, default=32,
                       help="virtual-client population size (clients are "
                            "materialized lazily per round, never all at "
                            "once)")
    scale.add_argument("--store-dir", default=None, metavar="DIR",
                       help="directory for the sharded client-state store, "
                            "the clients' samples and spill files "
                            "(default: a fresh temp dir)")
    scale.add_argument("--resident", type=int, default=64,
                       help="max clients held in memory at once (LRU; "
                            "evicted state spills to the store)")
    obs = parser.add_argument_group(
        "observability",
        "Tracing/metrics capture (repro.obs); off by default — the no-op "
        "tracer keeps the untraced path numerically byte-identical.")
    obs.add_argument("--trace-out", default=None, metavar="PATH",
                     help="write a trace of the run: Chrome trace-event "
                          "JSON, or JSONL when PATH ends in .jsonl")
    obs.add_argument("--metrics-out", default=None, metavar="PATH",
                     help="write the run's metrics snapshot as JSON")
    obs.add_argument("--algorithm", default="fedavg",
                     help="algorithm the profile/scale commands run "
                          "(default fedavg; any registered name incl. "
                          "spatl)")
    return parser


def _run_commands(args) -> None:
    """Execute the selected command (or every command for ``all``)."""
    if args.command == "all":
        for name, fn in COMMANDS.items():
            print(f"\n===== {name} =====")
            fn(args)
    else:
        COMMANDS[args.command](args)


def main(argv=None) -> int:
    """Dispatch a CLI invocation; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        print("\n".join(COMMANDS))
        return 0
    # The profile command owns its tracer (and its exports); every other
    # command gets a run-scoped tracer only when an export was requested.
    wants_obs = (args.trace_out or args.metrics_out) \
        and args.command != "profile"
    if wants_obs:
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            _run_commands(args)
        finally:
            set_tracer(previous)
        if args.trace_out:
            _export_trace(tracer, args.trace_out)
        if args.metrics_out:
            _export_metrics(args.metrics_out)
    else:
        _run_commands(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
