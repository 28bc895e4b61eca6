"""End-to-end trajectory: interleaved parent/change pairs of benchmarks/e2e.

Exports ``--ref`` with ``git archive``, then per workload runs the frozen
``benchmarks/e2e/run.py --trace 0`` ``--pairs`` times there ("parent")
and in this working tree ("change"), alternating which side goes first,
and one ``--trace 1`` run per side for the probes, the top layers and each
``--layer`` metric, one run at a time.  A clean tree against the default
``--ref HEAD`` is an A/A pair: every commit can append its row to
``BENCH_e2e.json``.  ``--check`` judges this run's own pairs, never an
older record's (:func:`pair_checks`)::

    python benchmarks/bench_e2e.py --check        # all five, 10 pairs each
    python benchmarks/bench_e2e.py --ref <sha> --workload W --layer NAME
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from _harness import REPO, SEED, Bench

TOP_LAYERS = 5
SIDES = ("parent", "change")
#: Largest median change/parent CPU-second ratio, gated where the parent's
#: IQR is at most DELTA of its median: a 10 % slower local update adds
#: 6.9-7.2 % on three workloads, but a shared 2-core box spreads 10-26 %.
DELTA = 0.05


def benchmark() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


def metrics() -> list[tuple[str, str, float | None]]:
    """``(name, better, bound)``: ``BENCHMARK.json``'s end-to-end metrics
    (bound: a share of the parent median), then four per-layer ones bound
    here: ``failed_ops_ratio`` may not rise at all."""
    spec, own = benchmark(), {"round_s": None, "final_val_acc": None,
                              "cpu_s_total": DELTA, "failed_ops_ratio": 0.0}
    return [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        + [(m["name"], m["better"], own[m["name"]]) for m in spec["per_layer"]
           if m["name"] in own]


def resolve(ref: str) -> str:
    """The sha of commit ``ref``, checked before anything is exported."""
    proc = subprocess.run(["git", "rev-parse", "--verify", "--quiet",
                           f"{ref}^{{commit}}"], cwd=REPO,
                          capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"--ref {ref}: not a commit of this repository")
    return proc.stdout.strip()


def export(sha: str, dest: Path) -> None:
    """Write the tree of commit ``sha`` into ``dest`` (no .git)."""
    archive = subprocess.run(["git", "archive", sha], cwd=REPO,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_once(root: Path, workload: str, seed: int, out: Path, trace: int,
             smoke: bool, what: str) -> dict:
    """One run of ``workload`` in checkout ``root``; a traced run's
    per-layer metrics join its metrics.  A crash raises naming ``what``
    (workload, side, pair) with the tail of the run's stderr."""
    out.unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, str(root / "benchmarks/e2e/run.py"),
         "--workload", workload, "--seed", str(seed), "--trace", str(trace),
         "--out", str(out)] + ["--smoke"] * smoke,
        cwd=root, capture_output=True, text=True)
    if proc.returncode or not out.exists():
        raise RuntimeError(f"{what}: run.py exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    record = json.loads(out.read_text())["records"][0]
    layers = {k: m["value"] for k, m in record.get("layers", {}).items()}
    # A layer's self time where the table records one (the container
    # spans), else its busy time (the leaf kernels and codecs).
    own = sorted(((name.removesuffix(".self_s").removesuffix("_s"), s)
                  for name, s in layers.items() if name.endswith("_s")
                  and f"{name[:-2]}.self_s" not in layers),
                 key=lambda kv: -kv[1])[:TOP_LAYERS]
    return {"metrics": {**{name: m["value"] for name, m
                           in record["metrics"].items()}, **layers},
            "fingerprint": record["state_fingerprint"],
            "units": record["units"], "correct": record["correct"],
            "probes_missing": record.get("probes_missing", []),
            "top_layers_s": {name: round(s, 4) for name, s in own}}


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile range)."""
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
    return statistics.median(values), q3 - q1


def compare(parent: list[float], change: list[float], better: str,
            bound: float | None = None) -> dict:
    """One metric over paired runs: each side's (median, IQR), the median
    change/parent ratio (None where a parent reads 0), the change's wins /
    ties / losses in the ``better`` direction ("lower" or "higher") and a
    verdict.  ``gain``: >= 10 pairs, >= 9/10 wins and the medians differ by
    more than the parent's IQR; ``worse``: the change's median is worse by
    more than ``bound`` x the parent's; ``unresolved``: the parent's IQR is
    wider than that and some change run does not beat every parent run."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    sign = 1 if better == "lower" else -1
    pairs = list(zip(parent, change, strict=True))
    wins = sum(sign * (p - c) > 0 for p, c in pairs)
    ties = sum(p == c for p, c in pairs)
    (base, iqr), (now, now_iqr) = spread(parent), spread(change)
    limit = float("inf") if bound is None else bound * abs(base)
    verdict = ("gain" if len(pairs) >= 10 and wins >= 0.9 * len(pairs)
               and sign * (base - now) > iqr
               else "worse" if sign * (now - base) > limit
               else "unresolved" if iqr > limit and not all(
                   sign * (p - c) > 0 for p in parent for c in change)
               else "same")
    return {"better": better, "parent": (base, iqr), "change": (now, now_iqr),
            "ratio": round(statistics.median(c / p for p, c in pairs), 4)
            if all(p for p, _ in pairs) else None, "wins": wins,
            "ties": ties, "losses": len(pairs) - wins - ties,
            "verdict": verdict}


def pair_row(workload: str, seed: int, runs: dict, traced: dict,
             layers: list[str]) -> dict:
    """The record's row of one workload's pairs and traced runs."""
    change = runs["change"] + [traced["change"]]
    row = {
        "name": f"{workload}/seed{seed}", "units": change[0]["units"],
        "pairs": len(runs["change"]),
        "fingerprints_equal": sum(p["fingerprint"] == c["fingerprint"] for
                                  p, c in zip(runs["parent"], runs["change"])),
        "state_fingerprint": change[0]["fingerprint"],
        # with run.py's traced-equals-untraced check, which one pass skips
        "correct": all(r["correct"] for r in change)
        and len({r["fingerprint"] for r in change}) == 1,
        "probes_missing": traced["change"]["probes_missing"],
        "metrics": {name: compare(*([r["metrics"][name] for r in runs[side]]
                                    for side in SIDES), better, bound)
                    for name, better, bound in metrics()},
        "top_layers_s": traced["change"]["top_layers_s"]}
    if layers:
        row["layers"] = {name: [traced[side]["metrics"].get(name)
                                for side in SIDES] for name in layers}
    return row


def _cell(value: float | None) -> str:
    return "-" if value is None else "%.4g" % value


def print_row(row: dict, ref: str) -> None:
    """The per-metric table of one workload's pairs, then each ``--layer``
    metric of the traced runs ("-" where a side's record lacks it)."""
    print(f"{row['name']}: {row['pairs']} interleaved pairs, parent = {ref}, "
          "change = working tree")
    print(f"{'metric':<24}{'better':<8}{'parent median (IQR)':<24}"
          f"{'change median (IQR)':<24}{'ratio':<8}{'w/t/l':<9}verdict")
    for name, m in row["metrics"].items():
        cells = ["%.4g (%.3g)" % tuple(m[side]) for side in SIDES]
        wtl = f"{m['wins']}/{m['ties']}/{m['losses']}"
        print(f"{name:<24}{m['better']:<8}{cells[0]:<24}{cells[1]:<24}"
              f"{_cell(m['ratio']):<8}{wtl:<9}{m['verdict']}")
    print(f"state_fingerprint equal in {row['fingerprints_equal']}/"
          f"{row['pairs']} pairs ({row['state_fingerprint']:#x})")
    base, iqr = row["metrics"]["cpu_s_total"]["parent"]
    print(f"cpu_s_total parent IQR {iqr / base:.1%} of its median: "
          f"{'' if iqr <= DELTA * base else 'un'}resolved at DELTA {DELTA}")
    for name, (parent, change) in row.get("layers", {}).items():
        ratio = change / parent if parent and change is not None else None
        print(f"{name:<32}{_cell(parent):<12}{_cell(change):<12}"
              f"{_cell(ratio)}")


def e2e_rows(size: dict):
    smoke, seed = size["smoke"], size["seed"]
    n_pairs = 1 if smoke else size["pairs"]
    with tempfile.TemporaryDirectory(prefix="repro-bench-e2e-") as tmp:
        roots = {"parent": Path(tmp) / "parent", "change": REPO}
        roots["parent"].mkdir()
        export(size["ref"], roots["parent"])
        out = Path(tmp) / "out.json"
        for workload in size["workload"] or [
                w["name"] for w in benchmark()["workloads"]]:
            runs: dict[str, list[dict]] = {side: [] for side in SIDES}
            for i in range(n_pairs):
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    what = f"{workload} {side} pair {i + 1}/{n_pairs}"
                    runs[side].append(run_once(roots[side], workload, seed,
                                               out, 0, smoke, what))
                    # on screen before a later run can crash the bench
                    print(f"{what}: " + " ".join(
                        f"{k}={runs[side][-1]['metrics'][k]:.6g}" for k, *_
                        in metrics()), file=sys.stderr, flush=True)
            traced = {side: run_once(roots[side], workload, seed, out, 1,
                                     smoke, f"{workload} {side} traced run")
                      for side in SIDES}
            row = pair_row(workload, seed, runs, traced, size["layer"])
            print_row(row, size["ref"])
            yield row


def floors(record: dict) -> list[str]:
    """Output checks passed, no probe missing, then :func:`pair_checks`."""
    rows = record["rows"]
    return [f"e2e/{r['name']}: an output check failed" for r in rows
            if not r["correct"]] + \
           [f"e2e/{r['name']}: probes missing {r['probes_missing']}"
            for r in rows if r["probes_missing"]] + pair_checks(record)


def pair_checks(record: dict) -> list[str]:
    """What the record's own pairs must show: equal fingerprints and, on
    full runs, no ``worse`` verdict on a ``BENCHMARK.json`` metric or
    ``failed_ops_ratio``, nor a resolved CPU-second ratio > 1 + DELTA."""
    failures = []
    for row in record["rows"]:
        name, m = f"e2e/{row['name']}", row["metrics"]
        if row["fingerprints_equal"] != row["pairs"]:
            failures.append(f"{name}: state fingerprint equal in "
                            f"{row['fingerprints_equal']}/{row['pairs']}")
        if record["smoke"]:
            continue
        failures += [f"{name}: {k} worse than the parent by more than its "
                     f"bound ({v['parent'][0]:.4g} -> {v['change'][0]:.4g})"
                     for k, v in m.items()
                     if v["verdict"] == "worse" and k != "cpu_s_total"]
        cpu, (base, iqr) = m["cpu_s_total"], m["cpu_s_total"]["parent"]
        if (cpu["ratio"] or 0) > 1 + DELTA and iqr <= DELTA * base:
            failures.append(f"{name}: median CPU-second ratio "
                            f"{cpu['ratio']} > {1 + DELTA}")
    return failures


def flags(parser) -> None:
    parser.add_argument("--ref", default="HEAD", type=resolve,
                        help="parent commit (default HEAD: A/A when clean)")
    parser.add_argument("--workload", action="append", help="default: all",
                        choices=[w["name"] for w in benchmark()["workloads"]])
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--pairs", type=int, default=10, help="--smoke: 1")
    parser.add_argument("--layer", action="append", default=[],
                        choices=[m["name"] for m in benchmark()["per_layer"]],
                        metavar="NAME", help="traced per-layer metric")


BENCH = Bench(
    name="e2e", doc=__doc__, cases=(("e2e", e2e_rows),),
    full=dict(smoke=False), smoke=dict(smoke=True),
    floors=floors, flags=flags)
main = BENCH.main


if __name__ == "__main__":
    raise SystemExit(main())
