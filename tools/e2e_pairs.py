#!/usr/bin/env python3
"""Interleaved parent/change pairs of end-to-end workloads.

    python tools/e2e_pairs.py --ref HEAD --workload spatl_scale_int8 \\
        [--workload fedavg_vgg11_dense ...] [--seed 0] [--pairs 10] \\
        [--layer nn.pooling.forward_s ...]

Exports ``--ref`` into a temporary directory with ``git archive`` and
runs ``benchmarks/e2e/run.py --workload W --seed S --trace 0`` there
("parent") and in this working tree ("change"), ``--pairs`` times per
workload, alternating which side runs first so a drift of the box hits
both sides alike.  ``--workload`` may be repeated; the workloads run one
after another.  For each, prints a table of every ``BENCHMARK.json``
end-to-end metric, plus ``round_s`` and ``final_val_acc``: both sides'
median and interquartile range and the change's wins / ties / losses by
the metric's direction; then whether the state fingerprint was equal in
every pair.  One run at a time, so a run's peak RSS is its own.

``--layer NAME`` (repeatable, a ``BENCHMARK.json`` per-layer metric) adds
one traced run (``--trace 1``) per side after a workload's pairs and
prints each named layer metric for both sides, so a claim shows the layer
it says it moved with the same tool as its end-to-end row.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
EXTRA = [("round_s", "lower"), ("final_val_acc", "higher")]


def export(ref: str, dest: Path) -> None:
    """Write the tree of ``ref`` into ``dest`` (no worktree, no .git)."""
    git = subprocess.Popen(["git", "archive", ref], cwd=REPO,
                           stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=git.stdout,
                   check=True)
    git.stdout.close()
    if git.wait():
        raise SystemExit(f"git archive {ref} failed")


def run_once(root: Path, workload: str, seed: int, out: Path,
             trace: int = 0) -> dict:
    """One run of ``workload`` in checkout ``root``, untraced unless
    ``trace`` is 1; a traced run's per-layer metrics join its metrics."""
    subprocess.run([sys.executable, str(root / "benchmarks/e2e/run.py"),
                    "--workload", workload, "--seed", str(seed),
                    "--trace", str(trace), "--out", str(out)],
                   cwd=root, check=True, capture_output=True, text=True)
    record = json.loads(out.read_text())["records"][0]
    values = {name: m["value"] for name, m in
              {**record["metrics"], **record.get("layers", {})}.items()}
    return {"metrics": values, "fingerprint": record["state_fingerprint"]}


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile range)."""
    if len(values) < 2:
        return values[0], 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q3 - q1


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """One metric's row over paired runs: each side's (median, IQR) and
    the change's wins / ties / losses, pair by pair, where a win moves
    the metric in its ``better`` direction ("lower" or "higher")."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    sign = 1 if better == "lower" else -1
    pairs = list(zip(parent, change, strict=True))
    wins = sum(sign * (p - c) > 0 for p, c in pairs)
    ties = sum(p == c for p, c in pairs)
    return {"parent": spread(parent), "change": spread(change),
            "wins": wins, "ties": ties, "losses": len(pairs) - wins - ties}


def print_table(workload: str, seed: int, ref: str, metrics, runs) -> None:
    """The per-metric table of one workload's pairs."""
    n_pairs = len(runs["parent"])
    print(f"{workload} seed {seed}: {n_pairs} interleaved pairs, "
          f"parent = {ref}, change = working tree")
    print(f"{'metric':<24}{'better':<8}{'parent median (IQR)':<26}"
          f"{'change median (IQR)':<26}wins/ties/losses")
    for name, better in metrics:
        row = compare([r["metrics"][name] for r in runs["parent"]],
                      [r["metrics"][name] for r in runs["change"]], better)
        cells = ["%.4g (%.3g)" % row[side] for side in ("parent", "change")]
        print(f"{name:<24}{better:<8}{cells[0]:<26}{cells[1]:<26}"
              f"{row['wins']}/{row['ties']}/{row['losses']}")
    same = sum(p["fingerprint"] == c["fingerprint"]
               for p, c in zip(runs["parent"], runs["change"]))
    print(f"state_fingerprint equal in {same}/{n_pairs} pairs "
          f"({runs['change'][0]['fingerprint']:#x})")


def _cell(value: float | None) -> str:
    return "-" if value is None else "%.4g" % value


def print_layers(workload: str, layers: list[str], traced: dict) -> None:
    """Each named per-layer metric of one traced run per side ("-" where
    a side's record lacks it)."""
    print(f"{workload}: one traced run per side")
    print(f"{'layer metric':<32}{'parent':<12}{'change':<12}change/parent")
    for name in layers:
        parent, change = (traced[side]["metrics"].get(name)
                          for side in ("parent", "change"))
        ratio = change / parent if parent and change is not None else None
        print(f"{name:<32}{_cell(parent):<12}{_cell(change):<12}"
              f"{_cell(ratio)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--ref", required=True,
                        help="git ref of the parent side")
    parser.add_argument("--workload", required=True, action="append",
                        help="workload to pair (repeatable)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--layer", action="append", default=[],
                        help="per-layer metric to show from one traced run "
                             "per side (repeatable)")
    args = parser.parse_args(argv)

    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["better"]) for m in bench["end_to_end"]] + EXTRA
    unknown = sorted(set(args.layer) - {m["name"] for m in bench["per_layer"]})
    if unknown:
        parser.error(f"--layer {', '.join(unknown)}: not a per-layer metric "
                     "of BENCHMARK.json")
    with tempfile.TemporaryDirectory(prefix="e2e-pairs-") as tmp:
        parent_root = Path(tmp) / "parent"
        parent_root.mkdir()
        export(args.ref, parent_root)
        roots = {"parent": parent_root, "change": REPO}
        for w, workload in enumerate(args.workload):
            runs: dict[str, list[dict]] = {"parent": [], "change": []}
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 \
                    else ("change", "parent")
                for side in order:
                    runs[side].append(run_once(roots[side], workload,
                                               args.seed,
                                               Path(tmp) / "out.json"))
                print(f"{workload}: pair {i + 1}/{args.pairs} done",
                      file=sys.stderr)
            if w:
                print()
            print_table(workload, args.seed, args.ref, metrics, runs)
            if args.layer:
                traced = {side: run_once(roots[side], workload, args.seed,
                                         Path(tmp) / "out.json", trace=1)
                          for side in ("parent", "change")}
                print_layers(workload, args.layer, traced)
            sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
