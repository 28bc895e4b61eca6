"""End-to-end trajectory: ``benchmarks/e2e`` reduced to one row per run.

``benchmarks/e2e/run.py`` (frozen by ``BENCHMARK.json``) measures the
five workloads untraced and traced and writes ~55 KB per seed; nothing
kept those results across commits.  This bench runs it, reduces each
(workload, seed) to one row — ``round_s``, the five ``BENCHMARK.json``
end-to-end metrics, the state fingerprint and the five layers with the
most self time in the traced pass — and appends the record to
``BENCH_e2e.json``, so the one number has a history::

    python benchmarks/bench_e2e.py            # ~4 min: all five, both passes
    python benchmarks/bench_e2e.py --smoke    # one timed unit per workload

Gated (``--check``): every output check of the run passed, no probe
went missing, and ``round_s`` stays within 1.5x of the last full record.
The regression bounds that decide a PR are ``BENCHMARK.json``'s, applied
by its driver over ten seeds; this is the trajectory, not the verdict.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from _harness import REPO, SEED, Bench, Gate

TOP_LAYERS = 5


def reduce_records(doc: dict) -> list[dict]:
    """One row per (workload, seed) of an ``e2e/run.py`` result file."""
    end_to_end = [m["name"] for m in json.loads(
        (REPO / "BENCHMARK.json").read_text())["end_to_end"]]
    runs: dict[tuple, dict] = {}
    for record in doc["records"]:
        runs.setdefault((record["workload"], record["seed"]), {})[
            "traced" if record["traced"] else "plain"] = record
    rows = []
    for (workload, seed), run in runs.items():
        plain, traced = run["plain"], run.get("traced", {})
        layers = traced.get("layers", {})
        # A layer's self time where the table records one (the container
        # spans), else its busy time (the leaf kernels and codecs).
        own = {name.removesuffix(".self_s").removesuffix("_s"): m["value"]
               for name, m in layers.items()
               if name.endswith("_s") and f"{name[:-2]}.self_s" not in layers}
        top = sorted(own.items(), key=lambda kv: -kv[1])[:TOP_LAYERS]
        rows.append({
            "name": f"{workload}/seed{seed}", "units": plain["units"],
            "round_s": round(plain["metrics"]["round_s"]["value"], 4),
            **{name: round(plain["metrics"][name]["value"], 6)
               for name in end_to_end},
            "state_fingerprint": plain["state_fingerprint"],
            "correct": all(r["correct"] for r in run.values()),
            "probes_missing": traced.get("probes_missing", []),
            "top_layers_s": {name: round(s, 4) for name, s in top}})
    return rows


def e2e_rows(size: dict):
    with tempfile.TemporaryDirectory(prefix="repro-bench-e2e-") as tmp:
        out = Path(tmp) / "e2e.json"
        cmd = [sys.executable, str(REPO / "benchmarks" / "e2e" / "run.py"),
               "--seed", str(SEED), "--out", str(out)]
        proc = subprocess.run(cmd + size["run_args"], capture_output=True,
                              text=True)
        if not out.exists():        # exit 1 with a file: a failed check,
            raise RuntimeError(     # which the rows carry as ``correct``
                f"e2e/run.py wrote no result:\n{proc.stdout[-2000:]}\n"
                f"{proc.stderr[-2000:]}")
        yield from reduce_records(json.loads(out.read_text()))


def floors(record: dict) -> list[str]:
    rows = record["rows"]
    return [f"e2e/{r['name']}: an output check failed" for r in rows
            if not r["correct"]] + \
           [f"e2e/{r['name']}: probes missing {r['probes_missing']}"
            for r in rows if r["probes_missing"]]


BENCH = Bench(
    name="e2e", doc=__doc__, cases=(("e2e", e2e_rows),),
    full=dict(run_args=[]), smoke=dict(run_args=["--smoke"]),
    gates=(Gate("e2e", "round_s"),), floors=floors)


def main(argv=None) -> int:
    return BENCH.main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
