"""``tools/e2e_pairs.py``: the per-metric row (medians, IQRs and the
change's wins / ties / losses by each metric's direction) and the
``--layer`` traced runs, driven through stubs so no e2e run happens."""

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "e2e_pairs", REPO_ROOT / "tools" / "e2e_pairs.py")
e2e_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(e2e_pairs)


def test_lower_is_better_counts_ties_apart():
    row = e2e_pairs.compare([10.0, 10.0, 10.0, 12.0],
                            [9.0, 10.0, 11.0, 12.0], "lower")
    assert (row["wins"], row["ties"], row["losses"]) == (1, 2, 1)
    assert row["parent"] == (10.0, 1.5)
    assert row["change"] == (10.5, 2.5)   # exclusive quartiles 9.25, 11.75


def test_higher_is_better_flips_the_direction():
    parent, change = [0.5, 0.5, 0.6], [0.7, 0.4, 0.6]
    higher = e2e_pairs.compare(parent, change, "higher")
    lower = e2e_pairs.compare(parent, change, "lower")
    assert (higher["wins"], higher["ties"], higher["losses"]) == (1, 1, 1)
    assert (lower["wins"], lower["ties"], lower["losses"]) == (1, 1, 1)
    higher = e2e_pairs.compare([1.0, 1.0], [2.0, 3.0], "higher")
    assert (higher["wins"], higher["ties"], higher["losses"]) == (2, 0, 0)
    lower = e2e_pairs.compare([1.0, 1.0], [2.0, 3.0], "lower")
    assert (lower["wins"], lower["ties"], lower["losses"]) == (0, 0, 2)


def test_all_ties_and_one_pair():
    row = e2e_pairs.compare([3.0], [3.0], "higher")
    assert (row["wins"], row["ties"], row["losses"]) == (0, 1, 0)
    assert row["parent"] == row["change"] == (3.0, 0.0)


def test_bad_input_is_refused():
    with pytest.raises(ValueError, match="better"):
        e2e_pairs.compare([1.0], [1.0], "smaller")
    with pytest.raises(ValueError):
        e2e_pairs.compare([1.0, 2.0], [1.0], "lower")


def test_layer_adds_one_traced_run_per_side(monkeypatch, capsys):
    """``--layer`` runs one ``--trace 1`` pass per side after the pairs and
    prints the named per-layer metrics of both; no e2e run happens here:
    the export and the runner are stubs."""
    calls = []

    def fake_run(root, workload, seed, out, trace=0):
        side = "parent" if root != e2e_pairs.REPO else "change"
        calls.append((side, workload, trace))
        metrics = {"round_s": 2.0, "final_val_acc": 0.5, "setup_s": 3.0,
                   "cpu_cores_busy": 1.0, "peak_rss_mb": 100.0,
                   "uplink_mb_per_round": 1.0, "downlink_mb_per_round": 1.0}
        if trace:
            metrics["nn.pooling.forward_s"] = 2.0 if side == "parent" else 0.5
        return {"metrics": metrics, "fingerprint": 7}

    monkeypatch.setattr(e2e_pairs, "export", lambda ref, dest: None)
    monkeypatch.setattr(e2e_pairs, "run_once", fake_run)
    assert e2e_pairs.main(["--ref", "HEAD", "--workload", "w", "--pairs", "2",
                           "--layer", "nn.pooling.forward_s",
                           "--layer", "nn.conv.forward_s"]) == 0
    assert calls == [("parent", "w", 0), ("change", "w", 0),
                     ("change", "w", 0), ("parent", "w", 0),
                     ("parent", "w", 1), ("change", "w", 1)]
    out = capsys.readouterr().out
    pool = next(line for line in out.splitlines()
                if line.startswith("nn.pooling.forward_s"))
    assert pool.split() == ["nn.pooling.forward_s", "2", "0.5", "0.25"]
    conv = next(line for line in out.splitlines()
                if line.startswith("nn.conv.forward_s"))
    assert conv.split() == ["nn.conv.forward_s", "-", "-", "-"]


def test_layer_must_be_a_per_layer_metric(monkeypatch):
    monkeypatch.setattr(e2e_pairs, "export", lambda ref, dest: None)
    with pytest.raises(SystemExit) as exc:
        e2e_pairs.main(["--ref", "HEAD", "--workload", "w",
                        "--layer", "setup_s"])
    assert exc.value.code == 2
