"""The per-metric row of ``tools/e2e_pairs.py``: medians, IQRs and the
change's wins / ties / losses by each metric's direction."""

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
