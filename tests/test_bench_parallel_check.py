"""Regression gate of ``benchmarks/bench_parallel.py --check``.

The bench's :func:`check_rows` is the CI tripwire for executor
performance regressions: it must flag a byte-identity break, a process
pool slower than serial beyond the documented fan-out tolerance, and a
pool that has a core per worker yet fails to beat serial — and stay
silent on the measured-good sweep shapes.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_BENCH = Path(__file__).resolve().parent.parent / "benchmarks" \
    / "bench_parallel.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_parallel", _BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _row(executor, speedup, identical=True):
    return {"executor": executor, "speedup_vs_serial": speedup,
            "byte_identical_to_serial": identical}


def test_good_sweep_passes(bench):
    one_core = [_row("serial", 1.0), _row("process:2", 0.88)]
    assert bench.check_rows(one_core, cpus_usable=1) == []
    two_cores = [_row("serial", 1.0), _row("process:2", 1.70)]
    assert bench.check_rows(two_cores, cpus_usable=2) == []


def test_identity_break_fails(bench):
    rows = [_row("serial", 1.0), _row("process:2", 1.7, identical=False)]
    errors = bench.check_rows(rows, cpus_usable=2)
    assert len(errors) == 1 and "diverged" in errors[0]


def test_slow_process_pool_fails(bench):
    """workers>1 slower than serial beyond the fan-out tolerance trips."""
    rows = [_row("serial", 1.0), _row("process:2", 0.4)]
    errors = bench.check_rows(rows, cpus_usable=1)
    assert len(errors) == 1
    assert "process:2" in errors[0] and "below" in errors[0]


def test_vectorized_must_beat_serial(bench):
    """The must-win rule now binds the pool: the floor follows the box.

    (The id predates the vectorized engine's removal; it is a floor id.)
    """
    rows = [_row("serial", 1.0), _row("process:2", 0.97)]
    errors = bench.check_rows(rows, cpus_usable=2)   # a core per worker
    assert len(errors) == 1 and "process:2" in errors[0]
    assert "1.00x floor" in errors[0]
    assert bench.check_rows(rows, cpus_usable=1) == []   # oversubscribed
    assert bench.check_rows([_row("process:4", 0.97)], cpus_usable=2) == []


def test_spec_parsing(bench):
    assert bench.parse_spec("process:4") == {
        "spec": "process:4", "kind": "process", "workers": 4}
    assert bench.parse_spec("serial") == {
        "spec": "serial", "kind": "serial", "workers": 1}
    with pytest.raises(ValueError):
        bench.parse_spec("process")          # missing width
    with pytest.raises(ValueError):
        bench.parse_spec("process:2+shm")    # the shm transport is gone
    with pytest.raises(ValueError):
        bench.parse_spec("vectorized")       # so is the cohort engine
    with pytest.raises(ValueError):
        bench.parse_spec("threads:2")
