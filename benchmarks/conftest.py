"""Benchmark-suite configuration.

Every file regenerates one table or figure of the paper (DESIGN.md §3 maps
them).  Runs use the ``tiny``/``small`` CPU scales; the paper-shape
assertions (who wins, by what factor) are checked with generous margins,
and full raw numbers are recorded in ``benchmark.extra_info`` and printed.

Besides pytest-benchmark's own output, every session appends one record of
per-test wall times to ``BENCH_obs.json`` at the repo root, through the
same writer and in the same record shape as the ``bench_*.py`` histories
(``_harness.py``) — a machine-readable perf trajectory that accumulates
across sessions, so regressions show up as history instead of anecdotes.

Environment knobs:

- ``REPRO_BENCH_SCALE``  — ``tiny`` (default) or ``small``.
- ``REPRO_BENCH_SEED``   — experiment seed (default 0).
- ``REPRO_BENCH_OBS``    — set to ``0`` to skip writing ``BENCH_obs.json``.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.experiments import config_for

from . import _harness

SCALE = os.environ.get("REPRO_BENCH_SCALE", "tiny")
SEED = int(os.environ.get("REPRO_BENCH_SEED", "0"))

_BENCH_OBS_PATH = _harness.REPO / "BENCH_obs.json"
_WALL_TIMES: dict[str, float] = {}


def bench_config(**overrides):
    overrides.setdefault("seed", SEED)
    return config_for(SCALE, **overrides)


@pytest.fixture
def once(benchmark, request):
    """Run the measured callable exactly once (FL rounds are minutes, not
    microseconds), attach its result to the benchmark record, and log the
    wall time into the session's ``BENCH_obs.json`` entry."""

    def runner(fn, *args, **kwargs):
        holder = {}

        def wrapped():
            holder["result"] = fn(*args, **kwargs)

        t0 = time.perf_counter()
        benchmark.pedantic(wrapped, rounds=1, iterations=1, warmup_rounds=0)
        _WALL_TIMES[request.node.nodeid] = round(time.perf_counter() - t0, 6)
        return holder["result"]

    return runner


def pytest_sessionfinish(session, exitstatus):
    """Append this session's wall times to the cumulative BENCH_obs.json."""
    if not _WALL_TIMES or os.environ.get("REPRO_BENCH_OBS", "1") == "0":
        return
    rows = [{"case": "wall", "name": nodeid, "wall_s": wall}
            for nodeid, wall in sorted(_WALL_TIMES.items())]
    rows.append({"case": "session", "name": "exit_status",
                 "value": int(exitstatus)})
    _harness.append_record(_BENCH_OBS_PATH, _harness.stamp(
        "obs", smoke=False, size={"scale": SCALE, "seed": SEED}, rows=rows))
