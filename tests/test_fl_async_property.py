"""Property-based tests of the async runtime's scheduling invariants.

Hypothesis drives the event-driven server through arbitrary seeded
interleavings of arrivals, uploads, crashes, churn, and duplicate
deliveries (the :mod:`repro.fl.stub` algorithm keeps each simulated run
in the milliseconds).  Whatever the schedule:

- the buffer invariant holds — every accepted upload is either committed
  or still buffered, and every dispatched job ends exactly one way
  (in flight and untrained, crashed, or delivered and trained);
- the virtual clock never runs backwards and ``run`` always returns
  (bounded event budget — a permanently-crashing cohort stalls, it does
  not spin);
- commits never fold more than ``buffer_k`` updates, and a finished run
  reached exactly the requested number of steps;
- the whole simulation is a pure function of the seeds: replaying the
  same draw reproduces the final state and counters bit-for-bit.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.fl import (AsyncConfig, AsyncFederatedRunner, AsyncProfile,
                      state_fingerprint)  # noqa: E402
from repro.fl.stub import make_stub  # noqa: E402

PROBS = st.sampled_from([0.0, 0.1, 0.5, 1.0])

SCHEDULES = dict(
    seed=st.integers(0, 2 ** 16), n_clients=st.integers(1, 10),
    buffer_k=st.integers(1, 12), max_inflight=st.integers(1, 10),
    max_queue=st.integers(0, 10), crash=PROBS, churn=PROBS,
    duplicate=PROBS, straggler=PROBS,
    deadline=st.sampled_from([None, 2.0, 10.0]),
    steps=st.integers(1, 12))


def _build(seed, n_clients, buffer_k, max_inflight, max_queue, crash,
           churn, duplicate, straggler, deadline):
    profile = AsyncProfile(seed=seed, jitter=0.4, straggler_prob=straggler,
                           slowdown=5.0, arrival_spread=1.0,
                           churn_prob=churn, crash_prob=crash,
                           duplicate_prob=duplicate)
    config = AsyncConfig(buffer_k=buffer_k, max_inflight=max_inflight,
                         max_queue=max_queue, commit_deadline=deadline)
    return AsyncFederatedRunner(make_stub(n_clients=n_clients, seed=seed),
                                profile, config)


@given(**SCHEDULES)
@settings(max_examples=50, deadline=None)
def test_interleavings_preserve_buffer_invariant(seed, n_clients, buffer_k,
                                                 max_inflight, max_queue,
                                                 crash, churn, duplicate,
                                                 straggler, deadline, steps):
    runner = _build(seed, n_clients, buffer_k, max_inflight, max_queue,
                    crash, churn, duplicate, straggler, deadline)
    results = runner.run(steps=steps, max_events=2000)  # always returns
    c = runner.counters
    # committed updates == deduped accepted uploads still unaccounted-for
    assert c["committed"] + len(runner.buffer) == c["accepted"]
    # every dispatched job ends exactly one way (in flight untrained,
    # crashed, or delivered: trained, then accepted or deduped by content)
    assert c["trained"] \
        == c["dispatched"] - c["crashed"] - len(runner.inflight)
    assert c["accepted"] <= c["trained"]
    # admission control held throughout (inflight is live state)
    assert len(runner.inflight) <= max_inflight
    assert len(runner.queue) <= max_queue
    # the virtual clock is monotone and commits respect buffer_k
    times = [r.time for r in results]
    assert times == sorted(times)
    assert all(1 <= r.n_updates <= buffer_k for r in results)
    assert runner.server_step <= steps
    if not runner.stalled:
        assert runner.server_step == steps


@given(**SCHEDULES)
@settings(max_examples=15, deadline=None)
def test_same_seed_replays_bitwise(seed, n_clients, buffer_k, max_inflight,
                                   max_queue, crash, churn, duplicate,
                                   straggler, deadline, steps):
    outcomes = []
    for _ in range(2):
        runner = _build(seed, n_clients, buffer_k, max_inflight, max_queue,
                        crash, churn, duplicate, straggler, deadline)
        runner.run(steps=steps, max_events=1500)
        outcomes.append((
            state_fingerprint(dict(runner.algo.global_model.state_dict())),
            dict(runner.counters), runner.clock.now, runner.server_step,
            sorted(runner.buffer), sorted(runner.inflight)))
    assert outcomes[0] == outcomes[1]
