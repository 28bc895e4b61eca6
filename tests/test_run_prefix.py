"""A run's first rounds do not depend on how many rounds follow.

The artifact registry (``repro.experiments.registry``, which ``repro
<artifact>`` and the claims table serve) trains each ``(config, method,
overrides)`` once and serves every artifact that reads it: a log
read takes the first *r* rounds of a longer run (``Run.upto``), a state
read stops the run at exactly *r* rounds and lets it go on.  Both rest on
the property pinned here for every algorithm: the first *r* rounds'
log and ledger equal an *r*-round run's, and ``run(a); run(b)`` ends
where ``run(a + b)`` does.  Table I's target and Table II's patience then
become stop rules over a run's full series, which must pick the round
``run(target_accuracy=)`` and ``run(patience=)`` stop at.
"""

import pytest

from repro.experiments import Run
from repro.utils.metrics import rounds_to_converge, rounds_to_target

from tests import matrix

ROUNDS, HEAD = 3, 2
LEDGER_META = ("rounds_run", "total_gb", "per_round_per_client_mb")


def _ledger(algo, rounds=None):
    return [{r: dict(per) for r, per in getattr(algo.ledger, d).items()
             if rounds is None or r < rounds}
            for d in ("uplink", "downlink")]


@pytest.mark.parametrize("name", matrix.EVERY)
def test_first_rounds_do_not_depend_on_what_follows(name):
    # half the clients a round, so each round's cohort is sampled
    whole = matrix.algorithm(name, sample_ratio=0.5)
    log = whole.run(ROUNDS)
    part = matrix.algorithm(name, sample_ratio=0.5)
    head = part.run(HEAD)
    try:
        assert dict(head.series) == {k: v[:HEAD]
                                     for k, v in log.series.items()}
        assert _ledger(part) == _ledger(whole, HEAD)
        view = Run(whole, log).upto(HEAD)
        assert dict(view.series) == dict(head.series)
        assert {k: view.meta[k] for k in LEDGER_META} \
            == {k: head.meta[k] for k in LEDGER_META}
        # run(HEAD); run(ROUNDS - HEAD) is run(ROUNDS)
        part.run(ROUNDS - HEAD, log=head)
        assert dict(head.series) == dict(log.series)
        assert matrix.freeze(part) == matrix.freeze(whole)
    finally:
        whole.close()
        part.close()


def test_stop_rules_pick_the_round_a_stopped_run_ends_at():
    series = matrix.algorithm("fedavg").run(4)["val_acc"]
    target = series[1]                       # reached by round 2 at the latest
    hit = matrix.algorithm("fedavg").run(4, target_accuracy=target)
    assert len(hit["val_acc"]) == rounds_to_target(series, target) <= 2
    converged = matrix.algorithm("fedavg").run(4, patience=1)
    assert len(converged["val_acc"]) == (rounds_to_converge(series, 1) or 4)


@pytest.mark.parametrize("series,patience,stop", [
    ([0.1, 0.2, 0.2, 0.2], 2, 4),
    ([0.1, 0.2, 0.3], 1, None),              # still improving
    ([0.5, 0.5005, 0.4], 2, 3),              # +5e-4 is under min_delta
    ([0.5, 0.5], 0, None),                   # patience 0: no rule, as in run()
])
def test_convergence_rule(series, patience, stop):
    assert rounds_to_converge(series, patience) == stop
