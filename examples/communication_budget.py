#!/usr/bin/env python
"""Communication accounting across all five FL protocols (§V-C, Eq. 13).

Runs three rounds of each algorithm on the same setting and breaks
per-client traffic into uplink/downlink bytes, then extrapolates the
full-size (paper-architecture) per-round payloads through the same codec —
the "Cost Round/Client" column of Tables I and II.

Round 0 is the *cold* figure: every client is new, so everyone downloads
the full state — minus what a joining client already holds, the zero
control variate ``c`` of SPATL and SCAFFOLD (``c⁰ = 0`` on both sides).
From round 1 on a returning client is sent only the rows that changed
since it last synced (DESIGN.md §5.1), which is the *steady-state* figure
a long run pays — the one the full-size extrapolation uses.  The *joiner*
column is what a client first contacted after the last round would be
sent: the full state minus the rows of ``c`` no fold has moved yet.

Usage::

    python examples/communication_budget.py [--model resnet20|vgg11]
"""

import argparse

from repro.experiments import config_for, make_algorithm, make_setting
from repro.experiments.communication import paper_scale_mb_per_round
from repro.fl import payload_nbytes
from repro.models import paper_model_size_mb
from repro.utils.logging import render_table

METHODS = ("fedavg", "fedprox", "fednova", "scaffold", "spatl")
ROUNDS = 3


def _mb_per_client(per_client: dict[int, int]) -> float:
    return sum(per_client.values()) / len(per_client) / 2 ** 20


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="resnet20",
                        choices=["resnet20", "resnet32", "vgg11"])
    args = parser.parse_args()

    cfg = config_for("tiny", model=args.model, n_clients=4,
                     sample_ratio=1.0, n_samples=600, local_epochs=1)

    rows = []
    spatl_ratio = None
    last = ROUNDS - 1
    for method in METHODS:
        model_fn, clients = make_setting(cfg)
        algo = make_algorithm(method, cfg, model_fn, clients)
        algo.run(ROUNDS)
        cold = _mb_per_client(algo.ledger.downlink[0])
        down = _mb_per_client(algo.ledger.downlink[last])
        up = _mb_per_client(algo.ledger.uplink[last])
        joiner = payload_nbytes(algo.transport.versions.delta(
            algo.downlink_state(), None)) / 2 ** 20
        rows.append([method, f"{cold:.3f}", f"{joiner:.3f}", f"{down:.3f}",
                     f"{up:.3f}", f"{cold + up:.3f}", f"{down + up:.3f}"])
        if method == "fedavg":
            fedavg_total = down + up
        if method == "spatl":
            spatl_ratio = (down + up) / fedavg_total * 2.0

    print(render_table(["method", "cold down", "joiner down", "steady down",
                        "up", "cold total", "steady total"], rows,
                       title=f"Measured MB/client/round ({args.model}, "
                             f"scaled width {cfg.width_mult}; cold = round "
                             f"0, steady = round {last})"))

    base = paper_model_size_mb(args.model)
    full_rows = [[m, f"{paper_scale_mb_per_round(m, args.model, spatl_ratio):.2f}"]
                 for m in METHODS]
    print()
    print(render_table(
        ["method", "MB/round/client"], full_rows,
        title=f"Implied full-size per-round payloads "
              f"({args.model}: encoder {base:.2f} MB fp32)"))
    print("\nShape to notice: SCAFFOLD/FedNova pay ~2x FedAvg for their "
          "control state — they rewrite every row every round; only "
          "SCAFFOLD's round 0 is cheaper (1.5x), its c not having moved "
          "yet.  SPATL's salient upload + server-side variate "
          "reconstruction lands between FedAvg and the 2x protocols in "
          "steady state: filters no upload covered, and their "
          "control-variate rows, are not re-sent.  Its first contacts cost "
          "less than that — round 0 is the encoder alone, below FedAvg's "
          "round, and a late joiner is spared the rows of c no upload has "
          "touched.")


if __name__ == "__main__":
    main()
