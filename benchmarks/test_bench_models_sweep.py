"""Model sweep rows of Tables I/II: ResNet-32 and VGG-11.

The per-architecture rows of the communication tables: same protocol
comparison on the deeper ResNet-32 and the much wider VGG-11 (where the
salient upload matters most — VGG's prunable convs are ~97% of its encoder
bytes, vs ~40% for ResNet's block-internal convs).

Costs are a steady-state round's, as in EXPERIMENTS.md Table I: round 1
priced per client.  Round 0 is a cold start — the delta downlink does not
send a first contact SCAFFOLD's ``c⁰ = 0``, which it already holds — so it
understates the ~2x of the protocols that carry control variates.
"""

import json

from benchmarks.conftest import bench_config
from repro.experiments import make_algorithm, make_setting
from repro.models import paper_model_size_mb


def _steady_round_costs(cfg, methods):
    out = {}
    for method in methods:
        model_fn, clients = make_setting(cfg)
        algo = make_algorithm(method, cfg, model_fn, clients)
        algo.run_round(0)
        result = algo.run_round(1)
        ledger = algo.ledger
        n = len(set(ledger.uplink[1]) | set(ledger.downlink[1]))
        out[method] = {
            "mb_per_client": ledger.round_bytes(1) / n / 2 ** 20,
            "acc_after_2": result.avg_val_acc,
        }
    return out


def test_resnet32_and_vgg11_costs(once, benchmark):
    methods = ("fedavg", "scaffold", "spatl")

    def run_all():
        res32 = bench_config(model="resnet32", n_clients=4, sample_ratio=1.0,
                             n_samples=1000, local_epochs=1)
        vgg = bench_config(model="vgg11", n_clients=4, sample_ratio=1.0,
                           n_samples=1000, local_epochs=1, input_size=32,
                           width_mult=0.125)
        return {"resnet32": _steady_round_costs(res32, methods),
                "vgg11": _steady_round_costs(vgg, methods)}

    results = once(run_all)
    print("\n=== round-1 MB per client by architecture (scaled) ===")
    for model, rows in results.items():
        full = paper_model_size_mb(model)
        print(f"{model} (full-size encoder {full:.2f} MB):")
        for m, r in rows.items():
            print(f"  {m:9s} {r['mb_per_client']:.3f} MB  "
                  f"acc@2rounds={r['acc_after_2']:.3f}")
    benchmark.extra_info["results"] = json.dumps(
        {mdl: {m: round(r["mb_per_client"], 4) for m, r in rows.items()}
         for mdl, rows in results.items()})

    for model, rows in results.items():
        # SCAFFOLD ~2x FedAvg on every architecture
        assert rows["scaffold"]["mb_per_client"] > \
            1.6 * rows["fedavg"]["mb_per_client"], model
        # SPATL under SCAFFOLD everywhere
        assert rows["spatl"]["mb_per_client"] < \
            rows["scaffold"]["mb_per_client"], model
    # VGG's salient upload saves relatively more than ResNet's
    rel = {m: results[m]["spatl"]["mb_per_client"]
           / results[m]["scaffold"]["mb_per_client"]
           for m in ("resnet32", "vgg11")}
    print("spatl/scaffold cost ratio:", {k: round(v, 3)
                                         for k, v in rel.items()})
    assert rel["vgg11"] <= rel["resnet32"] + 0.05
