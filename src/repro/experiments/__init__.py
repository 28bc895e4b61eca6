"""Experiment harness: one module per paper table/figure (see DESIGN.md §3).

Every experiment takes an :class:`~repro.experiments.configs.ExperimentConfig`
(scaled for CPU by default, ``scale="paper"`` for full-size settings) and
trains through one entry, :func:`~repro.experiments.harness.train`: build
the setting, build the algorithm, run it, close it.  The paper's tables
and figures are the artifacts of :mod:`repro.experiments.registry`, each
a set of runs and a reader over them (``cost_rows``, ``inference_stats``,
``fault_row``, …); ``repro <artifact>`` prints one and
``benchmarks/bench_claims.py`` checks the paper's claims on all of them.
Only those two import the registry; the package loads the readers alone.
"""

from repro.experiments.configs import (ExperimentConfig, SCALES, config_for,
                                       make_setting, make_algorithm,
                                       make_fault_model)
from repro.experiments import (ablation, communication, fault_tolerance,
                               inference, learning_efficiency,
                               local_accuracy, transfer)
from repro.experiments.async_convergence import (async_convergence,
                                                 render_async_table)
from repro.experiments.harness import (Run, build, compare_table,
                                       run_algorithms, train)
from repro.experiments.pruning_compare import pruning_comparison_table
from repro.experiments.rl_finetune import rl_finetune_figure

__all__ = [
    "ExperimentConfig", "SCALES", "config_for", "make_setting", "make_algorithm",
    "make_fault_model", "async_convergence", "render_async_table",
    "Run", "build", "train", "run_algorithms", "compare_table",
    "pruning_comparison_table", "rl_finetune_figure",
]
