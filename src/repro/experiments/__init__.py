"""Experiment harness: one module per paper table/figure (see DESIGN.md §3).

Every experiment takes an :class:`~repro.experiments.configs.ExperimentConfig`
(scaled for CPU by default, ``scale="paper"`` for full-size settings) and
trains through one entry, :func:`~repro.experiments.harness.train`: build
the setting, build the algorithm, run it, close it.  Each table or figure
function is that loop plus a reader over the :class:`Run` it returns
(``cost_rows``, ``inference_stats``, ``fault_row``, …), and
``benchmarks/bench_claims.py`` calls the same readers over runs it shares
between artifacts, so the CLI and the paper-claims table compute every
number with the same code.
"""

from repro.experiments.configs import (ExperimentConfig, SCALES, config_for,
                                       make_setting, make_algorithm,
                                       make_fault_model)
from repro.experiments.fault_tolerance import (fault_degradation_curve,
                                               render_fault_table)
from repro.experiments.async_convergence import (async_convergence,
                                                 render_async_table)
from repro.experiments.harness import (Run, build, compare_table,
                                       run_algorithms, train)
from repro.experiments.learning_efficiency import learning_efficiency_curves
from repro.experiments.communication import (table1_target_cost,
                                             table2_convergence,
                                             rounds_to_target_figure)
from repro.experiments.local_accuracy import local_accuracy_figure
from repro.experiments.inference import inference_acceleration_table
from repro.experiments.transfer import transferability_table
from repro.experiments.pruning_compare import pruning_comparison_table
from repro.experiments.ablation import (ablation_selection, ablation_transfer,
                                        ablation_gradient_control)
from repro.experiments.rl_finetune import rl_finetune_figure

__all__ = [
    "ExperimentConfig", "SCALES", "config_for", "make_setting", "make_algorithm",
    "make_fault_model", "fault_degradation_curve", "render_fault_table",
    "async_convergence", "render_async_table",
    "Run", "build", "train", "run_algorithms", "compare_table",
    "learning_efficiency_curves",
    "table1_target_cost", "table2_convergence", "rounds_to_target_figure",
    "local_accuracy_figure", "inference_acceleration_table",
    "transferability_table", "pruning_comparison_table",
    "ablation_selection", "ablation_transfer", "ablation_gradient_control",
    "rl_finetune_figure",
]
