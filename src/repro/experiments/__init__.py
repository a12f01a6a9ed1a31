"""Experiment drivers regenerating the paper's figures and the ablations.

Each driver returns a structured result with a ``render()`` (or a
dedicated renderer) producing the paper-style text rows.  The benchmark
suite under ``benchmarks/`` wraps these with pytest-benchmark and asserts
the qualitative shapes; the CLI (``repro run <id>``) runs them at full
scale from the :data:`EXPERIMENTS` table.
"""

from repro.experiments.ablations import (
    MODEL_FAMILY_LABELS,
    SecondOrderPoint,
    SweepPoint,
    render_model_family_table,
    render_second_order_grid,
    render_sweep,
    run_dimensionality_ablation,
    run_model_family_ablation,
    run_randomness_ablation,
    run_second_order_ablation,
    run_trace_size_ablation,
)
from repro.experiments.extensions import (
    run_nonstationary_replay,
    run_reward_coupling,
    run_state_mismatch,
)
from repro.experiments.figures import (
    AbrBiasOutcome,
    CbnLearningOutcome,
    CoverageOutcome,
    WorkflowOutcome,
    render_coverage_table,
    run_fig1_workflow,
    run_fig2_abr_bias,
    run_fig3_relay_bias,
    run_fig4_cbn_learning,
    run_fig5_matching_coverage,
)
from repro.experiments.fig7 import run_fig7a, run_fig7b, run_fig7c
from repro.experiments.harness import ExperimentResult, run_repeated
from repro.experiments.registry import EXPERIMENTS, Experiment

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "ExperimentResult",
    "run_repeated",
    "run_fig7a",
    "run_fig7b",
    "run_fig7c",
    "run_fig1_workflow",
    "run_fig2_abr_bias",
    "run_fig3_relay_bias",
    "run_fig4_cbn_learning",
    "run_fig5_matching_coverage",
    "render_coverage_table",
    "WorkflowOutcome",
    "AbrBiasOutcome",
    "CbnLearningOutcome",
    "CoverageOutcome",
    "run_randomness_ablation",
    "run_dimensionality_ablation",
    "run_trace_size_ablation",
    "run_second_order_ablation",
    "run_model_family_ablation",
    "render_model_family_table",
    "MODEL_FAMILY_LABELS",
    "render_sweep",
    "render_second_order_grid",
    "SweepPoint",
    "SecondOrderPoint",
    "run_nonstationary_replay",
    "run_state_mismatch",
    "run_reward_coupling",
]
