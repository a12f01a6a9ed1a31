"""The experiment table ``repro list/run/trace/all`` read: per id, the
text runner, the default runs at paper scale, and the harness driver
that takes the ledger/retry/worker/telemetry options (or ``None``)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.experiments import ablations, extensions, fig7, figures


@dataclass(frozen=True)
class Experiment:
    """``run(runs, seed)`` returns the text table; ``harness`` may be None."""

    run: Callable[[int, int], str]
    default_runs: int
    harness: Optional[Callable] = None


def _harness(driver: Callable, default_runs: int) -> Experiment:
    """A harness experiment, whose text is its result's ``render()``."""

    def run(runs: int, seed: int) -> str:
        return driver(runs=runs, seed=seed).render()

    return Experiment(run, default_runs, driver)


def _run_fig1(runs: int, seed: int) -> str:
    regrets = []
    selections = []
    for index in range(runs):
        outcome = figures.run_fig1_workflow(seed=seed + index)
        regrets.append(outcome.regret)
        selections.append(outcome.selected == outcome.truly_best)
    correct = sum(selections)
    mean_regret = sum(regrets) / len(regrets)
    return (
        "== fig1-workflow ==\n"
        f"correct selections: {correct}/{runs}\n"
        f"mean regret: {mean_regret:.4f}"
    )


def _run_fig2(runs: int, seed: int) -> str:
    lines = ["== fig2-abr-bias =="]
    for index in range(runs):
        outcome = figures.run_fig2_abr_bias(seed=seed + index)
        lines.append(
            f"seed {seed + index}: replay={outcome.replay_estimate:.3f} "
            f"truth={outcome.true_qoe:.3f} "
            f"rel.err={outcome.replay_relative_error:.3f} "
            f"(logged low-bitrate fraction {outcome.low_bitrate_fraction_logged:.0%})"
        )
    return "\n".join(lines)


def _run_fig4(runs: int, seed: int) -> str:
    outcome = figures.run_fig4_cbn_learning(runs=runs, seed=seed)
    return (
        "== fig4-cbn-learning ==\n"
        f"backend edge missing in {outcome.backend_missing_fraction:.0%} of "
        f"{outcome.runs} runs\n"
        f"mean |misprediction| on (isp-1, fe-1, be-2): "
        f"{outcome.misprediction_ms_mean:.1f} ms"
    )


def _run_fig5(runs: int, seed: int) -> str:
    outcomes = figures.run_fig5_matching_coverage(runs=runs, seed=seed)
    return "== fig5-matching-coverage ==\n" + figures.render_coverage_table(outcomes)


def _sweep(function: Callable, x_label: str, name: str) -> Experiment:
    def run(runs: int, seed: int) -> str:
        points = function(runs=runs, seed=seed)
        return f"== ablation-{name} ==\n" + ablations.render_sweep(points, x_label)

    return Experiment(run, 30)


def _run_second_order(runs: int, seed: int) -> str:
    grid = ablations.run_second_order_ablation(runs=runs, seed=seed)
    return "== ablation-second-order ==\n" + ablations.render_second_order_grid(grid)


def _run_model_family(runs: int, seed: int) -> str:
    table = ablations.run_model_family_ablation(runs=runs, seed=seed)
    return "== ablation-model-family ==\n" + ablations.render_model_family_table(table)


#: Every experiment id, in the order ``repro all`` runs them.
EXPERIMENTS: Dict[str, Experiment] = {
    "fig1": Experiment(_run_fig1, 10),
    "fig2": Experiment(_run_fig2, 5),
    "fig3": _harness(figures.run_fig3_relay_bias, 50),
    "fig4": Experiment(_run_fig4, 20),
    "fig5": Experiment(_run_fig5, 20),
    "fig7a": _harness(fig7.run_fig7a, 50),
    "fig7b": _harness(fig7.run_fig7b, 50),
    "fig7c": _harness(fig7.run_fig7c, 50),
    "abl-rand": _sweep(ablations.run_randomness_ablation, "epsilon", "randomness"),
    "abl-dim": _sweep(ablations.run_dimensionality_ablation, "|D|", "dimensionality"),
    "abl-n": _sweep(ablations.run_trace_size_ablation, "trace size", "trace-size"),
    "abl-model": Experiment(_run_second_order, 20),
    "abl-family": Experiment(_run_model_family, 15),
    "nonstat": _harness(extensions.run_nonstationary_replay, 20),
    "state": _harness(extensions.run_state_mismatch, 20),
    "couple": _harness(extensions.run_reward_coupling, 10),
}
