"""The paper's Fig 7: preliminary promise of DR in three scenarios.

Each function reproduces one panel with the §4.2 parameters:

* :func:`run_fig7a` — trace bias (WISE / Fig 4 scenario).
* :func:`run_fig7b` — model bias (FastMPC / Fig 2 scenario).
* :func:`run_fig7c` — variance (CFA / Fig 5 scenario).

Each returns an :class:`~repro.experiments.harness.ExperimentResult`
whose rows are the mean/min/max relative evaluation errors over the
requested number of runs (the paper uses 50).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro import abr, api
from repro.cbn.scenario import WiseScenario
from repro.cbn.wise import WiseRewardModel
from repro.cfa.scenario import CfaScenario
from repro.core.metrics import relative_error
from repro.core.models import KNNRewardModel
from pathlib import Path

from repro.experiments.harness import ExperimentResult, run_repeated
from repro.runtime import RetryPolicy


def run_fig7a(
    runs: int = 50,
    seed: int = 0,
    scenario: WiseScenario | None = None,
    retry: RetryPolicy | None = None,
    ledger_path: str | Path | None = None,
    resume: bool = False,
    workers: int = 1,
    telemetry_path: str | Path | None = None,
) -> ExperimentResult:
    """Fig 7a — DR vs WISE on the Fig 4 CDN-configuration scenario.

    Per run: generate the 500-per-arrow / 5-per-rare-combo trace, learn
    one CBN (the WISE evaluator, i.e. DM over the CBN), and compare the
    relative error of the WISE estimate with DR's, which uses that same
    fitted CBN as its reward model: the CBN is fit once per run.
    """
    scenario = scenario or WiseScenario()
    old = scenario.old_policy()
    new = scenario.new_policy()

    def run(rng: np.random.Generator) -> Dict[str, float]:
        trace = scenario.generate_trace(rng)
        truth = scenario.ground_truth_value(new, trace)
        # WISE fits the CBN; DR finds it fitted and reuses it.
        cbn = WiseRewardModel(decision_factors=("frontend", "backend"))
        wise = api.evaluate(
            trace, new, estimator="dm", model=cbn, propensities=old, diagnostics=False
        )
        dr = api.evaluate(
            trace, new, estimator="dr", model=cbn, propensities=old, diagnostics=False
        )
        return {
            "wise": relative_error(truth, wise.value),
            "dr": relative_error(truth, dr.value),
        }

    return run_repeated(
        "fig7a-trace-bias",
        run,
        runs=runs,
        seed=seed,
        baseline="wise",
        treatment="dr",
        retry=retry,
        ledger_path=ledger_path,
        resume=resume,
        workers=workers,
        telemetry_path=telemetry_path,
    )


def run_fig7b(
    runs: int = 50,
    seed: int = 0,
    bandwidth_mbps: float = 3.0,
    chunk_count: int = 100,
    exploration: float = 0.25,
    retry: RetryPolicy | None = None,
    ledger_path: str | Path | None = None,
    resume: bool = False,
    workers: int = 1,
    telemetry_path: str | Path | None = None,
) -> ExperimentResult:
    """Fig 7b — DR vs the FastMPC evaluator on the ABR scenario.

    Per run (§4.2 parameters): a 100-chunk session with five bitrates and
    constant bandwidth b; the old (logging) policy is buffer-based BBA
    with exploration; observed throughput is b·p(r) with p monotone in
    the bitrate.  The new policy is MPC ("FastMPC").  The baseline
    estimator is the Direct Method with the throughput-independence
    reward model; DR adds the importance-weighted residual correction.
    """
    manifest = abr.VideoManifest(chunk_count=chunk_count)
    efficiency = abr.BitrateEfficiency(manifest.ladder, floor=0.2, exponent=0.8)
    truth_model = abr.ObservedThroughputModel(efficiency)
    oracle = abr.ChunkRewardOracle(manifest, truth_model, bandwidth_mbps)
    new_controller = abr.ExploratoryABR(abr.MPCPolicy(manifest), epsilon=0.05)
    new_policy = abr.abr_core_policy(new_controller, manifest)

    def run(rng: np.random.Generator) -> Dict[str, float]:
        # A lean starting buffer (2 s) keeps the session in the regime
        # where phantom-rebuffer predictions matter: the biased model's
        # download-time overestimates then translate into large QoE
        # errors on most chunks, not just occasional ones.
        simulator = abr.SessionSimulator(
            manifest,
            abr.ConstantBandwidth(bandwidth_mbps),
            abr.ObservedThroughputModel(efficiency, noise_sigma=0.05),
            initial_buffer_seconds=2.0,
        )
        old_controller = abr.ExploratoryABR(
            abr.BufferBasedPolicy(manifest.ladder, reservoir_seconds=4.0),
            epsilon=exploration,
        )
        session = simulator.run(old_controller, rng)
        trace = session.to_trace()
        truth = oracle.policy_value(new_policy, trace)
        fastmpc = api.evaluate(
            trace,
            new_policy,
            estimator="dm",
            model=abr.IndependentThroughputModel(manifest),
            diagnostics=False,
        )
        dr = api.evaluate(
            trace,
            new_policy,
            estimator="dr",
            model=abr.IndependentThroughputModel(manifest),
            diagnostics=False,
        )
        return {
            "fastmpc": relative_error(truth, fastmpc.value),
            "dr": relative_error(truth, dr.value),
        }

    return run_repeated(
        "fig7b-model-bias",
        run,
        runs=runs,
        seed=seed,
        baseline="fastmpc",
        treatment="dr",
        retry=retry,
        ledger_path=ledger_path,
        resume=resume,
        workers=workers,
        telemetry_path=telemetry_path,
    )


def run_fig7c(
    runs: int = 50,
    seed: int = 0,
    scenario: CfaScenario | None = None,
    knn_k: int = 5,
    retry: RetryPolicy | None = None,
    ledger_path: str | Path | None = None,
    resume: bool = False,
    workers: int = 1,
    telemetry_path: str | Path | None = None,
) -> ExperimentResult:
    """Fig 7c — DR vs the CFA matching evaluator.

    Per run: a fresh randomly-logged trace; the CFA baseline averages the
    rewards of clients whose logged decision matches the new policy
    (high-variance, few matches — Fig 5); DR uses a k-NN reward model
    (§4.2) for every client plus the importance correction.
    """
    scenario = scenario or CfaScenario()
    quality = scenario.quality()
    old = scenario.old_policy()
    new = scenario.new_policy(quality)

    def run(rng: np.random.Generator) -> Dict[str, float]:
        trace = scenario.generate_trace(rng, quality)
        truth = scenario.ground_truth_value(new, trace, quality)
        cfa_result = api.evaluate(trace, new, estimator="matching", diagnostics=False)
        dr = api.evaluate(
            trace,
            new,
            estimator="dr",
            model=KNNRewardModel(k=knn_k),
            propensities=old,
            diagnostics=False,
        )
        return {
            "cfa": relative_error(truth, cfa_result.value),
            "dr": relative_error(truth, dr.value),
        }

    return run_repeated(
        "fig7c-variance",
        run,
        runs=runs,
        seed=seed,
        baseline="cfa",
        treatment="dr",
        retry=retry,
        ledger_path=ledger_path,
        resume=resume,
        workers=workers,
        telemetry_path=telemetry_path,
    )
