"""``fig7a-sweep``: the paper's Fig 7a through the experiment harness.

Set-up builds the WISE scenario.  Once, after the last set-up and outside
``setup_s``, the sequential reference sweep the checks compare against
runs: ``run_fig7a`` over the same seeds with ``workers=1``.  Each
operation is the user's call, ``run_fig7a`` at its default of 50 runs
(the paper's count) with ``workers = nproc``: the fork pool, CBN learning
and dense DM/DR with ``diagnostics=False``.  ``run_fig7a`` hands the
harness no trace, so nothing is promoted to shared memory.  The sweep's
per-estimator summaries must equal the sequential reference and no seed
may fail.  Each seed's run duration, measured by the harness inside the
pool worker, is one latency sample.
"""

from __future__ import annotations

import time

from common import Phase, Workload, nproc
from layers import wrap_estimators, wrap_models, wrap_store_reads
from ledger import timed


class Fig7aSweep(Workload):
    name = "fig7a-sweep"
    why = (
        "the paper's Fig 7a, run_fig7a at its default 50 runs with workers = "
        "nproc: the experiment harness fork pool, CBN learning and dense "
        "DM/DR estimation without diagnostics"
    )
    named_metrics = {"sweep_runs_per_s": "throughput_per_s"}
    checks = ("parallel_summaries_equal_sequential",)
    layers = (
        "cbn.scenario.generate_s",
        "cbn.scenario.truth_s",
        "core.models.fit_s",
        "core.estimators.estimate_s.dm",
        "core.estimators.estimate_s.dr",
        "api.evaluate_s",
        "experiments.harness.sweep_s",
    )

    def __init__(self, context):
        super().__init__(context)
        # As many seeds per sweep as a user's call, so that the pool's
        # per-sweep costs (fork, dispatch, result drain) weigh as much.
        self.runs = 4 if context.tiny else 50
        self.workers = nproc()

    def input_description(self):
        return {"runs_per_sweep": self.runs, "workers": self.workers, "root_seed": self.context.seed}

    def setup(self) -> None:
        from repro.cbn.scenario import WiseScenario

        self.scenario = WiseScenario()

    def prepare_checks(self) -> None:
        from repro.experiments.fig7 import run_fig7a

        started = time.perf_counter()
        self.reference = run_fig7a(runs=self.runs, seed=self.context.seed, scenario=self.scenario)
        self.context.extras["check_prep_s"] = time.perf_counter() - started

    def install(self, patches, ledger) -> None:
        import repro.api as api
        import repro.experiments.harness as harness
        from repro.cbn.scenario import WiseScenario

        # Harness pool workers flush their ledgers through the task wrapper
        # installed here; the dense path reads no shards.
        wrap_store_reads(patches, ledger, "store.streaming.stream_s")
        wrap_estimators(patches, ledger)
        wrap_models(patches, ledger)
        patches.method(
            WiseScenario, "generate_trace", lambda f: timed(ledger, "cbn.scenario.generate_s", f)
        )
        patches.method(
            WiseScenario, "ground_truth_value", lambda f: timed(ledger, "cbn.scenario.truth_s", f)
        )
        patches.function(api, "evaluate", lambda f: timed(ledger, "api.evaluate_s", f))
        patches.function(
            harness, "run_repeated", lambda f: timed(ledger, "experiments.harness.sweep_s", f)
        )

    def operation(self, phase: Phase) -> None:
        from repro.experiments.fig7 import run_fig7a

        with phase.section(work=self.runs):
            result = run_fig7a(
                runs=self.runs, seed=self.context.seed, scenario=self.scenario, workers=self.workers
            )
        phase.attempted += 1
        for record in result.records:
            phase.add_latency(record.duration)
        ok = result.failed_runs == 0 and result.summaries == self.reference.summaries
        if not self.context.checks.record("parallel_summaries_equal_sequential", ok):
            phase.failed += 1
