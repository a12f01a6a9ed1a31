"""Telemetry determinism: the side-channel never disturbs — or varies.

Two contracts are pinned here.  First, telemetry is a pure side-channel:
enabling ``telemetry_path`` changes neither the ledger bytes nor the
aggregated result.  Second, the telemetry itself is deterministic:
sequential, worker-pool, and crash/resume sweeps emit byte-identical
telemetry files, because spans are counted (not timed) in the
deterministic payload and timing metrics are stripped.
"""

from __future__ import annotations

import json

import pytest

from repro import api, core
from repro.experiments.harness import run_repeated
from repro.obs.metrics import is_timing_metric
from repro.obs.validate import validate_telemetry_file
from repro.runtime import EstimatorFallbackChain
from repro.runtime.pool import _fork_available
from repro.core.types import Trace, TraceRecord

needs_fork = pytest.mark.skipif(
    not _fork_available(), reason="fork start method unavailable on this platform"
)

RUNS = 6
SEED = 2017

_SPACE = core.DecisionSpace(["a", "b", "c"])


def _truth(context, decision):
    return {"a": 1.0, "b": 2.0, "c": 3.0}[decision]


def _make_trace(rng, n=60, keep_propensity=True):
    old = core.UniformRandomPolicy(_SPACE)
    records = []
    for _ in range(n):
        context = core.ClientContext(x=float(rng.integers(0, 5)))
        decision = old.sample(context, rng)
        reward = _truth(context, decision) + rng.normal(0.0, 0.2)
        records.append(
            TraceRecord(
                context=context,
                decision=decision,
                reward=float(reward),
                propensity=old.propensity(decision, context)
                if keep_propensity
                else None,
            )
        )
    return Trace(records)


def ope_run(rng):
    """One seed of a realistic OPE workload: weights metrics + spans."""
    trace = _make_trace(rng)
    policy = core.DeterministicPolicy(_SPACE, lambda c: "c")
    dr = api.evaluate(trace, policy, estimator="dr", diagnostics=False)
    snips = api.evaluate(trace, policy, estimator="snips", diagnostics=False)
    return {"dr": abs(dr.value - 3.0), "snips": abs(snips.value - 3.0)}


def degrading_run(rng):
    """A propensity-free trace forces the chain to degrade dr>snips>dm."""
    trace = _make_trace(rng, keep_propensity=False)
    policy = core.DeterministicPolicy(_SPACE, lambda c: "c")
    chain = EstimatorFallbackChain(
        [
            core.DoublyRobust(core.TabularMeanModel()),
            core.SelfNormalizedIPS(),
            core.DirectMethod(core.TabularMeanModel()),
        ]
    )
    result = chain.estimate(policy, trace)
    return {"chain": abs(result.value - 3.0)}


def sweep(workers, tmp_path, tag, resume=False, run=ope_run):
    return run_repeated(
        "telemetry-equivalence",
        run,
        runs=RUNS,
        seed=SEED,
        ledger_path=tmp_path / f"{tag}.ledger.jsonl",
        telemetry_path=tmp_path / f"{tag}.telemetry.jsonl",
        resume=resume,
        workers=workers,
    )


class TestTelemetryIsASideChannel:
    def test_ledger_bytes_unchanged_by_telemetry(self, tmp_path):
        bare = tmp_path / "bare.jsonl"
        run_repeated(
            "telemetry-equivalence",
            ope_run,
            runs=RUNS,
            seed=SEED,
            ledger_path=bare,
        )
        sweep(workers=1, tmp_path=tmp_path, tag="instrumented")
        instrumented = tmp_path / "instrumented.ledger.jsonl"
        assert instrumented.read_bytes() == bare.read_bytes()

    def test_payload_has_metrics_and_spans_but_no_timings(self, tmp_path):
        result = sweep(workers=1, tmp_path=tmp_path, tag="payload")
        assert result.telemetry is not None
        histograms = result.telemetry["metrics"]["histograms"]
        assert histograms["ope.weights.ess"]["count"] > 0
        assert any("api.evaluate" in key for key in result.telemetry["spans"])
        assert "harness.run" in result.telemetry["spans"]
        names = list(histograms) + list(
            result.telemetry["metrics"].get("counters", {})
        )
        assert not any(is_timing_metric(name) for name in names)

    def test_emitted_file_validates(self, tmp_path):
        sweep(workers=1, tmp_path=tmp_path, tag="valid")
        header = validate_telemetry_file(tmp_path / "valid.telemetry.jsonl")
        assert header["experiment"] == "telemetry-equivalence"
        assert header["runs"] == RUNS


@needs_fork
class TestCrossModeByteIdentity:
    def test_parallel_matches_sequential(self, tmp_path):
        sequential = sweep(workers=1, tmp_path=tmp_path, tag="sequential")
        parallel = sweep(workers=2, tmp_path=tmp_path, tag="parallel")
        assert parallel.telemetry == sequential.telemetry
        assert parallel.render() == sequential.render()
        assert (tmp_path / "parallel.telemetry.jsonl").read_bytes() == (
            tmp_path / "sequential.telemetry.jsonl"
        ).read_bytes()
        assert (tmp_path / "parallel.ledger.jsonl").read_bytes() == (
            tmp_path / "sequential.ledger.jsonl"
        ).read_bytes()

    def test_resume_matches_uninterrupted(self, tmp_path):
        reference = sweep(workers=1, tmp_path=tmp_path, tag="reference")
        sweep(workers=2, tmp_path=tmp_path, tag="crashed")
        ledger = tmp_path / "crashed.ledger.jsonl"
        lines = ledger.read_text().splitlines(keepends=True)
        ledger.write_text("".join(lines[:4]))  # header + 3 journaled seeds
        resumed = sweep(workers=2, tmp_path=tmp_path, tag="crashed", resume=True)
        assert resumed.telemetry == reference.telemetry
        assert resumed.render() == reference.render()
        assert (tmp_path / "crashed.telemetry.jsonl").read_bytes() == (
            tmp_path / "reference.telemetry.jsonl"
        ).read_bytes()
        assert ledger.read_bytes() == (
            tmp_path / "reference.ledger.jsonl"
        ).read_bytes()


class TestFallbackHopsSurfaced:
    def test_hops_counted_per_seed_and_in_summary(self, tmp_path):
        result = sweep(workers=1, tmp_path=tmp_path, tag="hops", run=degrading_run)
        for record in result.records:
            counters = record.telemetry["metrics"]["counters"]
            assert counters["ope.fallback.hops"] == 2  # dr and snips both hop
            assert counters["ope.fallback.hops.dr"] == 1
            assert counters["ope.fallback.hops.snips"] == 1
        summary = result.telemetry["metrics"]["counters"]
        assert summary["ope.fallback.hops"] == 2 * RUNS

    def test_hops_survive_in_ledger_and_telemetry_file(self, tmp_path):
        sweep(workers=1, tmp_path=tmp_path, tag="hopfile", run=degrading_run)
        lines = [
            json.loads(line)
            for line in (tmp_path / "hopfile.telemetry.jsonl").read_text().splitlines()
        ]
        run_lines = [line for line in lines if line.get("kind") == "run"]
        assert len(run_lines) == RUNS
        for line in run_lines:
            counters = line["telemetry"]["metrics"]["counters"]
            assert counters["ope.fallback.hops"] == 2
