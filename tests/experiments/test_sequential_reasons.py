"""Why a parallel sweep ran in one process.

``run_repeated`` asked for more than one worker that runs its seeds in
one process counts the reason, once per sweep, as
``harness.sequential.<reason>``.  The counter is an environment metric:
the ledger and telemetry files equal a ``workers=1`` sweep's byte for
byte.
"""

from __future__ import annotations

import os

import pytest

from repro import obs
from repro.experiments import harness
from repro.experiments.harness import run_repeated
from repro.obs.metrics import is_environment_metric
from repro.runtime.pool import _fork_available

PREFIX = "harness.sequential."
RUNS = 4


def noisy_run(rng):
    return {"ips": abs(float(rng.normal())), "dr": abs(float(rng.normal()))}


def reasons(recorder):
    counters = recorder.metrics.snapshot().get("counters", {})
    return {name[len(PREFIX):]: count for name, count in counters.items() if name.startswith(PREFIX)}


def sweep(tmp_path, label, workers, runs):
    ledger, telemetry = tmp_path / f"{label}.jsonl", tmp_path / f"{label}-telemetry.jsonl"
    with obs.capture() as recorder:
        result = run_repeated(
            "reasons", noisy_run, runs=runs, seed=7, workers=workers,
            ledger_path=ledger, telemetry_path=telemetry,
        )
    return result, recorder, ledger.read_bytes(), telemetry.read_bytes()


def assert_sequential_for(reason, tmp_path, monkeypatch, runs=RUNS):
    """A two-worker sweep runs in one process, counting *reason* once,
    with the sequential sweep's records, ledger and telemetry."""
    reference = sweep(tmp_path, "sequential", 1, runs)

    def refuse():
        raise AssertionError("a sequential fallback forked")

    monkeypatch.setattr(os, "fork", refuse)
    fallback = sweep(tmp_path, "fallback", 2, runs)
    monkeypatch.undo()
    assert reasons(fallback[1]) == {reason: 1}
    assert reasons(reference[1]) == {}
    assert fallback[0].render() == reference[0].render()
    assert fallback[2:] == reference[2:]


def test_no_fork(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "_fork_available", lambda: False)
    assert_sequential_for("no-fork", tmp_path, monkeypatch)


@pytest.mark.skipif(not _fork_available(), reason="fork start method unavailable")
def test_one_run(tmp_path, monkeypatch):
    assert_sequential_for("one-run", tmp_path, monkeypatch, runs=1)


@pytest.mark.skipif(not _fork_available(), reason="fork start method unavailable")
def test_one_cpu(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert_sequential_for("one-cpu", tmp_path, monkeypatch)


def test_reasons_are_environment_metrics():
    for reason in ("no-fork", "one-run", "one-cpu"):
        assert is_environment_metric(PREFIX + reason)
