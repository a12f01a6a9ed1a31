"""Repeated-run experiment harness.

The paper's Fig 7 reports "the mean, minimum and maximum of evaluation
errors over 50 runs" per estimator.  The harness runs a per-seed
experiment function many times, aggregates each estimator's relative
errors into :class:`~repro.core.metrics.ErrorSummary` rows, and renders
the paper-style comparison including the headline
"DR's error is X% lower than <baseline>" reduction.

Resilience (:mod:`repro.runtime`): every completed seed can be
journaled to a JSONL **run ledger** so an interrupted sweep resumes
from where it died (``resume=True``); a :class:`~repro.runtime.RetryPolicy`
adds per-seed wall-clock timeouts and bounded retries with
deterministic backoff; and per-seed failures are preserved as
structured :class:`~repro.runtime.RunRecord` entries (exception type,
message, attempt count) instead of a bare counter — reported in
:meth:`ExperimentResult.render`, never hidden.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.metrics import ErrorSummary, error_reduction, paired_error_table
from repro.core.random import seed_stream
from repro.errors import EstimatorError, LedgerError
from repro.obs.metrics import merge_snapshot
from repro.obs.sinks import (
    merge_profile,
    merge_telemetry,
    render_telemetry,
    write_telemetry_file,
)
from repro.obs.spans import span
from repro.runtime import (
    LedgerHeader,
    RetryPolicy,
    RunLedger,
    RunOutcome,
    RunRecord,
    execute_run,
)
from repro.runtime.pool import _block_partition, _effective_workers, _fork_available
from repro.runtime.pool import fork_blocks, forks

# A per-seed experiment: rng -> {estimator label: relative error}, or a
# RunOutcome when the run wants to report degradations/quarantines too.
RunFunction = Callable[
    [np.random.Generator], Union[RunOutcome, Mapping[str, float]]
]


@dataclass(frozen=True)
class ExperimentResult:
    """Aggregated outcome of one experiment.

    Attributes
    ----------
    name:
        Experiment id (e.g. ``"fig7a"``).
    summaries:
        Per-estimator error summaries, in insertion order.
    baseline, treatment:
        Labels used for the headline reduction (usually the scenario's
        original evaluator and ``"dr"``).
    records:
        One :class:`~repro.runtime.RunRecord` per seed, in run order —
        including failed seeds with their exception type and message.
        The historical ``failed_runs`` counter is derived from these.
    telemetry:
        The per-seed telemetry payloads merged in run-index order
        (deterministic — identical for sequential, parallel, and resumed
        sweeps); ``None`` when no seed recorded telemetry.
    profile:
        Merged real-timing flat profile and timing metrics
        (``compare=False`` side channel, absent on replayed seeds).
    """

    name: str
    summaries: Dict[str, ErrorSummary]
    baseline: Optional[str] = None
    treatment: Optional[str] = None
    records: Tuple[RunRecord, ...] = ()
    telemetry: Optional[Dict[str, object]] = None
    profile: Optional[Dict[str, object]] = field(default=None, compare=False)

    @property
    def failed_runs(self) -> int:
        """Seeds on which the run function raised :class:`EstimatorError`
        (e.g. a no-overlap resample) or timed out; reported, not hidden.

        Backward-compatible view over :attr:`records`.
        """
        return sum(1 for record in self.records if not record.ok)

    def failure_breakdown(self) -> Dict[str, List[RunRecord]]:
        """Failed records grouped by exception type, in run order."""
        breakdown: Dict[str, List[RunRecord]] = {}
        for record in self.records:
            if not record.ok:
                breakdown.setdefault(record.error_type or "unknown", []).append(
                    record
                )
        return breakdown

    def degradation_counts(self) -> Dict[Tuple[str, str], int]:
        """``{(estimator label, link that answered): run count}`` over
        every fallback-chain degradation the run functions reported."""
        counts: Dict[Tuple[str, str], int] = {}
        for record in self.records:
            for label, answered_by in record.degradations.items():
                key = (label, answered_by)
                counts[key] = counts.get(key, 0) + 1
        return counts

    def quarantine_counts(self) -> Dict[str, int]:
        """Total quarantined-record counts per reason, across all runs."""
        counts: Dict[str, int] = {}
        for record in self.records:
            for reason, count in record.quarantined.items():
                counts[reason] = counts.get(reason, 0) + count
        return counts

    def reduction(self) -> float:
        """Headline fractional error reduction of treatment vs baseline."""
        if self.baseline is None or self.treatment is None:
            raise EstimatorError(f"experiment {self.name} has no headline pair")
        return error_reduction(
            self.summaries[self.baseline], self.summaries[self.treatment]
        )

    def render(self) -> str:
        """Paper-style text table plus the headline reduction.

        Degradations are part of the result, so they are part of the
        rendering: failed seeds are broken down by exception type,
        fallback-chain hops are counted per (estimator, answering link),
        and quarantined records are counted per reason.
        """
        labels = list(self.summaries.keys())
        lines = [f"== {self.name} ==",
                 paired_error_table(labels, [self.summaries[l] for l in labels])]
        if self.baseline is not None and self.treatment is not None:
            lines.append(
                f"{self.treatment} mean error is "
                f"{self.reduction():.0%} lower than {self.baseline}"
            )
        if self.failed_runs:
            parts = []
            for error_type, failures in self.failure_breakdown().items():
                seeds = ", ".join(str(record.index) for record in failures[:5])
                suffix = ", ..." if len(failures) > 5 else ""
                parts.append(f"{error_type} x{len(failures)} (runs {seeds}{suffix})")
            lines.append(
                f"({self.failed_runs} runs failed and were excluded: "
                + "; ".join(parts)
                + ")"
            )
        degradations = self.degradation_counts()
        if degradations:
            hops = "; ".join(
                f"{label} answered by {answered_by} in {count} run(s)"
                for (label, answered_by), count in sorted(degradations.items())
            )
            lines.append(f"(fallback degradations: {hops})")
        quarantined = self.quarantine_counts()
        if quarantined:
            reasons = ", ".join(
                f"{reason} x{count}" for reason, count in sorted(quarantined.items())
            )
            lines.append(f"(quarantined trace records: {reasons})")
        if self.telemetry:
            lines.append("telemetry:")
            lines.extend(render_telemetry(self.telemetry))
        return "\n".join(lines)


# The run functions handed to run_repeated are usually closures over
# scenario objects, which cannot be pickled to a worker.  Forked workers
# inherit the parent's memory instead: the context is parked here
# immediately before the fork, and a block carries only seed indices.
_WORKER_CONTEXT: Optional[Tuple[RunFunction, Optional[RetryPolicy], List[int]]] = None


def _run_block(indices: Sequence[int]) -> bytes:
    """Execute one contiguous block of seeds, in the caller or a forked
    child.

    The block's run records travel back pickled here, so the pool counts
    a child's result-pipe bytes without pickling them a second time.
    Blocks run on their process's main thread, so the retry policy's
    SIGALRM deadline stays enforceable here.
    """
    run, retry, seed_values = _WORKER_CONTEXT
    return pickle.dumps(
        [execute_run(run, index, seed_values[index], retry=retry) for index in indices]
    )


def _journaled(record: RunRecord) -> RunRecord:
    """The ledger journals a run's deterministic identity, not its timing:
    durations are canonicalised to 0.0 so sequential, parallel, and
    resumed sweeps produce byte-identical ledgers."""
    return replace(record, duration=0.0)


def _replayed_record(
    stored: RunRecord, index: int, expected_seed: int, ledger: RunLedger
) -> RunRecord:
    """Validate one journaled record against the regenerated seed stream."""
    if stored.seed != expected_seed:
        raise LedgerError(
            f"{ledger.path}: run {index} was journaled with seed "
            f"{stored.seed} but the seed stream yields {expected_seed}; "
            "the ledger belongs to a different sweep"
        )
    return stored


def _run_parallel(
    run: RunFunction,
    retry: Optional[RetryPolicy],
    pending: List[int],
    seed_values: List[int],
    workers: int,
    ledger: Optional[RunLedger],
) -> Dict[int, RunRecord]:
    """Execute the *pending* seed indices as one contiguous block per worker.

    Blocks arrive in block order, which is index order, so ledger
    records are appended as a sequential sweep appends them; a crash
    loses the blocks not yet appended, and a resume re-runs them.
    """
    global _WORKER_CONTEXT
    finished: Dict[int, RunRecord] = {}
    blocks = _block_partition(pending, _effective_workers(workers, len(pending)))
    _WORKER_CONTEXT = (run, retry, seed_values)
    try:
        with span("harness.pool", workers=len(blocks)):
            for payload, block in zip(fork_blocks(_run_block, blocks), blocks):
                for index, record in zip(block, pickle.loads(payload)):
                    finished[index] = record
                    if ledger is not None:
                        ledger.append(_journaled(record))
    finally:
        _WORKER_CONTEXT = None
    return finished


def run_repeated(
    name: str,
    run: RunFunction,
    runs: int = 50,
    seed: int = 0,
    baseline: Optional[str] = None,
    treatment: Optional[str] = None,
    retry: Optional[RetryPolicy] = None,
    ledger_path: Optional[Union[str, Path]] = None,
    resume: bool = False,
    workers: int = 1,
    telemetry_path: Optional[Union[str, Path]] = None,
) -> ExperimentResult:
    """Run *run* for *runs* seeds and aggregate per-estimator errors.

    Each run gets an independent generator derived from *seed*.  Runs
    raising :class:`EstimatorError` are recorded and skipped (mirroring
    how a practitioner would treat a degenerate resample); any other
    exception propagates.

    Parameters
    ----------
    retry:
        Optional :class:`~repro.runtime.RetryPolicy` adding a per-seed
        wall-clock timeout and bounded retries with deterministic
        backoff.  Without one, each seed gets a single attempt.
    ledger_path:
        When given, every completed seed (successful or failed) is
        journaled to this JSONL run ledger as soon as it finishes.
        Journaled durations are canonicalised to 0.0 (the ledger records
        a run's deterministic identity, not its timing), so the file is
        byte-identical however the sweep was executed.
    resume:
        With ``resume=True`` and an existing ledger at *ledger_path*,
        journaled seeds are replayed from the ledger (bit-identical,
        since JSON floats round-trip exactly) and only the missing
        seeds are executed.  A ledger recorded by a different
        experiment or root seed raises :class:`LedgerError`.
    workers:
        Number of seeds to execute concurrently.  The seed stream, the
        aggregated result, and any ledger are identical to a sequential
        sweep: seeds are derived up front, ledger records are written in
        index order (a crash may therefore lose blocks finished behind
        an unfinished one, which a resume simply re-runs), and
        aggregation happens in index order.  The worker count is capped
        at the CPUs this process's affinity mask allows, and pending
        seeds split into one contiguous block per worker: the caller
        runs the first and forks a child for each of the others.  Falls
        back to sequential execution where the ``fork`` start method is
        unavailable (run closures cannot be pickled), with at most one
        pending seed, or on one CPU, counting why as
        ``harness.sequential.<reason>`` (``no-fork``, ``one-run``,
        ``one-cpu``).
        Run closures may capture a :class:`~repro.store.ShardedTrace`:
        the reader keeps no open file handles and drops its decoded-shard
        cache across pickle/fork boundaries, so each worker re-reads the
        shards it touches and results are identical to a sequential
        sweep over the same (or a materialised) trace.
    telemetry_path:
        When given, a JSONL telemetry file (see :mod:`repro.obs.sinks`)
        is written once the sweep completes: the per-seed deterministic
        telemetry plus the index-order-merged summary.  The ledger
        remains the crash checkpoint; the telemetry file is
        byte-identical however the sweep executed.
    """
    if runs <= 0:
        raise EstimatorError(f"runs must be positive, got {runs}")
    if workers < 1:
        raise EstimatorError(f"workers must be at least 1, got {workers}")
    if resume and ledger_path is None:
        raise LedgerError("resume=True requires a ledger_path")

    completed: Dict[int, RunRecord] = {}
    ledger: Optional[RunLedger] = None
    if ledger_path is not None:
        ledger = RunLedger(ledger_path)
        if resume and ledger.path.exists():
            completed = ledger.load_for_resume(name, seed)
            ledger.reopen()
        else:
            ledger.start(
                LedgerHeader(
                    experiment=name,
                    root_seed=seed,
                    runs=runs,
                    retry=retry.to_json() if retry is not None else None,
                )
            )

    seeds = seed_stream(seed)
    seed_values = [next(seeds) for _ in range(runs)]
    pending = [index for index in range(runs) if index not in completed]
    records: List[RunRecord] = []
    try:
        with span("harness.sweep", experiment=name):
            if workers == 1 or not forks(
                "harness.sequential",
                (
                    ("no-fork", not _fork_available()),
                    ("one-run", len(pending) <= 1),
                    ("one-cpu", _effective_workers(workers, len(pending)) < 2),
                ),
            ):
                for index in range(runs):
                    seed_value = seed_values[index]
                    if index in completed:
                        record = _replayed_record(
                            completed[index], index, seed_value, ledger
                        )
                    else:
                        record = execute_run(run, index, seed_value, retry=retry)
                        if ledger is not None:
                            ledger.append(_journaled(record))
                    records.append(record)
            else:
                by_index = {
                    index: _replayed_record(
                        completed[index], index, seed_values[index], ledger
                    )
                    for index in range(runs)
                    if index in completed
                }
                by_index.update(
                    _run_parallel(
                        run, retry, pending, seed_values, workers, ledger
                    )
                )
                records = [by_index[index] for index in range(runs)]
    finally:
        if ledger is not None:
            ledger.close()

    # Merge per-seed telemetry strictly in run-index order: gauge
    # last-writes and float accumulation then follow one canonical
    # sequence, so the merged payload (and the render section built from
    # it) is identical for sequential, parallel, and resumed sweeps.
    merged_telemetry: Dict[str, object] = {}
    merged_profile: Dict[str, object] = {}
    for record in records:
        merge_telemetry(merged_telemetry, record.telemetry)
        if record.profile:
            merge_profile(
                merged_profile.setdefault("spans", {}),
                record.profile.get("spans"),
            )
            merge_snapshot(
                merged_profile.setdefault("metrics", {}),
                record.profile.get("metrics"),
            )
    merged_profile = {key: value for key, value in merged_profile.items() if value}

    if telemetry_path is not None:
        write_telemetry_file(
            telemetry_path,
            experiment=name,
            root_seed=seed,
            runs=runs,
            records=records,
            summary=merged_telemetry or None,
        )

    errors: Dict[str, List[float]] = {}
    order: List[str] = []
    for record in records:
        if not record.ok:
            continue
        for label, value in record.errors.items():
            if label not in errors:
                errors[label] = []
                order.append(label)
            errors[label].append(float(value))
    if not errors:
        raise EstimatorError(f"experiment {name}: every run failed")
    summaries = {label: ErrorSummary.from_errors(errors[label]) for label in order}
    return ExperimentResult(
        name=name,
        summaries=summaries,
        baseline=baseline,
        treatment=treatment,
        records=tuple(records),
        telemetry=merged_telemetry or None,
        profile=merged_profile or None,
    )
