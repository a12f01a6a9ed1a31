"""``live-capture``: the ``repro watch --capture --verify-offline`` flow.

Each operation is one watch session over the same frozen prefix of the
flash-crowd stream: a fresh ``LiveTrafficGenerator`` feeds chunks to a
``LiveWatch`` valuing two candidate policies with SNIPS (the command's
default estimator) and capturing every record to shards, under the obs
recorder ``repro watch`` runs with; then ``close_capture`` and
``verify_against_capture``, which must return MATCH for every policy.
The session's wall time covers generation, processing, close and
verify; each ``LiveWatch.process`` call is one latency sample.  Building
the generator, policies and watch is set-up: the set-ups before the
measured phase are timed for ``setup_s``, and each later session
rebuilds its watch untimed.
"""

from __future__ import annotations

import os
import shutil
import time

from common import Phase, Workload
from layers import wrap_estimators, wrap_store_reads
from ledger import timed


class LiveCapture(Workload):
    name = "live-capture"
    why = (
        "the README's repro watch --capture --verify-offline flow: drift "
        "generator, incremental estimators, confidence sequences, change "
        "points, shard writes and the offline replay"
    )
    named_metrics = {
        "live_records_per_s": "throughput_per_s",
        "live_chunk_p50_ms": "latency_p50_ms",
        "live_chunk_p90_ms": "latency_p90_ms",
    }
    checks = ("verify_offline_match",)
    layers = (
        "live.watch.process_s",
        "live.incremental.observe_s",
        "live.confidence.update_s",
        "live.changepoint.update_s",
        "live.ingest.records",
        "store.format.capture_s",
        "store.format.close_s",
        "store.shard_bytes_written",
        "workloads.drift.batch_s",
        "live.watch.verify_s",
        "store.streaming.stream_s",
    )

    def __init__(self, context):
        super().__init__(context)
        self.chunk_records = 256 if context.tiny else 1_024
        self.chunks = 8 if context.tiny else 40
        self.records = self.chunk_records * self.chunks
        # Place the flash crowd inside the prefix, as the default
        # 400k-record start would fall beyond it.
        self.flash_start = self.records // 3
        self.flash_duration = self.records // 4
        self.policies = 2
        self._sessions = 0
        os.environ.pop("REPRO_STREAM_WORKERS", None)

    def input_description(self):
        return {
            "scenario": "flash-crowd",
            "records_per_session": self.records,
            "chunk_records": self.chunk_records,
            "flash_start": self.flash_start,
            "flash_duration": self.flash_duration,
            "policies": self.policies,
            "estimator": "snips",
        }

    def setup(self) -> None:
        from repro.core.estimators import SelfNormalizedIPS
        from repro.live import LiveWatch
        from repro.workloads.drift import LiveTrafficGenerator

        self._sessions += 1
        self.capture = self.context.workdir / f"capture-{self._sessions}"
        self.generator = LiveTrafficGenerator(
            scenario="flash-crowd",
            seed=self.context.seed,
            chunk_records=self.chunk_records,
            flash_start=self.flash_start,
            flash_duration=self.flash_duration,
        )
        self.watch = LiveWatch(
            SelfNormalizedIPS,
            self.generator.candidate_policies(self.policies),
            capture_directory=self.capture,
        )

    def teardown(self) -> None:
        self.watch = None
        shutil.rmtree(self.capture, ignore_errors=True)

    def install(self, patches, ledger) -> None:
        from repro.live.changepoint import OnlineChangePointDetector
        from repro.live.confidence import ConfidenceSequence, RatioConfidenceSequence
        from repro.live.incremental import IncrementalEstimator
        from repro.live.watch import LiveWatch
        from repro.store.format import ShardWriter
        from repro.workloads.drift import LiveTrafficGenerator

        wrap_store_reads(patches, ledger, "store.streaming.stream_s")
        wrap_estimators(patches, ledger)
        layers = (
            (LiveWatch, "process", "live.watch.process_s"),
            (LiveWatch, "verify_against_capture", "live.watch.verify_s"),
            (IncrementalEstimator, "observe_chunk", "live.incremental.observe_s"),
            (ConfidenceSequence, "update", "live.confidence.update_s"),
            (RatioConfidenceSequence, "update", "live.confidence.update_s"),
            (OnlineChangePointDetector, "update", "live.changepoint.update_s"),
            (ShardWriter, "extend", "store.format.capture_s"),
            (ShardWriter, "close", "store.format.close_s"),
            (LiveTrafficGenerator, "next_batch", "workloads.drift.batch_s"),
        )
        for cls, method, layer in layers:
            patches.method(cls, method, lambda f, layer=layer: timed(ledger, layer, f))

    def operation(self, phase: Phase) -> None:
        from repro.obs.spans import capture

        # Every session after the first builds its own watch, untimed:
        # fresh generator state and an empty capture directory.
        if self.watch is None:
            self.setup()
        watch = self.watch
        with phase.section(work=self.records):
            with capture() as recorder:
                for batch in self.generator.iter_batches(max_records=self.records):
                    started = time.perf_counter()
                    watch.process(batch)
                    phase.add_latency(time.perf_counter() - started)
                watch.close_capture()
            verdicts = watch.verify_against_capture(self.capture)
        if phase.traced:
            phase.absorb_counters(recorder, ("live.ingest.records",))
            written = sum(path.stat().st_size for path in self.capture.iterdir())
            phase.counters["store.shard_bytes_written"] = (
                phase.counters.get("store.shard_bytes_written", 0) + written
            )
        phase.attempted += 1
        ok = watch.records == self.records and all(v["match"] for v in verdicts.values())
        if not self.context.checks.record("verify_offline_match", ok):
            phase.failed += 1
        self.teardown()

    def layer_extras(self, phase: Phase, seconds, counts):
        return {
            "live.ingest.records": phase.counters.get("live.ingest.records", 0),
            "store.shard_bytes_written": phase.counters.get("store.shard_bytes_written", 0),
        }
