"""``offline-panel``: the researcher's default call on a cold sharded trace.

Each operation opens a fresh ``ShardedTrace(on_corruption="raise")`` and
runs ``api.compare(trace, policy)`` with the default panel (dm, snips,
dr) and ``diagnostics=True``, with the stream fanned over ``nproc``
fork workers through ``REPRO_STREAM_WORKERS``.  Every report must equal,
by ``to_json()``, ``api.compare`` on the materialised dense trace.
"""

from __future__ import annotations

import os
import shutil
import time
from contextlib import nullcontext

import numpy as np

from common import Phase, Workload, nproc
from layers import wrap_estimators, wrap_models, wrap_store_reads
from ledger import timed
from policies import candidate_spec


class OfflinePanel(Workload):
    name = "offline-panel"
    why = (
        "the researcher's default api.compare on a cold sharded trace: shard "
        "reads, the parallel stream and its transport, and overlap_report"
    )
    named_metrics = {"offline_records_per_s": "throughput_per_s"}
    checks = ("report_equals_dense_compare",)
    layers = (
        "api.compare_s",
        "store.sharded.open_s",
        "store.sharded.chunks_s",
        "store.sharded.chunks",
        "store.shard_bytes_read",
        "core.contracts.check_s",
        "core.estimators.estimate_s.dm",
        "core.estimators.estimate_s.snips",
        "core.estimators.estimate_s.dr",
        "core.models.fit_s",
        "core.models.predict_s",
        "store.streaming.parallel_s",
        "store.streaming.ipc_bytes",
        "ope.stream.chunks",
        "core.diagnostics.overlap_s",
    )

    def __init__(self, context):
        super().__init__(context)
        tiny = context.tiny
        self.records = 2_000 if tiny else 10_000
        self.shard_size = 500 if tiny else 5_000
        self.chunk_records = 256 if tiny else 1_024
        self.workers = nproc()
        self.policy = candidate_spec(context.seed)
        self.directory = None
        self._setups = 0
        os.environ["REPRO_STREAM_WORKERS"] = str(self.workers)

    def input_description(self):
        return {
            "records": self.records,
            "shard_size": self.shard_size,
            "chunk_records": self.chunk_records,
            "stream_workers": self.workers,
            "logging_policy": "uniform",
            "candidate_policy": self.policy,
        }

    def setup(self) -> None:
        from repro.core.policy import UniformRandomPolicy
        from repro.workloads import SyntheticWorkload

        workload = SyntheticWorkload()
        self._setups += 1
        self.directory = self.context.workdir / f"offline-shards-{self._setups}"
        workload.generate_to_shards(
            UniformRandomPolicy(workload.space()),
            self.records,
            np.random.default_rng(self.context.seed),
            self.directory,
            shard_size=self.shard_size,
        )

    def teardown(self) -> None:
        shutil.rmtree(self.directory, ignore_errors=True)

    def prepare_checks(self) -> None:
        from repro import api
        from repro.store.sharded import ShardedTrace

        started = time.perf_counter()
        dense = ShardedTrace(self.directory).materialize()
        self.reference = api.compare(dense, self.policy).to_json()
        self.context.extras["check_prep_s"] = time.perf_counter() - started

    def install(self, patches, ledger) -> None:
        import repro.api as api
        import repro.core.diagnostics as diagnostics

        wrap_store_reads(patches, ledger, "store.streaming.parallel_s")
        wrap_estimators(patches, ledger)
        wrap_models(patches, ledger)
        patches.function(api, "compare", lambda f: timed(ledger, "api.compare_s", f))
        patches.function(
            diagnostics, "overlap_report", lambda f: timed(ledger, "core.diagnostics.overlap_s", f)
        )

    def operation(self, phase: Phase) -> None:
        from repro import api
        from repro.obs.spans import capture
        from repro.store.sharded import ShardedTrace

        # The traced phase also reads the program's own counters, which
        # exist only while an obs recorder is active.
        with capture() if phase.traced else nullcontext() as recorder:
            with phase.section(work=self.records):
                started = time.perf_counter()
                trace = ShardedTrace(
                    self.directory, chunk_records=self.chunk_records, on_corruption="raise"
                )
                report = api.compare(trace, self.policy)
                elapsed = time.perf_counter() - started
        phase.add_latency(elapsed)
        if recorder is not None:
            phase.absorb_counters(recorder, ("ope.stream.chunks", "harness.pool.ipc.bytes"))
        phase.attempted += 1
        ok = report.to_json() == self.reference
        if not self.context.checks.record("report_equals_dense_compare", ok):
            phase.failed += 1

    def layer_extras(self, phase: Phase, seconds, counts):
        return {
            "ope.stream.chunks": phase.counters.get("ope.stream.chunks", 0),
            "store.streaming.ipc_bytes": phase.counters.get("harness.pool.ipc.bytes", 0),
        }
